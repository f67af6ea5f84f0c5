// Command perfbench is SkyNet's end-to-end benchmark. It wires the engine
// the way cmd/skynetd does, puts generated alerts in at the front door,
// reads the incident feed out of the fan-out hub, and times everything in
// between, on one of three workloads:
//
//	flood   one severe failure on the production-scale topology (closed loop)
//	sprawl  many concurrent small failures, hundreds of open incidents (closed loop)
//	live    20K alerts/s over loopback TCP, 1 s wall-clock ticks (open loop)
//
// Usage:
//
//	perfbench --workload flood --seed 1 --seconds 10 --trace 0
//	perfbench -compare old.json new.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end metrics with
// --trace 0, the per-layer breakdown with --trace 1. -out writes the full
// report (run shape, checks, every metric) for -compare. Every output
// check runs on every run; a failed check is named on standard error
// and in the report, counted in failed, and makes the exit status 1.
// README.md in this directory lists the metrics and which layer metric
// should move which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"skynet/internal/core"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// shape is everything that must match for two reports to be comparable:
// the machine, the resolved engine fan-out, and the workload. Seeds may
// differ between comparable runs; they are recorded beside the shape.
type shape struct {
	Workload         string         `json:"workload"`
	Seconds          int            `json:"seconds"`
	GOMAXPROCS       int            `json:"gomaxprocs"`
	NumCPU           int            `json:"num_cpu"`
	GoVersion        string         `json:"go_version"`
	Workers          int            `json:"workers"`
	PreprocessShards int            `json:"preprocess_shards"`
	LocatorShards    int            `json:"locator_shards"`
	Params           map[string]any `json:"params"`
}

// report is the full record of one run.
type report struct {
	Shape   shape                  `json:"shape"`
	Seed    int64                  `json:"seed"`
	Trace   bool                   `json:"trace"`
	Passed  []string               `json:"checks_passed"`
	Failed  []string               `json:"checks_failed"`
	Notes   []string               `json:"notes,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	Result  result                 `json:"result"`
}

func newShape(workload string, seconds int, e *core.Engine, params map[string]any) shape {
	return shape{
		Workload:         workload,
		Seconds:          seconds,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		Workers:          e.Workers(),
		PreprocessShards: e.PreprocessShards(),
		LocatorShards:    e.LocatorShards(),
		Params:           params,
	}
}

// endToEnd lists the metrics a --trace 0 run prints, with their units.
// Every workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alerts_per_s", "1/s"},
	{"alert_to_feed_p50_ms", "ms"},
	{"cpu_ms_per_kalert", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints, with their units.
// A metric that does not apply to the workload, or whose percentile has
// too few samples behind it, reads 0 and is named in the report's notes.
var perLayer = []struct{ name, unit string }{
	{"ingest.lag_p99_ms", "ms"},
	{"ingest.lock_wait_p99_ms", "ms"},
	{"ingest.batch_rows_mean", "count"},
	{"ingest.queue_high_water", "count"},
	{"ingest.shed", "count"},
	{"alert.decode_ns_per_row", "ns"},
	{"core.ingest_batch_ns_per_row", "ns"},
	{"core.tick_p50_ms", "ms"},
	{"core.tick_p90_ms", "ms"},
	{"core.tick_tail_ms", "ms"},
	{"core.serial_tick_p50_ms", "ms"},
	{"preprocess.classify_ms", "ms"},
	{"preprocess.consolidate_ms", "ms"},
	{"preprocess.sweep_ms", "ms"},
	{"preprocess.self_ms", "ms"},
	{"preprocess.out_ratio", "ratio"},
	{"locator.addbatch_ms", "ms"},
	{"locator.check_ms", "ms"},
	{"locator.expire_ms", "ms"},
	{"locator.compcount_ms", "ms"},
	{"locator.active_incidents", "count"},
	{"evaluator.refine_score_ms", "ms"},
	{"evaluator.rescore_ratio", "ratio"},
	{"fanout.wait_ms_p99", "ms"},
	{"fanout.encode_us", "us"},
	{"fanout.snapshot_bytes", "bytes"},
	{"fanout.delta_bytes", "bytes"},
	{"fanout.resync_drops", "count"},
	{"runtime.alloc_bytes_per_alert", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"share.ingest", "ratio"},
	{"share.preprocess", "ratio"},
	{"share.locate", "ratio"},
	{"share.evaluate", "ratio"},
	{"share.tail", "ratio"},
	{"feed.tick_p50_ms", "ms"},
	{"feed.tick_p90_ms", "ms"},
	{"feed.alert_to_feed_p90_ms", "ms"},
	{"feed.alert_to_feed_p99_ms", "ms"},
	{"live.gen_late_p99_ms", "ms"},
	{"live.gen_late_max_ms", "ms"},
	{"check.failed_ratio", "ratio"},
	{"overhead.alerts_per_s", "1/s"},
	{"overhead.alert_to_feed_p50_ms", "ms"},
	{"overhead.cpu_ms_per_kalert", "ms"},
	{"overhead.peak_heap_mb", "MB"},
}

// runOutcome is what a workload run hands back to main.
type runOutcome struct {
	shape     shape
	setupS    float64
	untraced  map[string]float64 // end-to-end metrics, timers off
	traced    map[string]float64 // end-to-end metrics of the traced window
	feed      map[string]float64 // feed-latency percentiles of the untraced window (traced runs)
	layers    map[string]float64 // per-layer metrics (traced runs)
	notes     []string
	checks    checks
	attempted int64
	lost      int64 // alerts not absorbed plus feed frames lost
}

func main() {
	var (
		workload = flag.String("workload", "", "flood, sprawl, or live")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of each measured window")
		trace    = flag.Int("trace", 0, "1 adds a traced window and reports the per-layer breakdown")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two report files")
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want flood, sprawl, or live)", *workload)
	}
	o, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	rep := buildReport(o, *seed, *trace == 1)
	for _, f := range rep.Failed {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(os.Stderr, "perfbench: note:", n)
	}
	if *out != "" {
		if err := writeReport(*out, &rep); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// workloads maps --workload to the function that runs it.
var workloads = map[string]func(seed int64, seconds int, traced bool) (*runOutcome, error){
	"flood":  runFlood,
	"sprawl": runSprawl,
	"live":   runLive,
}

func buildReport(o *runOutcome, seed int64, traced bool) report {
	rep := report{
		Shape: o.shape, Seed: seed, Trace: traced,
		Passed: o.checks.passed, Failed: o.checks.failed, Notes: o.notes,
		Metrics: map[string]metricValue{},
	}
	all := map[string]float64{"setup_s": o.setupS}
	for k, v := range o.untraced {
		all[k] = v
	}
	failed := o.lost + int64(len(o.checks.failed))
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	if traced {
		for _, m := range []map[string]float64{o.layers, o.feed} {
			for k, v := range m {
				all[k] = v
			}
		}
		for _, m := range endToEnd {
			if m.name != "setup_s" {
				all["overhead."+m.name] = o.traced[m.name] - o.untraced[m.name]
			}
		}
		all["check.failed_ratio"] = float64(failed) / float64(attempted)
	}
	res := result{Correct: len(o.checks.failed) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		res.Metrics[m.name] = metricValue{Value: all[m.name], Unit: m.unit}
	}
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range l {
			if v, ok := all[m.name]; ok {
				rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			}
		}
	}
	rep.Result = res
	return rep
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// median returns the middle of vs (the lower middle for an even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// A run sets the daemon up at least minSetups times and for at least
// minSetupTime, so that a set-up of a few milliseconds is timed often
// enough for its median to hold still; setup_s is the median.
const (
	minSetups    = 11
	maxSetups    = 400
	minSetupTime = time.Second
)

// setupDaemons wires the daemon repeatedly, timing each from a collected
// heap, and keeps the last one. Input generation is not part of it.
func setupDaemons(cfg daemonConfig) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	var spent time.Duration
	for len(times) < minSetups || spent < minSetupTime && len(times) < maxSetups {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		start := time.Now()
		nd, err := newDaemon(cfg)
		if err != nil {
			return nil, 0, err
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		spent += took
		d = nd
	}
	runtime.GC()
	return d, median(times), nil
}
