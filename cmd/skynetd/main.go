// Command skynetd is the SkyNet analysis daemon: it listens for raw
// alerts over TCP (JSON Lines) and UDP (compact pipe format), runs the
// preprocessor → locator → evaluator pipeline on a wall-clock tick, and
// prints incident reports as they are created, updated, or closed.
//
// Usage:
//
//	skynetd -tcp :7070 -udp :7071
//	skynetd -tcp 127.0.0.1:0 -scale small   # with topology-aware scoping
//
// Send alerts with the ingest clients or anything that speaks the wire
// formats (see internal/alert). Stop with SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/flood"
	"skynet/internal/ingest"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/status"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

// version identifies the build; release pipelines override it with
// -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		tcpAddr  = flag.String("tcp", "127.0.0.1:7070", "TCP listen address (empty disables)")
		udpAddr  = flag.String("udp", "127.0.0.1:7071", "UDP listen address (empty disables)")
		httpAddr = flag.String("http", "127.0.0.1:7072", "HTTP status address (empty disables)")
		tick     = flag.Duration("tick", 10*time.Second, "pipeline tick interval")
		scale    = flag.String("scale", "", "optional synthetic topology: small or production")
		topoFile = flag.String("topo", "", "optional topology JSON file (overrides -scale)")
		seed     = flag.Int64("seed", 1, "topology seed")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof on the HTTP status server")
		workers  = flag.Int("workers", 0,
			"pipeline worker fan-out (0 = all cores, 1 = serial; output is identical)")
		provEvery = flag.Int("provenance", provenance.DefaultSampleEvery,
			"record lineage detail for 1 in N ingested alerts (1 = all, 0 disables; conservation counters stay exact)")
		flightDir = flag.String("flight-dir", "flight-dumps",
			"flight-recorder dump directory (empty disables dumps; triggers, /api/health, and /api/trace stay on)")
		sloTickP99 = flag.Duration("slo-tick-p99", flight.DefaultSLOTickP99,
			"per-tick latency objective of the tick-latency SLO burn-rate rule; a burn fires the flight recorder's slo_burn dump")
		flightMaxDumps = flag.Int("flight-max-dumps", 0,
			"max flight dump directories kept on disk; oldest are deleted past the cap (0 = keep all)")
		selfMonitor = flag.Bool("self-monitor", true,
			"inject synthetic meta/skynetd alerts through the ingest path when an SLO burn-rate rule fires")
		historySnap = flag.String("history-snapshot", "",
			"file for the final telemetry-history snapshot written on shutdown (default <flight-dir>/history-final.json; empty flight dir disables)")
		mutexFraction = flag.Int("mutex-fraction", 0,
			"mutex contention profiling: record 1 in N contention events (0 disables; see bench_results.txt for overhead)")
		blockRate = flag.Int("block-rate", 0,
			"block profiling: record blocking events lasting >= N ns (0 disables; see bench_results.txt for overhead)")
		profileDir = flag.String("profile-dir", "profiles",
			"continuous-profiler window archive directory (empty disables archiving; capture, telemetry, and /api/profile stay on)")
		profileInterval = flag.Duration("profile-interval", time.Minute,
			"continuous-profiler capture cadence, start to start")
		profileWindow = flag.Duration("profile-window", 5*time.Second,
			"continuous-profiler CPU capture length per window")
		profileMaxWindows = flag.Int("profile-max-windows", 16,
			"max profile window directories kept on disk; oldest are deleted past the cap")
		fanoutRing = flag.Int("fanout-ring", 1024,
			"fan-out ring capacity in frames (rounded up to a power of two); lagging subscribers past ring+slack are resynced from the snapshot")
		fanoutRate = flag.Float64("fanout-rate", 0,
			"per-subscriber event deliveries per second on /api/events (0 = unlimited; backlog coalesces, never queues)")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Contention profiling is sampled and default-off; the flags wire
	// straight through to the runtime. Profiles appear on /debug/pprof
	// (with -pprof), in continuous-profiler windows, and in flight dumps.
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	var topo *topology.Topology
	if *topoFile != "" {
		var err error
		topo, err = topology.LoadFile(*topoFile)
		if err != nil {
			fatal(log, err)
		}
		log.Info("topology loaded from file", "path", *topoFile,
			"devices", topo.NumDevices(), "links", topo.NumLinks())
	}
	switch {
	case topo != nil:
		// loaded from file above
	case *scale == "":
		log.Info("running without topology; connectivity scoping disabled")
	case *scale == "small" || *scale == "production":
		cfg := topology.SmallConfig()
		if *scale == "production" {
			cfg = topology.ProductionConfig()
		}
		cfg.Seed = *seed
		var err error
		topo, err = topology.Generate(cfg)
		if err != nil {
			fatal(log, err)
		}
		log.Info("topology generated", "devices", topo.NumDevices(), "links", topo.NumLinks())
	default:
		fatal(log, fmt.Errorf("unknown scale %q", *scale))
	}

	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		fatal(log, err)
	}
	engineCfg := core.DefaultConfig()
	engineCfg.Workers = *workers
	engine := core.NewEngine(engineCfg, topo, classifier, nil, nil)
	// engineMu serializes the main loop and the HTTP status handlers.
	var engineMu sync.Mutex

	// Telemetry: the registry backs GET /metrics, the journal backs
	// GET /api/journal.
	reg := telemetry.New()
	journal := telemetry.NewJournal(0)
	engine.EnableTelemetry(reg, journal)
	journal.RegisterMetrics(reg)

	// Tracing: a span tree per tick, feeding /api/trace, the per-stage
	// span histograms on /metrics, and flight-recorder dumps.
	tracer := span.NewTracer(0)
	engine.EnableTracing(tracer)

	// Telemetry history: every registry metric sampled once per tick into
	// the tick-indexed store behind GET /api/query, flight-dump history
	// sections, and flood postmortem trajectory curves.
	db := tsdb.New(tsdb.Config{})
	db.RegisterMetrics(reg)
	engine.EnableHistory(tsdb.NewSampler(db, reg))

	// SLO watchdog: multi-window burn-rate rules over the history store;
	// with -self-monitor, burns feed back into the pipeline as synthetic
	// meta/skynetd alerts.
	sloEng := slo.New(db, slo.DefaultRules(*sloTickP99))
	sloEng.RegisterMetrics(reg)
	engine.EnableSLO(sloEng, *selfMonitor)

	// Continuous profiling: pipeline stages run under pprof labels, a
	// background collector captures short windowed CPU profiles on a
	// cadence and aggregates per-stage CPU fractions into skynet_prof_*
	// telemetry behind GET /api/profile; the runtime sampler feeds GC /
	// heap / scheduler health into the registry and the history store
	// (where the gc_pause burn-rate rule watches it).
	engine.EnableProfiling(prof.NewLabeler(engine.MaxShards()))
	engine.EnableRuntimeMetrics(prof.NewRuntime(reg))
	profiler := prof.NewCollector(prof.CollectorConfig{
		Dir:        *profileDir,
		Interval:   *profileInterval,
		Window:     *profileWindow,
		MaxWindows: *profileMaxWindows,
		Registry:   reg,
	})
	profiler.Start()
	defer profiler.Stop()

	// Fan-out serving layer: every tick the engine publishes one encoded
	// incident-feed snapshot plus delta into the hub's shared ring, and
	// GET /api/events serves frames by reference — subscriber count never
	// touches the tick path. Event chatter (journal, flood, flight, SLO)
	// rides the same ring with SSE ids for Last-Event-ID resume.
	hub := fanout.NewHub(fanout.Config{
		Ring:      *fanoutRing,
		Rate:      *fanoutRate,
		WallStamp: true,
	})
	defer hub.Close()
	hub.RegisterMetrics(reg)
	engine.EnableFanout(hub)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(status.EventTypeIncident, ev) })

	// Provenance: lineage conservation counters on /metrics and the
	// per-incident explain endpoint.
	var prov *provenance.Recorder
	if *provEvery > 0 {
		prov = provenance.New(provenance.Config{SampleEvery: *provEvery})
		engine.EnableProvenance(prov)
		prov.RegisterMetrics(reg)
	}

	// Flood forensics: the episode detector rides the engine tick, tags
	// telemetry with the episode ID, and accumulates per-episode
	// postmortems for GET /api/floods.
	floodRec := flood.New(flood.Config{})
	engine.EnableFlood(floodRec)
	floodRec.RegisterMetrics(reg)
	floodRec.SetHistory(flood.HistoryFromDB(db,
		tsdb.MetricTickDuration,
		"skynet_raw_alerts_total",
		"skynet_active_incidents",
		"skynet_preprocess_pending_depth"))
	floodRec.SetNotify(func(ev flood.Event) {
		hub.Publish(status.EventTypeFlood, ev)
		log.Info("flood episode", "episode", ev.Episode, "phase", ev.Phase.String(), "detail", ev.Detail)
		if ev.Phase == flood.PhaseClosed && *flightDir != "" {
			if rep, ok := floodRec.Report(ev.Episode); ok {
				if path, err := flood.WriteReport(*flightDir, &rep); err != nil {
					log.Warn("flood report archive failed", "err", err)
				} else {
					log.Info("flood postmortem archived", "path", path)
				}
			}
		}
	})

	log.Info("pipeline configured",
		"workers", engine.Workers(),
		"preprocess_shards", engine.PreprocessShards(),
		"locator_shards", engine.LocatorShards(),
		"provenance_sample_every", *provEvery)
	// The batch handler runs on the ingest dispatch goroutine and feeds
	// the engine's columnar path directly under engineMu (IngestBatch
	// copies the columns out, so the dispatcher's batch is safe to
	// reuse). Backpressure lives inside ingest: its queues buffer while
	// the engine ticks, and overflow is shed there — counted on the
	// skynet_ingest_rejected_queue_full_total counter, never silently
	// dropped.
	srv, err := ingest.ListenBatch(ingest.Config{
		TCPAddr:     *tcpAddr,
		UDPAddr:     *udpAddr,
		MaxConns:    256,
		ReadTimeout: 5 * time.Minute,
		QueueDepth:  8192,
		Logger:      log,
	}, func(b *alert.Batch) {
		engineMu.Lock()
		engine.IngestBatch(b)
		engineMu.Unlock()
	})
	if err != nil {
		fatal(log, err)
	}
	srv.RegisterMetrics(reg)
	defer srv.Close()

	// Flight recorder: the evidence sink of the SLO watchdog. It dumps
	// evidence when an SLO rule starts burning and when a flood episode
	// closes, and /api/health is degraded while any rule fires.
	flightRec := flight.New(flight.Config{
		Dir:         *flightDir,
		MaxDumpDirs: *flightMaxDumps,
	}, flight.Sources{
		SLO:         sloEng,
		FloodClosed: floodRec.ClosedCount,
		Metrics:     reg,
		Tracer:      tracer,
		History:     func(w io.Writer) error { return db.SnapshotTo(w, time.Now()) },
		Profiles:    profiler.WriteLatest,
		Incidents: func() any {
			engineMu.Lock()
			defer engineMu.Unlock()
			active := engine.Active()
			out := make([]status.IncidentSummary, 0, len(active))
			for _, inc := range active {
				out = append(out, status.Summarize(inc))
			}
			return out
		},
	})
	flightRec.RegisterMetrics(reg)
	flightRec.SetNotify(func(ev flight.Event) {
		hub.Publish(status.EventTypeAnomaly, ev)
		log.Warn("flight-recorder trigger", "trigger", ev.Trigger, "detail", ev.Detail, "dump", ev.DumpDir)
	})
	sloEng.SetNotify(func(ev slo.Event) {
		hub.Publish(status.EventTypeSLO, ev)
		log.Warn("slo burn event", "rule", ev.Rule, "firing", ev.Firing, "detail", ev.Detail)
	})
	if a := srv.TCPAddr(); a != nil {
		log.Info("tcp listening", "addr", a.String())
	}
	if a := srv.UDPAddr(); a != nil {
		log.Info("udp listening", "addr", a.String())
	}
	if *httpAddr != "" {
		flags := map[string]string{}
		flag.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
		snap := status.NewSnapshotter(&engineMu, engine, srv).
			WithTopology(topo).
			WithTelemetry(reg).
			WithJournal(journal).
			WithProvenance(prov).
			WithBuildInfo(status.BuildInfo{
				Version:   version,
				GoVersion: runtime.Version(),
				OS:        runtime.GOOS,
				Arch:      runtime.GOARCH,
				Workers:   engine.Workers(),
				Flags:     flags,
			}).
			WithPprof(*pprofOn).
			WithFlight(flightRec).
			WithTracer(tracer).
			WithEvents(hub).
			WithFlood(floodRec).
			WithHistory(db).
			WithSLO(sloEng).
			WithProfiler(profiler)
		statusSrv, err := status.Listen(*httpAddr, snap, log)
		if err != nil {
			fatal(log, err)
		}
		defer statusSrv.Close()
		log.Info("http status listening", "addr", statusSrv.Addr().String(), "pprof", *pprofOn)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()

	known := map[int]bool{}
	for {
		select {
		case now := <-ticker.C:
			engineMu.Lock()
			tickStart := time.Now()
			res := engine.Tick(now)
			tickDur := time.Since(tickStart)
			closed := engine.Closed()
			active := len(engine.Active())
			engineMu.Unlock()
			// Observe outside engineMu: a dump's incident snapshot takes
			// the lock itself. Perf feeds the open flood episode's report
			// without touching its deterministic episode state.
			floodRec.ObservePerf(tickDur, int64(srv.Stats().QueueFull))
			flightRec.Observe(now)
			for _, inc := range res.NewIncidents {
				known[inc.ID] = true
				fmt.Printf("--- NEW INCIDENT ---\n%s\n", inc.Render())
			}
			for _, inc := range closed {
				if known[inc.ID] {
					delete(known, inc.ID)
					fmt.Printf("--- INCIDENT %d CLOSED at %s ---\n", inc.ID, inc.End.Format(time.TimeOnly))
				}
			}
			if len(res.NewIncidents) == 0 && res.Structured > 0 {
				log.Info("tick", "structured", res.Structured, "active", active)
			}
		case sig := <-stop:
			log.Info("shutting down", "signal", sig.String())
			// Close the fan-out hub first so every SSE subscriber wakes
			// with ErrClosed and /api/events handlers return before the
			// HTTP server's deferred graceful shutdown runs.
			hub.Close()
			// Flush the final telemetry-history snapshot: the whole run's
			// tick-indexed series, the postmortem artifact CI uploads.
			if path := finalSnapshotPath(*historySnap, *flightDir); path != "" {
				if err := writeHistorySnapshot(db, path); err != nil {
					log.Warn("history snapshot failed", "err", err)
				} else {
					log.Info("history snapshot written", "path", path,
						"series", len(db.SeriesNames()), "samples", db.Samples(),
						"resident_bytes", db.MemoryBytes())
				}
			}
			engineMu.Lock()
			stats := engine.PreprocessStats()
			total := len(engine.AllIncidents())
			engineMu.Unlock()
			srvStats := srv.Stats()
			fmt.Printf("ingested %d alerts (%d rejected, %d shed), %d structured, queue high water %d\n",
				srvStats.AlertsAccepted, srvStats.AlertsRejected, srvStats.QueueFull, stats.Out, srvStats.QueueHighWater)
			fmt.Printf("%d incidents over the run, %d lifecycle events journaled\n", total, journal.Len())
			return
		}
	}
}

// finalSnapshotPath resolves the -history-snapshot flag: an explicit
// path wins; otherwise the snapshot lands next to the flight dumps, and
// an empty flight dir disables it.
func finalSnapshotPath(flagPath, flightDir string) string {
	if flagPath != "" {
		return flagPath
	}
	if flightDir == "" {
		return ""
	}
	return filepath.Join(flightDir, "history-final.json")
}

func writeHistorySnapshot(db *tsdb.DB, path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = db.SnapshotTo(f, time.Now())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(log *slog.Logger, err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}
