package skynet

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the measured rows each iteration at reduced corpus size), plus
// microbenchmarks for the hot paths. Run everything with:
//
//	go test -bench=. -benchmem
//
// The skynet-bench binary prints the full-size tables; these benchmarks
// exist so `go test -bench` regenerates every experiment and tracks the
// implementation's own performance.

import (
	"flag"
	"os"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/evaluator"
	"skynet/internal/experiments"
	"skynet/internal/flood"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/locator"
	"skynet/internal/microbench"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/preprocess"
	"skynet/internal/provenance"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
)

var benchEpoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

// benchOptions is a reduced corpus so figure-level benchmarks complete in
// seconds per iteration.
func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Scenarios = 6
	opts.Window = 8 * time.Minute
	return opts
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ByName(name, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// BenchmarkFig1ScenarioMix regenerates the Figure 1 root-cause mix.
func BenchmarkFig1ScenarioMix(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig3Coverage regenerates the Figure 3 per-tool coverage bars.
func BenchmarkFig3Coverage(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig5dCorrelation regenerates the Figure 5d class correlation.
func BenchmarkFig5dCorrelation(b *testing.B) { runExperiment(b, "fig5d") }

// BenchmarkFig8aSourceAblation regenerates the Figure 8a accuracy-vs-
// sources ablation.
func BenchmarkFig8aSourceAblation(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8bPreprocess regenerates the Figure 8b volume reduction.
func BenchmarkFig8bPreprocess(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig8cLocate regenerates the Figure 8c locating-time curve.
func BenchmarkFig8cLocate(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkFig9Thresholds regenerates the Figure 9 threshold sweep.
func BenchmarkFig9Thresholds(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10aSeverity regenerates the Figure 10a severity
// distributions.
func BenchmarkFig10aSeverity(b *testing.B) { runExperiment(b, "fig10a") }

// BenchmarkFig10bFilter regenerates the Figure 10b monthly filter counts.
func BenchmarkFig10bFilter(b *testing.B) { runExperiment(b, "fig10b") }

// BenchmarkFig10cMitigation regenerates the Figure 10c mitigation-time
// comparison.
func BenchmarkFig10cMitigation(b *testing.B) { runExperiment(b, "fig10c") }

// BenchmarkSec62Preprocessing regenerates the §6.2 stream summary.
func BenchmarkSec62Preprocessing(b *testing.B) { runExperiment(b, "preprocessing") }

// BenchmarkCases reruns the §5.1 case studies.
func BenchmarkCases(b *testing.B) { runExperiment(b, "cases") }

// --- Microbenchmarks: hot paths of the pipeline ---

// BenchmarkLocatorAddCheck measures main-tree insertion plus incident
// generation over a 40k-alert hotspot batch — the Figure 8c unit of work.
func BenchmarkLocatorAddCheck(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 40000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := locator.New(locator.DefaultConfig(), topo)
		for j := range alerts {
			loc.Add(alerts[j])
		}
		loc.Check(benchEpoch.Add(time.Minute))
	}
	b.ReportMetric(float64(len(alerts)), "alerts/op")
}

// BenchmarkPreprocessorStream measures the §4.1 stream stage on a raw
// synthetic batch.
func BenchmarkPreprocessorStream(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	raw := experiments.SyntheticStructuredAlerts(topo, 20000, 2)
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := preprocess.Process(preprocess.DefaultConfig(), topo, classifier, raw, 10*time.Second)
		if len(out) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkFTreeClassify measures syslog line classification.
func BenchmarkFTreeClassify(b *testing.B) {
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		b.Fatal(err)
	}
	line := "%LINK-3-UPDOWN: Interface TenGigE0/1/0/25, changed state to down (bench)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := classifier.ClassifyLine(line); !ok {
			b.Fatal("line did not classify")
		}
	}
}

// BenchmarkPathEval measures end-to-end path evaluation in the simulator.
func BenchmarkPathEval(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	sim := netsim.New(topo, 1)
	if err := sim.Step(benchEpoch); err != nil {
		b.Fatal(err)
	}
	cls := topo.Clusters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EvalPath(cls[i%len(cls)], cls[(i+7)%len(cls)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetPoll measures one full monitoring round over the small
// topology with an active severe failure.
func BenchmarkFleetPoll(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	sim := netsim.New(topo, 1)
	city := topo.Clusters()[0].Truncate(hierarchy.LevelCity)
	sim.MustInject(netsim.Fault{Kind: netsim.FaultFiberBundleCut, Location: city, Magnitude: 0.5, Start: benchEpoch})
	fleet := monitors.NewFleet(topo, monitors.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := benchEpoch.Add(time.Duration(i) * 2 * time.Second)
		if err := sim.Step(now); err != nil {
			b.Fatal(err)
		}
		fleet.Poll(sim, now)
	}
}

// BenchmarkSeverityScore measures Equation 1–3 evaluation.
func BenchmarkSeverityScore(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	eval := evaluator.New(evaluator.DefaultConfig(), topo)
	alerts := experiments.SyntheticStructuredAlerts(topo, 500, 3)
	in := buildBenchIncident(topo, alerts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Score(in, benchEpoch.Add(10*time.Minute))
	}
}

func buildBenchIncident(topo *topology.Topology, alerts []alert.Alert) *Incident {
	root := hierarchy.Root()
	for i := range alerts {
		if root.IsRoot() {
			root = alerts[i].Location.Truncate(hierarchy.LevelSite)
		}
	}
	in := incident.New(1, root)
	for i := range alerts {
		if root.Contains(alerts[i].Location) {
			in.Add(alerts[i])
		}
	}
	return in
}

// --- Telemetry overhead ---

// telemetryDump, when set, writes the Prometheus text snapshot
// accumulated by the instrumented benchmarks to the given file:
//
//	go test -bench=EngineTick -telemetrydump=telemetry.prom
var telemetryDump = flag.String("telemetrydump", "",
	"write a Prometheus text snapshot of benchmark telemetry to this file")

// BenchmarkEngineTick measures an uninstrumented ingest+tick round with
// the default worker fan-out (all cores).
func BenchmarkEngineTick(b *testing.B) { microbench.EngineTick(b, microbench.TickSetup{}) }

// BenchmarkEngineTickSerial pins the pipeline to one worker — the serial
// reference the parallel path must match bit-for-bit (see
// TestEngineDeterministicAcrossWorkers).
func BenchmarkEngineTickSerial(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Workers: 1})
}

// BenchmarkEngineTickWorkers4 forces four workers regardless of core
// count, exposing the goroutine fan-out overhead when oversubscribed.
func BenchmarkEngineTickWorkers4(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Workers: 4})
}

// BenchmarkEngineTickProvenance is BenchmarkEngineTick with the lineage
// recorder attached at the default 1-in-16 sampling; the delta between
// the two is the provenance cost per tick (acceptance bound: within 5%).
func BenchmarkEngineTickProvenance(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Provenance: provenance.New(provenance.Config{})})
}

// BenchmarkEngineTickSpans is BenchmarkEngineTick with the span tracer
// attached; the delta between the two is the tracing cost per tick
// (acceptance bound: within 2%, see bench_results.txt).
func BenchmarkEngineTickSpans(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Tracer: span.NewTracer(0)})
}

// BenchmarkEngineTickFlood is BenchmarkEngineTick with the flood-episode
// recorder attached; the delta between the two is the episode-tagging
// cost per tick (acceptance bound: within 2%, see bench_results.txt).
// The synthetic batch rate keeps an episode open for the whole run, so
// this measures the recorder's worst case: every tick aggregates.
func BenchmarkEngineTickFlood(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Flood: flood.New(flood.Config{})})
}

// BenchmarkEngineTickTelemetry is BenchmarkEngineTick with the metrics
// registry and lifecycle journal attached; the delta between the two is
// the telemetry cost per tick (acceptance bound: within 5%).
func BenchmarkEngineTickTelemetry(b *testing.B) {
	reg := telemetry.New()
	microbench.EngineTick(b, microbench.TickSetup{Registry: reg, Journal: telemetry.NewJournal(0)})
	if *telemetryDump == "" {
		return
	}
	f, err := os.Create(*telemetryDump)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := reg.Expose(f); err != nil {
		b.Fatal(err)
	}
	b.Logf("telemetry snapshot written to %s", *telemetryDump)
}

// BenchmarkEngineTickHistory is BenchmarkEngineTickTelemetry with the
// tick-indexed history sampler and the SLO burn-rate engine attached
// (self-monitoring on); the delta between the two is the telemetry-
// history cost per tick (acceptance bound: within 2%, see
// EXPERIMENTS.md).
func BenchmarkEngineTickHistory(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Registry: telemetry.New(), History: true})
}

// BenchmarkEngineTickProfiled is BenchmarkEngineTick with the pprof
// stage labeler and the runtime/metrics sampler attached — the always-on
// parts of the continuous profiler (the windowed collector is off; its
// cost is duty-cycled and bounded separately). The delta between the two
// is the labeling cost per tick (acceptance bound: within 2% on time and
// bytes/op, see bench_results.txt).
func BenchmarkEngineTickProfiled(b *testing.B) {
	microbench.EngineTick(b, microbench.TickSetup{Profiled: true})
}

// BenchmarkWireCodec measures the UDP wire format round trip.
func BenchmarkWireCodec(b *testing.B) {
	a := Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: ClassFailure,
		Time: benchEpoch, End: benchEpoch.Add(time.Minute),
		Location: MustPath("RG01", "CT01", "LS01", "ST01", "CL01", "dev-1"),
		Value:    0.25, Count: 3, Raw: "Packet loss 25.0% to peer",
	}
	buf := make([]byte, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = alert.AppendWire(buf[:0], &a)
		if _, err := alert.ParseWire(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPipeline measures a complete minute of simulated
// operation: simulator steps, fleet polls, and engine ticks under a
// severe failure.
func BenchmarkEndToEndPipeline(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	for i := 0; i < b.N; i++ {
		r, err := core.NewRunner(topo, core.DefaultConfig(), monitors.DefaultConfig(), int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		city := topo.Clusters()[0].Truncate(hierarchy.LevelCity)
		r.Sim.MustInject(netsim.Fault{Kind: netsim.FaultFiberBundleCut, Location: city, Magnitude: 0.5, Start: benchEpoch})
		if _, err := r.Run(benchEpoch, benchEpoch.Add(time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
}
