package core

import (
	"bytes"
	"context"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/par"
	"skynet/internal/prof"
	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// forkProbe wraps the engine's prof.Labeler. At every span fork it runs
// a two-worker par fan-out of its own — spawned at the point the
// stage's fan-out is, under the labels the fork just published — and
// captures the goroutine profile while both workers are parked,
// recording the shard labels its workers carry under the fork's stage.
type forkProbe struct {
	*prof.Labeler
	t      *testing.T
	shards map[string]map[string]bool // fork stage → shard labels seen
}

func (p *forkProbe) SetFork(s span.Stage) {
	p.Labeler.SetFork(s)
	var arrived atomic.Int32
	release := make(chan struct{})
	par.Do(2, 2, func(int) {
		if arrived.Add(1) < 2 {
			<-release
			return
		}
		defer close(release)
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
			p.t.Errorf("goroutine profile: %v", err)
			return
		}
		profile, err := prof.ParseProfile(buf.Bytes())
		if err != nil {
			p.t.Errorf("parse goroutine profile: %v", err)
			return
		}
		seen := p.shards[s.String()]
		if seen == nil {
			seen = map[string]bool{}
			p.shards[s.String()] = seen
		}
		for _, smp := range profile.Samples {
			if shard, ok := smp.Labels[prof.LabelShard]; ok && smp.Labels[prof.LabelStage] == s.String() {
				seen[shard] = true
			}
		}
	})
}

// spineTicks drives an engine through a failure that opens an incident
// and then widens into a wider one, so every fork of the stage taxonomy
// runs with work to fan out. It returns the number of ticks run.
func spineTicks(e *Engine) int {
	lnk := e.topo.Link(0)
	devs := []hierarchy.Path{e.topo.Device(lnk.A).Path, e.topo.Device(lnk.B).Path, e.topo.Device(lnk.A).Path}
	for i, dev := range devs {
		at := epoch.Add(time.Duration(i) * 10 * time.Second)
		for _, typ := range []string{alert.TypePacketLoss, alert.TypeEndToEndICMP} {
			e.Ingest(alert.Alert{Source: alert.SourcePing, Type: typ, Class: alert.Classify(alert.SourcePing, typ),
				Time: at, End: at, Location: dev, Value: 0.5, Count: 1})
		}
		e.Tick(at.Add(5 * time.Second))
	}
	return len(devs)
}

// TestLabelerOnlyLabelsEveryFork attaches only a pprof labeler — no
// tracer, no registry — and checks that the tick's span tree still
// drives it: at every fork stage the workers a par fan-out spawns carry
// the span name as their `stage` label plus their `shard`.
func TestLabelerOnlyLabelsEveryFork(t *testing.T) {
	defer pprof.SetGoroutineLabels(context.Background())
	cfg := DefaultConfig()
	cfg.Workers = 2
	e := NewEngine(cfg, smallTopo(), nil, nil, nil)
	e.EnableProfiling(prof.NewLabeler(e.MaxShards()))
	probe := &forkProbe{Labeler: e.labels.(*prof.Labeler), t: t, shards: map[string]map[string]bool{}}
	e.labels = probe
	spineTicks(e)

	if e.tracer != nil || e.spanTel != nil {
		t.Fatal("labeler-only engine has a tracer or span metrics attached")
	}
	forks := []span.Stage{span.StageClassify, span.StageConsolidate, span.StageAddBatchFan,
		span.StageExpire, span.StageCompCount, span.StageRefineScore}
	for _, s := range forks {
		if got := probe.shards[s.String()]; !got["0"] || !got["1"] {
			t.Errorf("fork %s: workers carried shard labels %v, want 0 and 1", s, got)
		}
	}
	for name := range probe.shards {
		if !slices.ContainsFunc(forks, func(s span.Stage) bool { return s.String() == name }) {
			t.Errorf("unexpected fork stage %q", name)
		}
	}
}

// TestRegistryOnlyStageHistograms attaches only a metrics registry and
// checks that the skynet_stage_*_seconds histograms, read off the span
// tree, get exactly one observation per tick.
func TestRegistryOnlyStageHistograms(t *testing.T) {
	e := NewEngine(DefaultConfig(), smallTopo(), nil, nil, nil)
	reg := telemetry.New()
	e.EnableTelemetry(reg, nil)
	ticks := int64(spineTicks(e))

	if e.tracer != nil || e.labels != nil {
		t.Fatal("registry-only engine has a tracer or labeler attached")
	}
	for _, name := range []string{
		"skynet_stage_preprocess_seconds",
		"skynet_stage_locate_seconds",
		"skynet_stage_evaluate_seconds",
		"skynet_stage_sop_seconds",
		"skynet_tick_seconds",
	} {
		if h := findMetric(t, reg, name).Hist; h == nil || h.Count != ticks {
			t.Errorf("%s = %+v, want %d observations", name, h, ticks)
		}
	}
	if h := findMetric(t, reg, "skynet_span_locate_seconds").Hist; h == nil || h.Count != ticks {
		t.Errorf("skynet_span_locate_seconds = %+v, want %d observations", h, ticks)
	}
}
