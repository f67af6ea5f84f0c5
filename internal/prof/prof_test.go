package prof

import (
	"bytes"
	"context"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/par"
	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// goroutineProfile captures the live goroutine profile (debug=0 proto
// form, which carries pprof labels) and decodes it with the package's own
// parser.
func goroutineProfile(t *testing.T) *Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatalf("write goroutine profile: %v", err)
	}
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parse goroutine profile: %v", err)
	}
	return p
}

// clearLabels resets the test goroutine's label set so one test's stage
// labels cannot leak into the next.
func clearLabels() { pprof.SetGoroutineLabels(context.Background()) }

// captureUnderFanOut runs a `workers`-wide fan-out through fork and
// captures the goroutine profile from the last task to start, while the
// other workers are parked with their labels applied. Blocking the first
// workers pins each task to a distinct worker goroutine, so the capture
// must observe every shard index.
func captureUnderFanOut(t *testing.T, workers int, fork func(n int, task func(i int))) *Profile {
	t.Helper()
	var (
		arrived atomic.Int32
		release = make(chan struct{})
		prof    *Profile
	)
	fork(workers, func(i int) {
		if int(arrived.Add(1)) == workers {
			prof = goroutineProfile(t)
			close(release)
			return
		}
		<-release
	})
	if prof == nil {
		t.Fatal("fan-out never captured a profile")
	}
	return prof
}

// shardSet collects the shard label values of samples carrying the given
// stage label.
func shardSet(p *Profile, stage string) map[string]bool {
	shards := make(map[string]bool)
	for _, s := range p.Samples {
		if s.Labels[LabelStage] == stage {
			if shard, ok := s.Labels[LabelShard]; ok {
				shards[shard] = true
			}
		}
	}
	return shards
}

// TestStageLabelsSurviveParDo is the label-propagation contract: worker
// goroutines forked by par.Do while the engine goroutine is inside a
// labeled stage must carry the stage label plus their own shard index.
func TestStageLabelsSurviveParDo(t *testing.T) {
	defer clearLabels()
	l := NewLabeler(4)
	l.SetStage(span.StageClassify)
	defer l.Clear()

	p := captureUnderFanOut(t, 4, func(n int, task func(i int)) {
		par.Do(4, n, task)
	})
	shards := shardSet(p, "classify")
	for _, want := range []string{"0", "1", "2", "3"} {
		if !shards[want] {
			t.Errorf("par.Do: no goroutine labeled stage=classify shard=%s (got %v)", want, shards)
		}
	}
}

// TestStageLabelsSurviveParDoTimed repeats the propagation check through
// the timed fork variant (the spans-instrumented path the preprocessor
// and evaluator actually use), with the stage published by SetFork
// alone, as span.Scope.Fork does.
func TestStageLabelsSurviveParDoTimed(t *testing.T) {
	defer clearLabels()
	l := NewLabeler(4)
	l.SetFork(span.StageRefineScore)
	defer l.Clear()

	var timed atomic.Int32
	done := func(i int, start time.Time, d time.Duration) { timed.Add(1) }
	p := captureUnderFanOut(t, 4, func(n int, task func(i int)) {
		par.DoTimed(4, n, done, task)
	})
	shards := shardSet(p, "refine_score")
	for _, want := range []string{"0", "1", "2", "3"} {
		if !shards[want] {
			t.Errorf("par.DoTimed: no goroutine labeled stage=refine_score shard=%s (got %v)", want, shards)
		}
	}
	if timed.Load() != 4 {
		t.Errorf("DoTimed ran %d timing callbacks, want 4", timed.Load())
	}
}

// TestEpisodeLabelTagsWorkers pins the flood-episode dimension: while an
// episode is open every stage context — and therefore every forked
// worker — must carry the episode label, and closing the episode must
// drop it from freshly built contexts.
func TestEpisodeLabelTagsWorkers(t *testing.T) {
	defer clearLabels()
	l := NewLabeler(2)
	l.SetEpisode(42)
	l.SetStage(span.StageConsolidate)

	p := captureUnderFanOut(t, 2, func(n int, task func(i int)) {
		par.Do(2, n, task)
	})
	l.Clear()

	found := false
	for _, s := range p.Samples {
		if s.Labels[LabelStage] == "consolidate" && s.Labels[LabelEpisode] == "42" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no worker carried episode=42 while the episode was open")
	}

	l.SetEpisode(0)
	l.SetStage(span.StageConsolidate)
	p = goroutineProfile(t)
	l.Clear()
	for _, s := range p.Samples {
		if s.Labels[LabelEpisode] == "42" {
			t.Error("episode=42 label survived SetEpisode(0)")
		}
	}
}

// TestLabelerNilSafe pins the optional-observer contract: a nil labeler
// must absorb every call so the engine hot path can invoke it
// unconditionally.
func TestLabelerNilSafe(t *testing.T) {
	var l *Labeler
	l.SetStage(span.StageSOP)
	l.SetFork(span.StageExpire)
	l.Clear()
	l.SetEpisode(7)
}

// TestStageNames pins the label vocabulary shared by the collector's
// telemetry, /api/profile, and skynet-top: it is exactly the span stage
// table, plus the unlabeled "other" bucket.
func TestStageNames(t *testing.T) {
	reg := telemetry.New()
	NewCollector(CollectorConfig{Registry: reg})
	got := map[string]bool{}
	for _, m := range reg.Snapshot() {
		if m.Name == "skynet_prof_stage_cpu_fraction" {
			got[m.Labels] = true
		}
	}
	want := []string{`stage="other"`}
	for s := span.Stage(0); s < span.NumStages; s++ {
		want = append(want, `stage="`+s.String()+`"`)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("no skynet_prof_stage_cpu_fraction{%s} gauge (have %v)", w, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("stage gauges = %v, want exactly %v", got, want)
	}
}
