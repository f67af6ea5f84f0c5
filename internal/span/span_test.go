package span

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"skynet/internal/par"
)

func TestNilTracerIsInert(t *testing.T) {
	var a *Active
	r := a.Begin(Root, StageSweep)
	if r != None {
		t.Fatalf("Begin on nil Active = %d, want None", r)
	}
	a.End(r, 3) // must not panic
	a.SetEpisode(4)
	sc := a.Scope(Root)
	if sc.Enabled() {
		t.Fatal("scope of nil Active must be inert")
	}
	if f := sc.Fork(StageExpire, 4); f != nil {
		t.Fatal("Fork on inert scope must be nil")
	}
	var f *Fork
	if f.Timer() != nil {
		t.Fatal("Timer on nil Fork must be nil so DoTimed degrades to Do")
	}
	if a.Finish() != nil {
		t.Fatal("Finish on nil Active must return nil")
	}
	// Without a tracer the tree is still built for its derived views,
	// just retained nowhere.
	if fin := Start(nil, nil, 1, time.Now()).Finish(); fin == nil || len(fin.Spans) != 1 {
		t.Fatalf("tracer-less Finish = %+v, want the one-span tree", fin)
	}
}

// recLabeler records the label hook calls an Active makes.
type recLabeler struct{ calls []string }

func (l *recLabeler) SetStage(s Stage)     { l.calls = append(l.calls, "stage:"+s.String()) }
func (l *recLabeler) SetFork(s Stage)      { l.calls = append(l.calls, "fork:"+s.String()) }
func (l *recLabeler) SetEpisode(id uint64) { l.calls = append(l.calls, "episode") }
func (l *recLabeler) Clear()               { l.calls = append(l.calls, "clear") }

// TestActiveDrivesLabels pins the stage hook: entering a span labels
// its stage, ending it restores the parent's, a fork publishes its
// stage for workers, and Finish clears the label.
func TestActiveDrivesLabels(t *testing.T) {
	lab := &recLabeler{}
	a := Start(nil, lab, 1, time.Now())
	loc := a.Begin(Root, StageLocate)
	ck := a.Begin(loc, StageCheck)
	a.Scope(ck).Fork(StageExpire, 2)
	a.End(ck, 0)
	a.End(loc, 0)
	a.SetEpisode(3)
	a.Finish()
	want := []string{"stage:tick", "stage:locate", "stage:check", "fork:expire",
		"stage:locate", "stage:tick", "episode", "clear"}
	if strings.Join(lab.calls, " ") != strings.Join(want, " ") {
		t.Fatalf("label calls = %v, want %v", lab.calls, want)
	}
}

// TestActiveReuseAllocatesNothing pins the steady-state cost of the
// spine: a reused Active builds a timed tick tree, forks included,
// without allocating; a tracer adds one exact-size copy per tick, which
// later ticks do not disturb. An untimed Active hands out no fork
// timer, so its fan-outs run as plain par.Do.
func TestActiveReuseAllocatesNothing(t *testing.T) {
	tick := uint64(0)
	run := func(a *Active) func() {
		return func() {
			tick++
			a.Start(tick, time.Now())
			pre := a.Begin(Root, StagePreprocess)
			f := a.Scope(pre).Fork(StageClassify, 4)
			par.DoTimed(1, 4, f.Timer(), func(int) {}) // inline: par's goroutines are par's cost
			a.End(pre, 4)
			a.Finish()
		}
	}
	for _, c := range []struct {
		tr   *Tracer
		want float64
	}{{nil, 0}, {NewTracer(2), 1}} {
		step := run(NewActive(c.tr, nil, true))
		step() // grow the span slice and the fork pool
		if n := testing.AllocsPerRun(100, step); n != c.want {
			t.Fatalf("tracer %v: reused Active allocates %v times per tick, want %v", c.tr != nil, n, c.want)
		}
	}
	tracer := NewTracer(2)
	a := NewActive(tracer, nil, true)
	run(a)()
	a.Start(tick+1, time.Now())
	a.Begin(Root, StageSOP)
	if last := tracer.Last(1)[0]; last.Tick != tick || len(last.Spans) != 6 || last.Spans[1].Stage != StagePreprocess {
		t.Fatalf("ring trace changed under the reused Active: %+v", last)
	}
	lab := NewActive(nil, &recLabeler{}, false)
	lab.Start(1, time.Now())
	if f := lab.Scope(Root).Fork(StageExpire, 2); f == nil || f.Timer() != nil {
		t.Fatal("untimed Active: Fork must publish the stage but hand out no timer")
	}
}

func TestStageNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		if n := s.String(); n == "" || seen[n] {
			t.Fatalf("stage %d name %q empty or duplicate", s, n)
		}
		seen[s.String()] = true
	}
	if NumStages.String() != "unknown" {
		t.Fatalf("out-of-range stage = %q", NumStages.String())
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTracer(4)
	now := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
	a := Start(tr, nil, 7, now)
	pre := a.Begin(Root, StagePreprocess)
	cls := a.Scope(pre).Begin(StageClassify)
	a.End(cls, 100)
	a.End(pre, 42)
	loc := a.Begin(Root, StageLocate)
	a.End(loc, 5)
	fin := a.Finish()
	if fin == nil {
		t.Fatal("Finish returned nil")
	}
	if fin.Tick != 7 || !fin.Time.Equal(now) {
		t.Errorf("trace header = tick %d time %v", fin.Tick, fin.Time)
	}
	if len(fin.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (tick, preprocess, classify, locate)", len(fin.Spans))
	}
	if fin.Spans[0].Name != "tick" || fin.Spans[0].Parent != -1 {
		t.Errorf("root span = %+v", fin.Spans[0])
	}
	if fin.Spans[1].Name != "preprocess" || fin.Spans[1].Parent != 0 {
		t.Errorf("preprocess span = %+v", fin.Spans[1])
	}
	if fin.Spans[2].Name != "classify" || fin.Spans[2].Parent != 1 {
		t.Errorf("classify span must parent the preprocess span: %+v", fin.Spans[2])
	}
	if fin.Spans[2].Items != 100 {
		t.Errorf("classify items = %d, want 100", fin.Spans[2].Items)
	}
	if fin.Spans[0].Dur != fin.Dur || fin.Dur <= 0 {
		t.Errorf("root dur %v vs trace dur %v", fin.Spans[0].Dur, fin.Dur)
	}
}

func TestForkRecordsShardSpansUnderPar(t *testing.T) {
	tr := NewTracer(4)
	a := Start(tr, nil, 1, time.Now())
	st := a.Begin(Root, StageEvaluate)
	const n = 16
	f := a.Scope(st).Fork(StageRefineScore, n)
	par.DoTimed(4, n, f.Timer(), func(i int) {
		time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
	})
	a.End(st, n)
	fin := a.Finish()
	shards := 0
	for _, sp := range fin.Spans {
		if sp.Name != "refine_score" {
			continue
		}
		shards++
		if sp.Shard < 0 || sp.Shard >= n {
			t.Errorf("bad shard id %d", sp.Shard)
		}
		if sp.Dur <= 0 {
			t.Errorf("shard %d has zero duration", sp.Shard)
		}
		if sp.Wait < 0 {
			t.Errorf("shard %d negative queue wait %v", sp.Shard, sp.Wait)
		}
		if sp.Parent != 1 {
			t.Errorf("shard %d parent = %d, want 1 (evaluate)", sp.Shard, sp.Parent)
		}
	}
	if shards != n {
		t.Fatalf("recorded %d shard spans, want %d", shards, n)
	}
}

func TestRingEvictionAndSlowest(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		a := Start(tr, nil, uint64(i), time.Now())
		if i == 2 {
			time.Sleep(2 * time.Millisecond) // the slow tick
		}
		a.Finish()
	}
	if got := tr.TickCount(); got != 5 {
		t.Fatalf("TickCount = %d, want 5", got)
	}
	last := tr.Last(0)
	if len(last) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(last))
	}
	if last[0].Tick != 3 || last[1].Tick != 4 {
		t.Errorf("ring ticks = %d,%d, want 3,4", last[0].Tick, last[1].Tick)
	}
	slow, ok := tr.Slowest()
	if !ok || slow.Tick != 2 {
		t.Errorf("Slowest = tick %d ok=%v, want tick 2 (survives eviction)", slow.Tick, ok)
	}
	if one := tr.Last(1); len(one) != 1 || one[0].Tick != 4 {
		t.Errorf("Last(1) = %+v, want just tick 4", one)
	}
}

func TestStageStatsAggregate(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		a := Start(tr, nil, uint64(i), time.Now())
		r := a.Begin(Root, StagePreprocess)
		a.End(r, 10)
		a.Finish()
	}
	stats := tr.StageStats()
	byName := map[string]StageStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["tick"].Count != 3 || byName["preprocess"].Count != 3 {
		t.Errorf("stage counts = %+v", byName)
	}
	if byName["tick"].Total < byName["preprocess"].Total {
		t.Errorf("tick total %v < preprocess total %v", byName["tick"].Total, byName["preprocess"].Total)
	}
	if stats[0].Name != "tick" {
		t.Errorf("stats not sorted by total desc: first = %q", stats[0].Name)
	}
	if byName["preprocess"].Mean() == 0 && byName["preprocess"].Total > 0 {
		t.Error("Mean() = 0 for non-empty stage")
	}
}

func TestTraceJSONAndRender(t *testing.T) {
	tr := NewTracer(4)
	a := Start(tr, nil, 9, time.Now())
	st := a.Begin(Root, StageLocate)
	f := a.Scope(st).Fork(StageAddBatchFan, 8)
	par.DoTimed(2, 8, f.Timer(), func(i int) {})
	a.End(st, 12)
	fin := a.Finish()

	raw, err := json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(fin.Spans) || back.Tick != 9 {
		t.Errorf("JSON round trip lost spans: %d vs %d", len(back.Spans), len(fin.Spans))
	}

	out := fin.Render()
	for _, want := range []string{"tick 9", "locate", "addbatch", "×8 shards", "skew"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	table := RenderStageStats(tr.StageStats())
	if !strings.Contains(table, "locate") || !strings.Contains(table, "mean") {
		t.Errorf("stage table malformed:\n%s", table)
	}
}

func TestConcurrentFinishAndRead(t *testing.T) {
	// The tracer is read by HTTP handlers while the engine loop finishes
	// ticks; this must be race-clean (run under -race in CI).
	tr := NewTracer(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			a := Start(tr, nil, uint64(i), time.Now())
			r := a.Begin(Root, StageSOP)
			a.End(r, i)
			a.Finish()
		}
	}()
	for i := 0; i < 50; i++ {
		tr.Last(4)
		tr.Slowest()
		tr.StageStats()
		tr.TickCount()
	}
	<-done
}
