package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"skynet/internal/span"
	"skynet/internal/topology"
)

// genBytes renders ticks 1..n of a closed-loop generator.
func genBytes(g replayGen, n int) []byte {
	var out []byte
	now := simEpoch
	for tick := 1; tick <= n; tick++ {
		now = now.Add(time.Second)
		out, _ = g.lines(tick, now, out, nil)
	}
	return out
}

func TestGeneratorsAreSeeded(t *testing.T) {
	prod := topology.MustGenerate(topology.ProductionConfig())
	small := topology.MustGenerate(topology.SmallConfig())
	gens := map[string]func(seed int64) []byte{
		"flood":  func(s int64) []byte { return genBytes(newFloodGen(prod, s), 3) },
		"sprawl": func(s int64) []byte { return genBytes(newSprawlGen(prod, s), 200) },
		"live": func(s int64) []byte {
			g := newLiveGen(small, s)
			var out []byte
			for i := 0; i < 5000; i++ {
				out = g.next(out, simEpoch.Add(time.Duration(i)*50*time.Microsecond))
			}
			return out
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 {
			t.Fatalf("%s: generated nothing", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two runs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// TestSprawlMoves pins the round-robin placement: hotspot k mod n moves
// at tick k·moveEvery, and a tick's placements do not depend on which
// ticks were generated before it.
func TestSprawlMoves(t *testing.T) {
	prod := topology.MustGenerate(topology.ProductionConfig())
	g := newSprawlGen(prod, 3)
	for _, c := range []struct{ h, tick, epoch, since int }{
		{1, 2, 0, 1}, {1, 3, 1, 3}, {2, 5, 0, 1}, {2, 6, 1, 6}, {0, 191, 0, 1}, {0, 192, 1, 192},
		{1, 194, 1, 3}, {1, 195, 2, 195},
	} {
		if e, s := g.placement(c.h, c.tick); e != c.epoch || s != c.since {
			t.Errorf("placement(%d, tick %d) = epoch %d since %d, want %d since %d", c.h, c.tick, e, s, c.epoch, c.since)
		}
	}
	late := newSprawlGen(prod, 3)
	now := simEpoch.Add(500 * time.Second)
	a, _ := g.lines(500, now, nil, nil)
	b, _ := late.lines(500, now, nil, nil)
	if !bytes.Equal(a, b) {
		t.Error("tick 500 differs depending on the ticks generated before it")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: the helper must sort
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 50, 10, true},  // rank 10, 10 beyond
		{19, 50, 0, false},  // rank 10, 9 beyond
		{100, 90, 90, true}, // rank 90, 10 beyond
		{99, 90, 0, false},  // rank 90, 9 beyond
		{1000, 99, 990, true},
		{999, 99, 0, false},
		{0, 50, 0, false},
	} {
		got, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g, ok=%v", c.p, c.n, got, err, c.want, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	// tick 0..100ms
	//   preprocess 10..60: two overlapping classify shards 12..20 and
	//   15..30, a sweep 40..50, and a grandchild inside the sweep that
	//   must not count twice.
	tr := span.Trace{Dur: 100 * ms, Spans: []span.Span{
		{Name: "tick", Parent: -1, Dur: 100 * ms},
		{Name: "preprocess", Parent: 0, Start: 10 * ms, Dur: 50 * ms},
		{Name: "classify", Parent: 1, Shard: 0, Start: 12 * ms, Dur: 8 * ms},
		{Name: "classify", Parent: 1, Shard: 1, Start: 15 * ms, Dur: 15 * ms},
		{Name: "sweep", Parent: 1, Shard: -1, Start: 40 * ms, Dur: 10 * ms},
		{Name: "inner", Parent: 4, Shard: -1, Start: 41 * ms, Dur: 5 * ms},
		{Name: "locate", Parent: 0, Start: 60 * ms, Dur: 30 * ms},
	}}
	if got, want := selfTime(&tr, 1), 50*ms-18*ms-10*ms; got != want {
		t.Errorf("preprocess self = %v, want %v", got, want)
	}
	if got, want := childCover(&tr, 1, "classify"), 18*ms; got != want {
		t.Errorf("classify cover = %v, want %v (overlapping shards count once)", got, want)
	}
	if got, want := selfTime(&tr, 0), 100*ms-80*ms; got != want {
		t.Errorf("tick self = %v, want %v", got, want)
	}
	st := readStages(&tr)
	if st.preprocess != 50*ms || st.classify != 18*ms || st.sweep != 10*ms || st.locate != 30*ms {
		t.Errorf("readStages = %+v", st)
	}
	if st.roots() != 80*ms {
		t.Errorf("roots = %v, want 80ms", st.roots())
	}
}

func TestFeedRebuild(t *testing.T) {
	f := newFeedState()
	frames := []string{
		"id: 3\nevent: snapshot\ndata: {\"tick\":1,\"incidents\":[{\"id\":0,\"root\":\"A|B|C\",\"severity\":0.5}]}\n\n",
		"id: 4\nevent: incident\ndata: {\"type\":\"created\"}\n\n",
		"id: 5\nevent: delta\ndata: {\"tick\":2,\"opened\":[{\"id\":1,\"root\":\"A|B\",\"severity\":0.75}]}\n\n",
		"id: 6\nevent: delta\ndata: {\"tick\":4,\"from_tick\":3,\"opened\":[{\"id\":2,\"root\":\"A|D\",\"severity\":0.1}],\"updated\":[{\"id\":1,\"root\":\"A|B\",\"severity\":0.8}],\"closed\":[{\"id\":2,\"root\":\"A|D\"}]}\n\n",
	}
	for i, fr := range frames {
		f.observeSeq(0, uint64(i+3))
		if err := f.apply([]byte(fr)); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.incidents) != 2 || f.incidents[0] != 5000 || f.incidents[1] != 8000 {
		t.Errorf("rebuilt feed %v, want #0 at 5000 and #1 at 8000", f.incidents)
	}
	from, to, ok := deltaTicks([]byte(frames[3]))
	if !ok || from != 3 || to != 4 {
		t.Errorf("deltaTicks = %d..%d %v, want 3..4", from, to, ok)
	}
	f.observeSeq(0, 5)
	if !strings.Contains(f.seqErr, "seq 5") {
		t.Errorf("a backwards seq was not caught: %q", f.seqErr)
	}
}

func TestCompareRefusesOtherShapes(t *testing.T) {
	dir := t.TempDir()
	base := report{Shape: shape{Workload: "flood", GOMAXPROCS: 2, Workers: 2, Params: map[string]any{"alerts_per_tick": 10000.0}},
		Metrics: map[string]metricValue{"tick_p50_ms": {Value: 50, Unit: "ms"}}}
	other := base
	other.Shape.GOMAXPROCS = 1
	other.Seed = 2
	write := func(name string, r report) string {
		p := dir + "/" + name
		if err := writeReport(p, &r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", base), write("b.json", base), write("c.json", other)
	var out strings.Builder
	if err := compareReports(&out, a, b); err != nil || !strings.Contains(out.String(), "1.000") {
		t.Errorf("same shape: %v\n%s", err, out.String())
	}
	if err := compareReports(&out, a, c); err == nil {
		t.Error("reports from GOMAXPROCS 2 and 1 were compared")
	}
}
