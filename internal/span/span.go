// Package span is SkyNet's stage-level tracing layer: a low-overhead
// span tree recorded per engine tick, in the spirit of Dapper-style
// distributed tracers scaled down to one process. Where the telemetry
// registry answers "how long do ticks take on average", spans answer
// "where did THIS tick's time go" — every pipeline stage (preprocess,
// locate, evaluate, sop) and every parallel shard fan-out inside them
// becomes a timed node in a tree the operator can read back.
//
// Design constraints, in order:
//
//  1. Zero overhead when off. Instrumentation sites hold a nil *Active
//     or a zero Scope; every method is nil-safe and returns immediately,
//     so the uninstrumented pipeline takes one predictable branch per
//     site and no clock reads.
//  2. Race-free under the par fan-out. Shard spans are pre-allocated by
//     the owning goroutine before the fork; each worker writes only its
//     own slot (see Fork), so recording needs no locks on the hot path.
//  3. Bounded memory. Finished traces land in a fixed-size ring; the
//     slowest trace seen and per-stage aggregates are retained across
//     ring evictions so `skynet-replay -spans` can render the worst
//     tick of an arbitrarily long run.
//
// The span tree is the pipeline's single instrumentation spine. Every
// stage boundary is one Begin/End (or Fork) on the tick's Active, named
// by one Stage from the table below; everything else is a read-out of
// that one call: the tracer's ring and stage stats, the per-stage and
// per-span histograms the engine derives from the finished tree, and
// the pprof `stage` label, which the Active sets through its Labeler as
// spans open and close.
//
// The Tracer is the retention side (ring, slowest, stage stats); Active
// is the single-tick builder the engine drives; Scope threads a (trace,
// parent) pair into pipeline stages so their internal phases appear as
// children; Fork carries a span group through par.DoTimed so parallel
// shards appear as child spans with shard ids and queue-wait times.
package span

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage names one node of the pipeline's stage taxonomy. Its name is
// the span name, the pprof `stage` label value, and the suffix of the
// skynet_span_<name>_seconds histogram.
type Stage uint8

// The stage taxonomy, in tree order. Fork stages (parallel shard
// groups) are marked; every other stage is a serial span.
const (
	StageTick        Stage = iota // root: one engine tick
	StagePreprocess               // tick › preprocess
	StageClassify                 // preprocess › classify (fork)
	StageConsolidate              // preprocess › consolidate (fork)
	StageSweep                    // preprocess › sweep
	StageLocate                   // tick › locate
	StageAddBatch                 // locate › addbatch
	StageAddBatchFan              // addbatch › addbatch_fan (fork)
	StageCheck                    // locate › check
	StageExpire                   // check › expire (fork)
	StageComponents               // check › components
	StageCompCount                // check › compcount (fork)
	StageEvaluate                 // tick › evaluate
	StageRefineScore              // evaluate › refine_score (fork)
	StageSOP                      // tick › sop
	NumStages
)

var stageNames = [NumStages]string{
	"tick", "preprocess", "classify", "consolidate", "sweep",
	"locate", "addbatch", "addbatch_fan", "check", "expire", "components", "compcount",
	"evaluate", "refine_score", "sop",
}

// String returns the stage's name.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Labeler is the profiling side of the stage hook: an Active calls it
// at every stage boundary so CPU samples carry the stage of the span
// open when they were taken. prof.Labeler implements it.
type Labeler interface {
	// SetStage labels the calling goroutine with stage s and publishes
	// s for workers spawned under it.
	SetStage(s Stage)
	// SetFork publishes s for the workers of the fan-out about to
	// start; each worker adds its shard label. The caller's own label
	// is unchanged.
	SetFork(s Stage)
	// SetEpisode tags every stage label with a flood episode (0 clears).
	SetEpisode(id uint64)
	// Clear drops the stage label from the calling goroutine.
	Clear()
}

// Region identifies one span within an Active trace. The zero value is
// the root; None marks "no span" (returned by no-op calls when tracing
// is disabled).
type Region int32

// Root is the region of the tick's root span.
const Root Region = 0

// None is the invalid region returned by disabled instrumentation.
const None Region = -1

// Span is one timed region of a pipeline tick. Offsets are nanoseconds
// from the owning Trace's Start so a dumped ring stays meaningful
// without absolute clocks.
type Span struct {
	// Name is Stage's name ("preprocess", "classify", ...).
	Name string `json:"name"`
	// Stage is the span's node in the stage taxonomy.
	Stage Stage `json:"-"`
	// Shard is the task index within a parallel fork, or -1 for serial
	// spans. For forks that mix task kinds (the locator's incident+shard
	// fan-out) it is the raw task id; the fork's name says how to read it.
	Shard int `json:"shard"`
	// Parent is the index of the parent span in Trace.Spans (-1 for the
	// root).
	Parent int32 `json:"parent"`
	// Start is the offset from Trace.Start when the span began.
	Start time.Duration `json:"start_ns"`
	// Dur is the span's wall time.
	Dur time.Duration `json:"duration_ns"`
	// Wait, for fork shards, is how long the task sat queued between the
	// fork opening and a worker picking it up.
	Wait time.Duration `json:"wait_ns,omitempty"`
	// Items counts the units the span processed (alerts, incidents,
	// components...), when the instrumentation site reports one.
	Items int `json:"items,omitempty"`
}

// Trace is the finished span tree of one pipeline tick.
type Trace struct {
	// Tick is the engine's tick counter.
	Tick uint64 `json:"tick"`
	// Episode is the flood episode the tick belonged to (0 outside any
	// flood) — the join key between traces, metrics, and flood reports.
	Episode uint64 `json:"episode,omitempty"`
	// Time is the pipeline time of the tick (simulated under replay).
	Time time.Time `json:"time"`
	// Start is the wall-clock instant the tick began.
	Start time.Time `json:"start"`
	// Dur is the root span's wall time.
	Dur time.Duration `json:"duration_ns"`
	// Spans holds the tree in creation order; Spans[0] is the root.
	Spans []Span `json:"spans"`
}

// StageStat aggregates every span of one name across finished traces.
type StageStat struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Mean returns the average span duration (0 when empty).
func (s StageStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// DefaultRingCap is the default number of recent tick traces retained —
// at the daemon's 10 s tick this is ~10 minutes of history, and it is
// what a flight-recorder dump preserves.
const DefaultRingCap = 64

// Tracer retains finished traces: a fixed ring of the most recent ones,
// the slowest trace ever finished, and per-stage aggregates. Safe for
// concurrent use; recording into an Active trace is lock-free and the
// lock is taken once per finished tick.
type Tracer struct {
	mu      sync.Mutex
	ring    []Trace
	start   int
	n       int
	slowest Trace
	hasSlow bool
	stages  map[string]*StageStat
	total   int64
}

// NewTracer creates a tracer retaining the last ringCap traces
// (DefaultRingCap when ringCap <= 0).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Tracer{ring: make([]Trace, ringCap), stages: make(map[string]*StageStat)}
}

// NewActive returns a span-tree builder that serves every tick of one
// pipeline. tr, when non-nil, retains each finished trace in its ring;
// lab, when non-nil, follows the tree with pprof stage labels. timed
// says whether anything reads the finished tree's durations (a tracer
// always does); an untimed Active reads no clock and its forks time no
// tasks, so a labeler-only tree costs just its label switches.
// Instrumentation sites hold a possibly-nil *Active: every method is a
// no-op on nil.
func NewActive(tr *Tracer, lab Labeler, timed bool) *Active {
	return &Active{tr: tr, lab: lab, timed: timed || tr != nil}
}

// Start is NewActive(tr, lab, true) with its first tick started.
func Start(tr *Tracer, lab Labeler, tick uint64, now time.Time) *Active {
	a := NewActive(tr, lab, true)
	a.Start(tick, now)
	return a
}

// Start opens the span tree for one tick, reusing the span and fork
// storage of the previous one, so a steady-state tick allocates nothing.
// The previous tick must be finished, and the trace its Finish returned
// is overwritten.
func (a *Active) Start(tick uint64, now time.Time) {
	a.t = Trace{Tick: tick, Time: now, Spans: a.t.Spans[:0]}
	if a.timed {
		a.t.Start = time.Now()
	}
	a.t.Spans = append(a.t.Spans, Span{Name: StageTick.String(), Stage: StageTick, Shard: -1, Parent: -1})
	a.nfork = 0
	if a.lab != nil {
		a.lab.SetStage(StageTick)
	}
}

// since is the offset from the tick's start, or 0 when untimed.
func (a *Active) since() time.Duration {
	if !a.timed {
		return 0
	}
	return time.Since(a.t.Start)
}

// TickCount reports how many traces have been finished over the
// tracer's lifetime (not just those still in the ring).
func (t *Tracer) TickCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Last returns up to n of the most recent finished traces, oldest
// first. The traces are deep-copied; callers own them.
func (t *Tracer) Last(n int) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]Trace, 0, n)
	for i := t.n - n; i < t.n; i++ {
		out = append(out, copyTrace(t.ring[(t.start+i)%len(t.ring)]))
	}
	return out
}

// Slowest returns the trace with the largest root duration ever
// finished, surviving ring eviction. ok is false before the first
// Finish.
func (t *Tracer) Slowest() (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasSlow {
		return Trace{}, false
	}
	return copyTrace(t.slowest), true
}

// StageStats returns the per-name span aggregates, largest total time
// first (name as tiebreaker, so the order is deterministic).
func (t *Tracer) StageStats() []StageStat {
	t.mu.Lock()
	out := make([]StageStat, 0, len(t.stages))
	for _, s := range t.stages {
		out = append(out, *s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// finish retires one completed trace into the ring and the aggregates.
// tr's spans belong to the Active, which reuses them next tick, so the
// ring keeps an exact-size copy; the slowest trace shares it (ring slots
// are replaced on eviction, never written in place).
func (t *Tracer) finish(tr *Trace) {
	cp := copyTrace(*tr)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if t.n == len(t.ring) {
		t.start = (t.start + 1) % len(t.ring)
		t.n--
	}
	t.ring[(t.start+t.n)%len(t.ring)] = cp
	t.n++
	if !t.hasSlow || cp.Dur > t.slowest.Dur {
		t.slowest = cp
		t.hasSlow = true
	}
	for i := range cp.Spans {
		sp := &cp.Spans[i]
		st, ok := t.stages[sp.Name]
		if !ok {
			st = &StageStat{Name: sp.Name}
			t.stages[sp.Name] = st
		}
		st.Count++
		st.Total += sp.Dur
		if sp.Dur > st.Max {
			st.Max = sp.Dur
		}
	}
}

func copyTrace(tr Trace) Trace {
	cp := tr
	cp.Spans = make([]Span, len(tr.Spans))
	copy(cp.Spans, tr.Spans)
	return cp
}

// Active is the span tree of the tick in flight. All methods are
// nil-safe; Begin/End/Fork must be called from the tick's owner
// goroutine (shard slots inside a Fork are written by workers, but the
// slice itself only grows between forks).
type Active struct {
	tr    *Tracer
	lab   Labeler
	timed bool
	t     Trace
	forks []*Fork // fork groups, reused across ticks; the first nfork are this tick's
	nfork int
}

// Begin opens a child span of stage s under parent and returns its
// region. The calling goroutine runs under s's pprof label until End.
func (a *Active) Begin(parent Region, s Stage) Region {
	if a == nil {
		return None
	}
	r := Region(len(a.t.Spans))
	a.t.Spans = append(a.t.Spans, Span{
		Name:   s.String(),
		Stage:  s,
		Shard:  -1,
		Parent: int32(parent),
		Start:  a.since(),
	})
	if a.lab != nil {
		a.lab.SetStage(s)
	}
	return r
}

// End seals a span opened by Begin, recording its duration and item
// count, and restores the parent stage's pprof label. Ending None is a
// no-op.
func (a *Active) End(r Region, items int) {
	if a == nil || r <= Root || int(r) >= len(a.t.Spans) {
		return
	}
	sp := &a.t.Spans[r]
	sp.Dur = a.since() - sp.Start
	sp.Items = items
	if a.lab != nil {
		a.lab.SetStage(a.t.Spans[sp.Parent].Stage)
	}
}

// SetEpisode tags the in-flight trace and the pprof labels with a
// flood episode ID (0 for none).
func (a *Active) SetEpisode(id uint64) {
	if a == nil {
		return
	}
	a.t.Episode = id
	if a.lab != nil {
		a.lab.SetEpisode(id)
	}
}

// Scope packages this trace with a parent region for handing to a
// pipeline stage. A nil Active yields the inert zero Scope.
func (a *Active) Scope(parent Region) Scope {
	if a == nil {
		return Scope{}
	}
	return Scope{a: a, parent: parent}
}

// Finish seals the root span, clears the stage label, retires the
// trace into the tracer (when one is attached), and returns the
// finished trace (nil on a nil Active). The trace is valid until the
// Active's next Start.
func (a *Active) Finish() *Trace {
	if a == nil {
		return nil
	}
	a.t.Dur = a.since()
	a.t.Spans[0].Dur = a.t.Dur
	if a.lab != nil {
		a.lab.Clear()
	}
	if a.tr != nil {
		a.tr.finish(&a.t)
	}
	return &a.t
}

// Scope is the span context a stage receives: new spans open under the
// stage's own span in the engine's tree. The zero Scope is inert — every
// method returns immediately — so stages hold one unconditionally.
type Scope struct {
	a      *Active
	parent Region
}

// Enabled reports whether the scope records anything.
func (s Scope) Enabled() bool { return s.a != nil }

// Begin opens a child span of stage st under the scope's parent.
func (s Scope) Begin(st Stage) Region {
	if s.a == nil {
		return None
	}
	return s.a.Begin(s.parent, st)
}

// End seals a span opened by this scope's Begin.
func (s Scope) End(r Region, items int) { s.a.End(r, items) }

// Fork pre-allocates n shard spans of stage st under the scope's
// parent, one per task of an imminent par fan-out, publishes st for the
// fan-out's worker goroutines' pprof labels, and returns the group.
// Returns nil when the scope is inert; Fork.Timer on a nil group (or on
// an untimed Active's) returns a nil callback, which par.DoTimed treats
// as plain par.Do — so the composed call site costs nothing when
// instrumentation is off. A fan-out that runs inline (one worker) stays
// under the enclosing span's label, matching the span tree's self time.
func (s Scope) Fork(st Stage, n int) *Fork {
	a := s.a
	if a == nil || n <= 0 {
		return nil
	}
	if a.nfork == len(a.forks) {
		f := &Fork{a: a}
		f.timer = f.record // bound once, so Timer does not allocate
		a.forks = append(a.forks, f)
	}
	f := a.forks[a.nfork]
	a.nfork++
	f.base, f.n, f.start = int32(len(a.t.Spans)), n, a.since()
	name := st.String()
	for i := 0; i < n; i++ {
		a.t.Spans = append(a.t.Spans, Span{
			Name:   name,
			Stage:  st,
			Shard:  i,
			Parent: int32(s.parent),
			Start:  f.start,
		})
	}
	if a.lab != nil {
		a.lab.SetFork(st)
	}
	return f
}

// Fork is a group of shard spans covering one parallel fan-out. Each
// task writes only its pre-allocated slot, so recording is race-free
// without locks.
type Fork struct {
	a     *Active
	base  int32
	n     int
	start time.Duration // fork-open offset, for queue-wait accounting
	timer func(i int, start time.Time, d time.Duration)
}

// Timer returns the per-task completion callback for par.DoTimed, or
// nil when the fork is disabled (nil receiver) or its tree is untimed.
func (f *Fork) Timer() func(i int, start time.Time, d time.Duration) {
	if f == nil || !f.a.timed {
		return nil
	}
	return f.timer
}

// record fills task i's span slot. Called concurrently by par workers;
// each i is distinct, so slots never race.
func (f *Fork) record(i int, start time.Time, d time.Duration) {
	if i < 0 || i >= f.n {
		return
	}
	sp := &f.a.t.Spans[f.base+int32(i)]
	sp.Start = start.Sub(f.a.t.Start)
	sp.Dur = d
	sp.Wait = sp.Start - f.start
	if sp.Wait < 0 {
		sp.Wait = 0
	}
}

// Render formats the trace as an indented tree for terminal output:
// each span's duration, share of the tick, and item count, with shard
// spans of one fork collapsed into a single summary line when they
// number more than a handful.
func (tr Trace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick %d @ %s — %s total, %d spans\n",
		tr.Tick, tr.Time.Format(time.TimeOnly), fmtDur(tr.Dur), len(tr.Spans))
	children := make(map[int32][]int32)
	for i := 1; i < len(tr.Spans); i++ {
		p := tr.Spans[i].Parent
		children[p] = append(children[p], int32(i))
	}
	var walk func(idx int32, depth int)
	walk = func(idx int32, depth int) {
		kids := children[idx]
		i := 0
		for i < len(kids) {
			sp := &tr.Spans[kids[i]]
			// Collapse a run of same-name shard siblings into one line.
			j := i
			for sp.Shard >= 0 && j+1 < len(kids) &&
				tr.Spans[kids[j+1]].Shard >= 0 && tr.Spans[kids[j+1]].Name == sp.Name {
				j++
			}
			indent := strings.Repeat("  ", depth+1)
			if j > i {
				group := kids[i : j+1]
				var minD, maxD, sumW time.Duration
				minD = tr.Spans[group[0]].Dur
				for _, k := range group {
					d := tr.Spans[k].Dur
					if d < minD {
						minD = d
					}
					if d > maxD {
						maxD = d
					}
					sumW += tr.Spans[k].Wait
				}
				fmt.Fprintf(&b, "%s%s ×%d shards  max %s  min %s  skew %s  queue-wait Σ%s\n",
					indent, sp.Name, len(group), fmtDur(maxD), fmtDur(minD),
					fmtDur(maxD-minD), fmtDur(sumW))
			} else {
				fmt.Fprintf(&b, "%s%s  %s", indent, sp.Name, fmtDur(sp.Dur))
				if tr.Dur > 0 {
					fmt.Fprintf(&b, "  (%.1f%%)", 100*float64(sp.Dur)/float64(tr.Dur))
				}
				if sp.Items > 0 {
					fmt.Fprintf(&b, "  items=%d", sp.Items)
				}
				if sp.Shard >= 0 {
					fmt.Fprintf(&b, "  shard=%d", sp.Shard)
				}
				b.WriteByte('\n')
				walk(kids[i], depth+1)
			}
			i = j + 1
		}
	}
	walk(0, 0)
	return b.String()
}

// RenderStageStats formats per-stage aggregates as an aligned table.
func RenderStageStats(stats []StageStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %8s %10s %10s %12s\n", "span", "count", "mean", "max", "total")
	for _, s := range stats {
		fmt.Fprintf(&b, "  %-16s %8d %10s %10s %12s\n",
			s.Name, s.Count, fmtDur(s.Mean()), fmtDur(s.Max), fmtDur(s.Total))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
