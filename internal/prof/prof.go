// Package prof is SkyNet's continuous runtime profiler: pprof label
// plumbing that attributes CPU samples to pipeline stages, a windowed
// background collector that turns those samples into skynet_prof_*
// telemetry and a retention-bounded on-disk archive, and a
// runtime/metrics sampler that feeds Go-runtime health (GC pauses, heap,
// scheduler latency) into the telemetry registry and tick-indexed TSDB.
//
// Label taxonomy (DESIGN.md §11): the `stage` label is the span.Stage
// of the span open on the goroutine — the labeler has no vocabulary of
// its own. Worker goroutines of a span fork additionally carry a
// `shard` label with their worker index; and while a flood episode is
// open every stage context also carries an `episode` label with the
// episode ID, so a CPU profile captured mid-flood can be sliced to
// exactly the work that flood caused.
//
// The labeler is the span.Labeler the engine hands to each tick's span
// tree, so labels follow span boundaries with no call sites of their
// own. It is built for the tick hot path: every label context is
// precomputed (rebuilt only on the rare episode open/close), so a stage
// boundary is one atomic store plus one pprof.SetGoroutineLabels call —
// no allocation, no map construction. Worker goroutines inherit the
// spawning goroutine's label set automatically; a par spawn hook refines
// them with the published fork stage and the worker's shard index.
package prof

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"skynet/internal/par"
	"skynet/internal/span"
)

// Label keys attached to profiled goroutines.
const (
	LabelStage   = "stage"
	LabelShard   = "shard"
	LabelEpisode = "episode"
)

// stageCtx is one stage's precomputed label contexts: the stage context
// for the orchestrating goroutine and one shard-refined context per
// worker slot.
type stageCtx struct {
	ctx    context.Context
	shards []context.Context
}

// active publishes the stage whose workers the next par fan-out spawns
// (the open span's stage, or a fork's) so the par spawn hook can label
// freshly spawned workers with it and their shard. Package-global
// because par's hook is: the engine runs one profiled pipeline at a time
// (the labeler's documented contract).
var active atomic.Pointer[stageCtx]

var hookOnce sync.Once

// labelWorker is the par spawn hook: stamp the worker goroutine with the
// published stage's shard-refined label context.
func labelWorker(worker int) {
	sc := active.Load()
	if sc == nil {
		return
	}
	if worker >= 0 && worker < len(sc.shards) {
		pprof.SetGoroutineLabels(sc.shards[worker])
		return
	}
	pprof.SetGoroutineLabels(sc.ctx)
}

// Labeler owns the precomputed pprof label contexts for one engine's
// pipeline, one per span.Stage. It implements span.Labeler; all methods
// are called from the engine goroutine only, and at most one labeler
// should be active per process (the par spawn hook and the `active`
// publication point are package-global).
//
// Every method is nil-receiver safe.
type Labeler struct {
	maxShards int
	episode   uint64
	base      context.Context
	stages    [span.NumStages]stageCtx
}

// NewLabeler builds a labeler with shard contexts for worker indexes
// [0, maxShards) — pass the widest fan-out the engine runs (max of
// workers, preprocess shards, locator shards). It installs the par spawn
// hook on first use.
func NewLabeler(maxShards int) *Labeler {
	if maxShards < 1 {
		maxShards = 1
	}
	l := &Labeler{maxShards: maxShards}
	l.rebuild()
	hookOnce.Do(func() { par.SetSpawnHook(labelWorker) })
	return l
}

// rebuild recomputes every label context. Called at construction and on
// episode transitions only — WithLabels allocates, so none of this runs
// per tick.
func (l *Labeler) rebuild() {
	base := context.Background()
	if l.episode != 0 {
		base = pprof.WithLabels(base,
			pprof.Labels(LabelEpisode, strconv.FormatUint(l.episode, 10)))
	}
	l.base = base
	for s := span.Stage(0); s < span.NumStages; s++ {
		ctx := pprof.WithLabels(base, pprof.Labels(LabelStage, s.String()))
		shards := make([]context.Context, l.maxShards)
		for w := range shards {
			shards[w] = pprof.WithLabels(ctx, pprof.Labels(LabelShard, strconv.Itoa(w)))
		}
		l.stages[s] = stageCtx{ctx: ctx, shards: shards}
	}
}

// SetEpisode tags (id != 0) or untags (id == 0) every label context with
// a flood episode. Engine goroutine only; costs a context rebuild, which
// is fine at flood open/close frequency.
func (l *Labeler) SetEpisode(id uint64) {
	if l == nil || l.episode == id {
		return
	}
	l.episode = id
	l.rebuild()
}

// SetStage labels the calling goroutine (and, via the spawn hook, any
// worker goroutines it forks) as running stage s.
func (l *Labeler) SetStage(s span.Stage) {
	if l == nil {
		return
	}
	sc := &l.stages[s]
	active.Store(sc)
	pprof.SetGoroutineLabels(sc.ctx)
}

// SetFork publishes stage s for the workers the next par fan-out spawns,
// leaving the calling goroutine's labels unchanged.
func (l *Labeler) SetFork(s span.Stage) {
	if l == nil {
		return
	}
	active.Store(&l.stages[s])
}

// Clear restores the base (episode-only) label set on the calling
// goroutine and withdraws the published stage.
func (l *Labeler) Clear() {
	if l == nil {
		return
	}
	active.Store(nil)
	pprof.SetGoroutineLabels(l.base)
}
