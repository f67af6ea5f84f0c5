package core

import (
	"skynet/internal/prof"
)

// EnableProfiling attaches pprof stage labels to the pipeline: the
// labeler follows each tick's span tree, so every stage runs under its
// span name as the `stage` label, fork workers add their `shard`, and an
// open flood adds its `episode`. CPU, mutex, and block profiles then
// attribute their samples to pipeline stages. Call before the first
// Tick; one labeler per process (it owns the par spawn hook).
func (e *Engine) EnableProfiling(l *prof.Labeler) {
	if l != nil {
		e.labels = l
		e.act = nil
	}
}

// MaxShards reports the widest fan-out any stage runs — the shard-label
// capacity a prof.Labeler for this engine needs.
func (e *Engine) MaxShards() int {
	n := e.workers
	if s := e.pre.Workers(); s > n {
		n = s
	}
	if s := e.loc.Workers(); s > n {
		n = s
	}
	return n
}

// EnableRuntimeMetrics attaches a runtime/metrics sampler: each Tick
// refreshes the skynet_runtime_ gauges (GC pauses, heap, goroutines,
// scheduler latency) right before the history sample is cut. The series
// are host-dependent and therefore excluded from deterministic replay
// snapshots by tsdb.DeterministicFilter.
func (e *Engine) EnableRuntimeMetrics(r *prof.Runtime) {
	e.rtm = r
}
