// Package par is the pipeline's tiny fan-out helper: a bounded,
// allocation-light parallel-for used by the sharded preprocessor, locator,
// and evaluator stages.
//
// Determinism contract: Do runs independent tasks on up to `workers`
// goroutines. Each task must write only to state it owns (its shard map,
// its incident, its slot of a pre-sized result slice); because no two
// tasks share mutable state and all merging happens serially after Do
// returns, results are identical for every worker count — including 1,
// where everything runs inline on the caller's goroutine with zero
// scheduling overhead.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a worker-count setting: n > 0 is used as given,
// anything else (the zero value of a config field) means "all cores",
// i.e. GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// spawnHook, when installed, runs first on every worker goroutine Do and
// DoWorkers spawn, with the worker's index in [0, workers). internal/prof
// installs it to stamp worker goroutines with their shard identity as a
// pprof label (the stage and episode labels are inherited from the
// spawning goroutine automatically). When unset the cost is one atomic
// load per fan-out, so the uninstrumented hot path is unchanged.
var spawnHook atomic.Pointer[func(worker int)]

// SetSpawnHook installs fn as the worker-goroutine spawn hook. It runs
// concurrently on every spawned worker and must be safe for that; nil
// uninstalls. Installation is expected once at setup time.
func SetSpawnHook(fn func(worker int)) {
	if fn == nil {
		spawnHook.Store(nil)
		return
	}
	spawnHook.Store(&fn)
}

// Do runs fn(i) for every i in [0, n), spread over at most `workers`
// goroutines, and returns when all calls have completed. Tasks are
// claimed from a shared counter so uneven task costs balance out. With
// workers <= 1 or n <= 1 the calls run inline, in order, on the caller's
// goroutine — the serial reference path the parallel one must match.
func Do(workers, n int, fn func(i int)) { DoTimed(workers, n, nil, fn) }

// DoWorkers is Do with the claiming worker's index passed alongside the
// task index — for fan-outs whose tasks share per-worker scratch buffers
// (the locator's type-counting epoch arrays). Worker indexes are in
// [0, workers); with workers <= 1 or n <= 1 every task runs inline, in
// order, as worker 0.
func DoWorkers(workers, n int, fn func(worker, task int)) { DoTimedWorkers(workers, n, nil, fn) }

// DoTimed is Do with per-task timing: after each task completes, done is
// called with the task index, the instant a worker picked it up, and how
// long it ran. done is invoked on the worker's goroutine, concurrently
// with other tasks' callbacks — callers pass callbacks that write only
// task-owned state (a span tracer's pre-allocated shard slots). A nil
// done is exactly Do: no clock reads, no extra work.
func DoTimed(workers, n int, done func(i int, start time.Time, d time.Duration), fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			runTimed(i, done, fn)
		}
		return
	}
	hook := spawnHook.Load()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			if hook != nil {
				(*hook)(worker)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runTimed(i, done, fn)
			}
		}(w)
	}
	wg.Wait()
}

// DoTimedWorkers is DoWorkers with DoTimed's per-task timing callback.
// A nil done is exactly DoWorkers.
func DoTimedWorkers(workers, n int, done func(i int, start time.Time, d time.Duration), fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			runTimedWorker(0, i, done, fn)
		}
		return
	}
	hook := spawnHook.Load()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			if hook != nil {
				(*hook)(worker)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runTimedWorker(worker, i, done, fn)
			}
		}(w)
	}
	wg.Wait()
}

// runTimed runs task i, reporting its timing to done when non-nil. The
// timing is inline in the worker loop rather than a wrapping closure, so
// a timed fan-out allocates no more than an untimed one.
func runTimed(i int, done func(int, time.Time, time.Duration), fn func(int)) {
	if done == nil {
		fn(i)
		return
	}
	start := time.Now()
	fn(i)
	done(i, start, time.Since(start))
}

// runTimedWorker is runTimed for DoTimedWorkers.
func runTimedWorker(worker, i int, done func(int, time.Time, time.Duration), fn func(int, int)) {
	if done == nil {
		fn(worker, i)
		return
	}
	start := time.Now()
	fn(worker, i)
	done(i, start, time.Since(start))
}
