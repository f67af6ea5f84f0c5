// Package core wires SkyNet's three modules — preprocessor, locator,
// evaluator — into the streaming analysis engine of Figure 5a, together
// with location zoom-in and the automatic-SOP hook for known failures.
//
// The engine is clock-driven: Ingest accepts raw alerts from any source
// (monitor fleets, network listeners, trace replays) and Tick advances the
// pipeline, returning what changed. All times are explicit; the engine
// never reads the wall clock, which makes replays and simulations exact.
//
// # Parallel execution
//
// Config.Workers fans the heavy stages out across goroutines: FT-tree
// classification and aggregation shards in the preprocessor, the
// location-sharded main alert tree in the locator, and per-incident
// zoom-in plus severity scoring in the evaluation stage. Every parallel
// phase writes only single-owner state and merges serially, so incident
// sets, IDs, and severities are bit-identical for every worker count —
// replays stay exact. Scoring is additionally incremental: an incident is
// only re-refined and re-scored when its content revision, the
// reachability samples, or the Eq. 2 time clamp could have changed its
// result.
package core

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"skynet/internal/alert"
	"skynet/internal/evaluator"
	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/ftree"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/locator"
	"skynet/internal/par"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/sop"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
	"skynet/internal/zoomin"
)

// evalStatePruneInterval is how many ticks pass between sweeps of the
// incremental evaluator's per-incident state map (entries for incidents
// that left the active set — closed or absorbed — are dropped).
const evalStatePruneInterval = 64

// Config aggregates the per-module configurations.
type Config struct {
	Preprocess preprocess.Config
	Locator    locator.Config
	Evaluator  evaluator.Config
	Zoom       zoomin.Config
	// EnableSOP turns on automatic mitigation of known failures.
	EnableSOP bool
	// Workers bounds the goroutine fan-out of every parallel stage.
	// 0 means GOMAXPROCS, 1 runs the whole pipeline serially. It is
	// copied into Preprocess.Workers and Locator.Workers unless those
	// are set explicitly. Output is identical for every setting.
	Workers int
}

// DefaultConfig returns the production parameters of every module.
func DefaultConfig() Config {
	return Config{
		Preprocess: preprocess.DefaultConfig(),
		Locator:    locator.DefaultConfig(),
		Evaluator:  evaluator.DefaultConfig(),
		Zoom:       zoomin.DefaultConfig(),
		EnableSOP:  true,
	}
}

// TickResult reports what one pipeline tick produced.
type TickResult struct {
	// Structured is the number of preprocessed alerts that entered the
	// locator this tick.
	Structured int
	// NewIncidents are incidents created this tick, already zoomed and
	// scored.
	NewIncidents []*incident.Incident
	// SOPExecutions are automatic mitigations applied this tick.
	SOPExecutions []*sop.Execution
}

// evalState is the incremental evaluator's memory of the inputs the last
// Refine+Score of one incident saw.
type evalState struct {
	rev  uint64    // incident content revision
	gen  uint64    // reachability-sample generation
	now  time.Time // evaluation time of the last scoring
	seen uint64    // last tick the incident was active (for pruning)
}

// Engine is the SkyNet pipeline. Not safe for concurrent use; callers
// serialize Ingest/Tick (the ingest layer does this). Tick internally
// fans out to Config.Workers goroutines.
type Engine struct {
	cfg     Config
	topo    *topology.Topology
	workers int

	pre     *preprocess.Preprocessor
	loc     *locator.Locator
	eval    *evaluator.Evaluator
	refiner *zoomin.Refiner
	sopEng  *sop.Engine

	samples   []zoomin.Sample
	sampleGen uint64

	evalStates map[int]evalState
	evalDirty  []*incident.Incident
	activeBuf  []*incident.Incident
	tickCount  uint64

	rawIn int

	// Telemetry is optional; all fields below are nil/zero until
	// EnableTelemetry, and the pipeline takes no telemetry branches then.
	tel        *pipelineMetrics
	reg        *telemetry.Registry
	journal    *telemetry.Journal
	lastState  map[int]incidentState
	closedSeen int

	// The tick's span tree is the instrumentation spine: it is built
	// whenever one of its read-outs is attached — the tracer's ring
	// (EnableTracing), the stage and span histograms (spanTel, with a
	// registry), or the pprof stage labels (EnableProfiling). act is
	// the builder, reused every tick (see spanTree).
	tracer  *span.Tracer
	spanTel *spanMetrics
	labels  span.Labeler
	act     *span.Active

	// Provenance is optional; nil until EnableProvenance.
	prov    *provenance.Recorder
	provBds []evaluator.Breakdown

	// Flood detection is optional; nil until EnableFlood.
	flood           *flood.Recorder
	floodClosedSeen int

	// Telemetry history + self-SLO are optional; nil until EnableHistory
	// and EnableSLO. latModel, when set, replaces the measured tick
	// latency with a deterministic function of the tick index.
	hist        *tsdb.Sampler
	sloEng      *slo.Engine
	sloLocs     []hierarchy.Path
	selfMon     bool
	selfAlertsN atomic.Int64
	latModel    func(tick uint64) time.Duration

	// Runtime sampling is optional; nil until EnableRuntimeMetrics.
	rtm *prof.Runtime

	// Fan-out serving is optional; nil until EnableFanout. The tick's
	// snapshot and delta documents are built directly into hub-pooled
	// scratch (AcquireDelta/AcquireSnapshot) and ownership transfers on
	// publish; only the seen set is engine-owned.
	fan           *fanout.Hub
	fanSeen       map[int]struct{}
	fanClosedSeen int
}

// NewEngine assembles a pipeline. classifier may be nil (raw syslog is
// then dropped); topo may be nil (connectivity scoping and SOP disabled);
// sopExec may be nil (SOP disabled).
func NewEngine(cfg Config, topo *topology.Topology, classifier *ftree.Classifier, sopExec sop.Executor, sopUtil sop.TrafficOracle) *Engine {
	if cfg.Workers != 0 {
		if cfg.Preprocess.Workers == 0 {
			cfg.Preprocess.Workers = cfg.Workers
		}
		if cfg.Locator.Workers == 0 {
			cfg.Locator.Workers = cfg.Workers
		}
	}
	e := &Engine{
		cfg:        cfg,
		topo:       topo,
		workers:    par.Workers(cfg.Workers),
		pre:        preprocess.New(cfg.Preprocess, topo, classifier),
		loc:        locator.New(cfg.Locator, topo),
		eval:       evaluator.New(cfg.Evaluator, topo),
		refiner:    zoomin.NewRefiner(cfg.Zoom),
		evalStates: make(map[int]evalState),
	}
	if cfg.EnableSOP && topo != nil && sopExec != nil {
		e.sopEng = sop.NewEngine(topo, sopExec, sopUtil)
	}
	return e
}

// Workers reports the resolved evaluation-stage fan-out width.
func (e *Engine) Workers() int { return e.workers }

// PreprocessShards reports the preprocessor's resolved shard count.
func (e *Engine) PreprocessShards() int { return e.pre.Workers() }

// LocatorShards reports the locator's resolved shard count.
func (e *Engine) LocatorShards() int { return e.loc.Workers() }

// Ingest feeds one raw alert into the preprocessor.
func (e *Engine) Ingest(a alert.Alert) {
	e.rawIn++
	if e.tel != nil {
		e.tel.rawIngested.Inc()
	}
	if e.flood != nil {
		e.flood.ObserveRaw(a)
	}
	e.pre.Add(a)
}

// IngestBatch feeds a columnar batch of raw alerts into the preprocessor
// in one call — the bulk twin of Ingest, avoiding a per-alert struct copy
// through the call chain. The batch is consumed by value into the
// preprocessor's pending columns; the caller may Reset and refill it
// immediately.
func (e *Engine) IngestBatch(b *alert.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	e.rawIn += n
	if e.tel != nil {
		e.tel.rawIngested.Add(int64(n))
	}
	if e.flood != nil {
		var a alert.Alert
		for i := 0; i < n; i++ {
			b.AlertAt(i, &a)
			e.flood.ObserveRaw(a)
		}
	}
	e.pre.AddBatch(b)
}

// SetReachability installs the latest end-to-end ping observations used by
// location zoom-in's reachability matrix. Installing an identical sample
// set is free; a changed set marks every active incident for re-refining.
func (e *Engine) SetReachability(samples []zoomin.Sample) {
	if !slices.Equal(samples, e.samples) {
		e.sampleGen++
	}
	e.samples = samples
}

// Tick advances the pipeline to now: flushes the preprocessor into the
// locator, runs incident generation and expiry, refines and scores
// incidents, and applies automatic SOPs to new ones.
func (e *Engine) Tick(now time.Time) TickResult {
	var res TickResult
	e.tickCount++
	tel := e.tel
	var start time.Time
	if tel != nil || e.hist != nil {
		start = time.Now()
	}
	if tel != nil {
		tel.prePending.SetInt(e.pre.PendingDepth())
	}
	act := e.spanTree() // nil when no read-out of the span tree is attached
	if act != nil {
		act.Start(e.tickCount, now)
	}
	preR := act.Begin(span.Root, span.StagePreprocess)
	if act != nil {
		e.pre.SetSpans(act.Scope(preR))
	}
	structured := e.pre.Tick(now)
	res.Structured = len(structured)
	act.End(preR, len(structured))
	locR := act.Begin(span.Root, span.StageLocate)
	abR := act.Begin(locR, span.StageAddBatch)
	if act != nil {
		e.loc.SetSpans(act.Scope(abR))
	}
	e.loc.AddBatch(structured)
	act.End(abR, len(structured))
	ckR := act.Begin(locR, span.StageCheck)
	if act != nil {
		e.loc.SetSpans(act.Scope(ckR))
	}
	res.NewIncidents = e.loc.Check(now)
	act.End(ckR, len(res.NewIncidents))
	act.End(locR, len(structured))
	// Refine and (re)score active incidents so severity escalates with
	// duration (Eq. 2's ΔT term). An incident is dirty — needs the full
	// Refine+Score — when its content changed (rev), the reachability
	// samples changed (gen), or the previous scoring clamped Eq. 2's
	// duration at the evaluation time (now < UpdateTime), so a later now
	// yields a different ΔT. Otherwise both are pure functions of
	// unchanged inputs and the stored Severity/Zoomed are already exact.
	active := e.loc.ActiveAppend(e.activeBuf[:0])
	e.activeBuf = active
	evR := act.Begin(span.Root, span.StageEvaluate)
	dirty := e.evalDirty[:0]
	for _, in := range active {
		st, ok := e.evalStates[in.ID]
		if !ok || st.rev != in.Rev() || st.gen != e.sampleGen || st.now.Before(in.UpdateTime) {
			dirty = append(dirty, in)
		}
	}
	rf := act.Scope(evR).Fork(span.StageRefineScore, len(dirty))
	if e.prov != nil {
		if cap(e.provBds) < len(dirty) {
			e.provBds = make([]evaluator.Breakdown, len(dirty))
		}
		bds := e.provBds[:len(dirty)]
		par.DoTimed(e.workers, len(dirty), rf.Timer(), func(i int) {
			in := dirty[i]
			e.refiner.Refine(in, e.samples)
			bds[i] = e.eval.Score(in, now)
		})
		e.recordScores(now, dirty, bds)
	} else {
		par.DoTimed(e.workers, len(dirty), rf.Timer(), func(i int) {
			in := dirty[i]
			e.refiner.Refine(in, e.samples)
			e.eval.Score(in, now)
		})
	}
	for _, in := range dirty {
		e.evalStates[in.ID] = evalState{rev: in.Rev(), gen: e.sampleGen, now: now, seen: e.tickCount}
	}
	e.evalDirty = dirty
	if e.tickCount%evalStatePruneInterval == 0 {
		e.pruneEvalStates(active)
	}
	act.End(evR, len(dirty))
	if tel != nil {
		tel.evalRescored.Add(int64(len(dirty)))
		tel.evalSkipped.Add(int64(len(active) - len(dirty)))
	}
	sopR := act.Begin(span.Root, span.StageSOP)
	if e.sopEng != nil {
		for _, in := range res.NewIncidents {
			if exec, ok := e.sopEng.Consider(in, now); ok {
				res.SOPExecutions = append(res.SOPExecutions, exec)
			}
		}
	}
	act.End(sopR, len(res.SOPExecutions))
	if tel != nil {
		tel.tickSeconds.Observe(time.Since(start).Seconds())
		tel.ticks.Inc()
		tel.structured.Add(int64(res.Structured))
		tel.structuredLast.SetInt(res.Structured)
		tel.incidentsCreated.Add(int64(len(res.NewIncidents)))
		tel.sopExecutions.Add(int64(len(res.SOPExecutions)))
		tel.activeIncidents.SetInt(e.loc.ActiveCount())
		tel.closedIncidents.SetInt(e.loc.ClosedCount())
		tel.observeShards(e.pre, e.loc)
	}
	if e.journal != nil {
		e.observeLifecycle(now, res.NewIncidents, active)
	}
	if e.flood != nil {
		e.observeFlood(now, structured, res.NewIncidents, active, act)
	}
	if tr := act.Finish(); tr != nil && e.spanTel != nil {
		e.spanTel.observe(tr)
	}
	// Runtime sampling refreshes the skynet_runtime_ gauges before the
	// history sample is cut, so each tick's history row carries the GC /
	// scheduler state as of that tick. Nil-safe no-op when disabled.
	e.rtm.Refresh()
	// History sampling runs last so this tick's counters, gauges, and
	// span aggregates are all final before the sample is cut. It may
	// inject self-alerts, which enter the preprocessor's pending buffer
	// for the NEXT tick — nothing this tick already computed moves.
	if e.hist != nil {
		e.observeHistory(now, start)
	}
	// Fan-out publish is the true tail of the tick: one snapshot + one
	// delta, encoded once, pushed into the serving hub's ring. Cost is
	// independent of the subscriber count.
	if e.fan != nil {
		e.observeFanout(now, &res, active)
	}
	return res
}

// pruneEvalStates drops incremental-evaluator state for incidents no
// longer active (closed, or absorbed into a larger incident).
func (e *Engine) pruneEvalStates(active []*incident.Incident) {
	for _, in := range active {
		st := e.evalStates[in.ID]
		st.seen = e.tickCount
		e.evalStates[in.ID] = st
	}
	for id, st := range e.evalStates {
		if st.seen != e.tickCount {
			delete(e.evalStates, id)
		}
	}
}

// Active returns the open incidents, oldest first. The slice is a fresh
// copy the caller owns; the incidents themselves are shared.
func (e *Engine) Active() []*incident.Incident { return e.loc.Active() }

// Closed returns timed-out incidents. The slice is a fresh copy the
// caller owns.
func (e *Engine) Closed() []*incident.Incident { return e.loc.Closed() }

// AllIncidents returns every incident the engine has produced, by ID. The
// returned slice is freshly allocated on every call — callers may sort,
// filter, or append to it without affecting the engine.
func (e *Engine) AllIncidents() []*incident.Incident {
	closed := e.loc.Closed()
	active := e.loc.Active()
	out := make([]*incident.Incident, 0, len(closed)+len(active))
	out = append(out, closed...)
	out = append(out, active...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Severe returns the active incidents clearing the severity filter,
// highest severity first — the ranked feed of §6.4.
func (e *Engine) Severe() []*incident.Incident {
	return e.eval.Filter(e.loc.Active())
}

// PreprocessStats exposes the preprocessor's volume counters.
func (e *Engine) PreprocessStats() preprocess.Stats { return e.pre.Stats() }

// RawIngested reports the number of raw alerts seen.
func (e *Engine) RawIngested() int { return e.rawIn }

// SOP exposes the SOP engine (nil when disabled).
func (e *Engine) SOP() *sop.Engine { return e.sopEng }

// Evaluator exposes the evaluator for ad-hoc scoring.
func (e *Engine) Evaluator() *evaluator.Evaluator { return e.eval }
