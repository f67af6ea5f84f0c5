package core

import (
	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// spanMetrics derives the registry's stage and span histograms from each
// finished span tree: the skynet_stage_<name>_seconds histogram of every
// top-level stage, one skynet_span_<name>_seconds histogram per stage,
// plus fork-level shard-skew and queue-wait histograms. Span histograms
// register lazily, as their stage is first recorded; the per-stage
// handle table keeps the hot path off the registry lock after that.
type spanMetrics struct {
	reg    *telemetry.Registry
	stages [span.NumStages]*telemetry.Histogram // top-level stages only
	spans  [span.NumStages]*telemetry.Histogram
	skew   *telemetry.Histogram
	wait   *telemetry.Histogram
}

func newSpanMetrics(reg *telemetry.Registry) *spanMetrics {
	lb := telemetry.LatencyBuckets()
	m := &spanMetrics{
		reg: reg,
		skew: reg.Histogram("skynet_span_fork_skew_seconds",
			"Per-fork shard imbalance: slowest minus fastest shard of one parallel fan-out.", lb),
		wait: reg.Histogram("skynet_span_queue_wait_seconds",
			"Time a fan-out task waited between fork open and a worker picking it up.", lb),
	}
	for _, st := range []struct {
		stage span.Stage
		help  string
	}{
		{span.StagePreprocess, "Wall time of the preprocessor flush stage (§4.1)."},
		{span.StageLocate, "Wall time of locator add/check (Algorithms 1-3)."},
		{span.StageEvaluate, "Wall time of zoom-in refine plus severity scoring (Eq. 1-3)."},
		{span.StageSOP, "Wall time of the automatic-SOP stage (§5.1)."},
	} {
		m.stages[st.stage] = reg.Histogram("skynet_stage_"+st.stage.String()+"_seconds", st.help, lb)
	}
	return m
}

// hist returns the latency histogram for one stage, registering
// skynet_span_<name>_seconds on first use.
func (m *spanMetrics) hist(s span.Stage) *telemetry.Histogram {
	if h := m.spans[s]; h != nil {
		return h
	}
	name := s.String()
	h := m.reg.Histogram("skynet_span_"+name+"_seconds",
		"Wall time of one "+name+" span.", telemetry.LatencyBuckets())
	m.spans[s] = h
	return h
}

// observe feeds one finished trace into the histograms. Called serially
// at the end of Tick, off the parallel path. The root span is skipped —
// skynet_tick_seconds already covers it.
func (m *spanMetrics) observe(tr *span.Trace) {
	// Fork groups are runs of same-parent same-name shard spans; spans
	// are recorded fork-contiguously, so one linear pass finds them.
	groupStart := -1
	var groupMin, groupMax float64
	flush := func() {
		if groupStart >= 0 && groupMax > groupMin {
			m.skew.Observe(groupMax - groupMin)
		}
		groupStart = -1
	}
	for i := 1; i < len(tr.Spans); i++ {
		sp := &tr.Spans[i]
		secs := sp.Dur.Seconds()
		m.hist(sp.Stage).Observe(secs)
		if h := m.stages[sp.Stage]; h != nil {
			h.Observe(secs)
		}
		if sp.Shard < 0 {
			flush()
			continue
		}
		m.wait.Observe(sp.Wait.Seconds())
		prev := &tr.Spans[i-1]
		if groupStart < 0 || prev.Shard < 0 || prev.Name != sp.Name || prev.Parent != sp.Parent {
			flush()
			groupStart = i
			groupMin, groupMax = secs, secs
			continue
		}
		if secs < groupMin {
			groupMin = secs
		}
		if secs > groupMax {
			groupMax = secs
		}
	}
	flush()
}

// spanTree returns the engine's reusable span-tree builder, building it
// on first use, or nil when none of its read-outs is attached. The tree
// is timed only when a tracer or the histograms read its durations.
func (e *Engine) spanTree() *span.Active {
	if e.act == nil && (e.tracer != nil || e.spanTel != nil || e.labels != nil) {
		e.act = span.NewActive(e.tracer, e.labels, e.spanTel != nil)
	}
	return e.act
}

// EnableTracing attaches a span tracer to the engine: every Tick's span
// tree (stages, sub-phases, and parallel shard fan-outs) is retained in
// the tracer's ring. Call before the first Tick; with no tracer,
// registry, or labeler the pipeline takes a single nil-check per tick.
//
// Tracing never touches pipeline data: incident sets, IDs, and severity
// bits are bit-identical with and without it, at every worker count.
func (e *Engine) EnableTracing(tr *span.Tracer) {
	e.tracer = tr
	e.act = nil
}

// Tracer returns the attached span tracer (nil when disabled).
func (e *Engine) Tracer() *span.Tracer { return e.tracer }
