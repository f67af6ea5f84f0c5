package core

import (
	"fmt"
	"time"

	"skynet/internal/incident"
	"skynet/internal/locator"
	"skynet/internal/preprocess"
	"skynet/internal/telemetry"
)

// journalSeverityDelta is how far an incident's severity must move before
// a "scored" event is journaled. Severity grows every tick through the
// ΔT term of Eq. 2, so journaling every change would flood the ring.
const journalSeverityDelta = 1.0

// pipelineMetrics holds the engine's pre-resolved metric handles so the
// hot path never touches the registry's lock.
type pipelineMetrics struct {
	rawIngested      *telemetry.Counter
	structured       *telemetry.Counter
	ticks            *telemetry.Counter
	incidentsCreated *telemetry.Counter
	sopExecutions    *telemetry.Counter

	tickSeconds *telemetry.Histogram

	activeIncidents *telemetry.Gauge
	closedIncidents *telemetry.Gauge
	structuredLast  *telemetry.Gauge

	// Incremental-evaluator and shard telemetry (PR: sharded pipeline).
	evalRescored *telemetry.Counter
	evalSkipped  *telemetry.Counter
	workers      *telemetry.Gauge
	prePending   *telemetry.Gauge

	// Per-shard gauges, indexed by shard; set serially at the end of
	// Tick so scrapes never race the worker goroutines.
	preShardAggs   []*telemetry.Gauge
	preShardRouted []*telemetry.Gauge
	locShardNodes  []*telemetry.Gauge
}

func newPipelineMetrics(reg *telemetry.Registry) *pipelineMetrics {
	lb := telemetry.LatencyBuckets()
	return &pipelineMetrics{
		rawIngested: reg.Counter("skynet_raw_alerts_total",
			"Raw alerts ingested into the preprocessor."),
		structured: reg.Counter("skynet_structured_alerts_total",
			"Structured alerts emitted by the preprocessor into the locator."),
		ticks: reg.Counter("skynet_ticks_total",
			"Pipeline ticks executed."),
		incidentsCreated: reg.Counter("skynet_incidents_created_total",
			"Incident trees generated (Algorithm 2)."),
		sopExecutions: reg.Counter("skynet_sop_executions_total",
			"Automatic SOP mitigations applied."),
		tickSeconds: reg.Histogram("skynet_tick_seconds",
			"Wall time of one full pipeline tick.", lb),
		activeIncidents: reg.Gauge("skynet_active_incidents",
			"Currently open incidents."),
		closedIncidents: reg.Gauge("skynet_closed_incidents",
			"Incidents closed over the engine's lifetime."),
		structuredLast: reg.Gauge("skynet_structured_last_tick",
			"Structured alerts produced by the most recent tick."),
		evalRescored: reg.Counter("skynet_eval_rescored_total",
			"Incidents re-refined and re-scored (dirty inputs)."),
		evalSkipped: reg.Counter("skynet_eval_skipped_total",
			"Incidents whose Refine+Score was skipped (inputs unchanged)."),
		workers: reg.Gauge("skynet_pipeline_workers",
			"Resolved worker fan-out of the parallel pipeline stages."),
		prePending: reg.Gauge("skynet_preprocess_pending_depth",
			"Raw alerts queued for the preprocessor at the start of the last tick."),
	}
}

// initShardMetrics registers the per-shard gauges once the shard counts
// are known (they depend on the resolved worker setting).
func (m *pipelineMetrics) initShardMetrics(reg *telemetry.Registry, preShards, locShards int) {
	m.preShardAggs = make([]*telemetry.Gauge, preShards)
	m.preShardRouted = make([]*telemetry.Gauge, preShards)
	for i := range m.preShardAggs {
		m.preShardAggs[i] = reg.Gauge(
			fmt.Sprintf("skynet_preprocess_shard_%d_aggregates", i),
			"Live aggregation groups owned by one preprocessor shard.")
		m.preShardRouted[i] = reg.Gauge(
			fmt.Sprintf("skynet_preprocess_shard_%d_routed", i),
			"Alerts routed to one preprocessor shard during the last tick.")
	}
	m.locShardNodes = make([]*telemetry.Gauge, locShards)
	for i := range m.locShardNodes {
		m.locShardNodes[i] = reg.Gauge(
			fmt.Sprintf("skynet_locator_shard_%d_nodes", i),
			"Live main-alert-tree nodes owned by one locator shard.")
	}
}

// observeShards publishes the per-shard occupancy gauges. Called serially
// at the end of Tick, after every parallel phase has joined.
func (m *pipelineMetrics) observeShards(pre *preprocess.Preprocessor, loc *locator.Locator) {
	for i, g := range m.preShardAggs {
		g.SetInt(pre.ShardAggregates(i))
	}
	for i, g := range m.preShardRouted {
		g.SetInt(pre.ShardRouted(i))
	}
	for i, g := range m.locShardNodes {
		g.SetInt(loc.ShardNodes(i))
	}
}

// incidentState is the journal differ's last-known view of one incident.
type incidentState struct {
	alerts   int
	severity float64
	zoomed   string
	updated  time.Time
}

// EnableTelemetry attaches a metrics registry and/or a lifecycle journal
// to the engine. Either argument may be nil. With a registry every Tick
// records its span tree, and the per-stage and per-span histograms are
// read off the finished tree. Call before the first Tick; with neither
// attached the pipeline runs exactly as before (no clock reads, no
// atomic traffic).
func (e *Engine) EnableTelemetry(reg *telemetry.Registry, j *telemetry.Journal) {
	if reg != nil {
		e.reg = reg
		e.tel = newPipelineMetrics(reg)
		e.tel.workers.SetInt(e.workers)
		e.tel.initShardMetrics(reg, e.pre.Workers(), e.loc.Workers())
		e.spanTel = newSpanMetrics(reg)
		e.act = nil
	}
	if j != nil {
		e.journal = j
		e.lastState = make(map[int]incidentState)
	}
}

// Journal returns the attached lifecycle journal (nil when disabled).
func (e *Engine) Journal() *telemetry.Journal { return e.journal }

// snapshotState captures the differ's view of an incident.
func snapshotState(in *incident.Incident) incidentState {
	return incidentState{
		alerts:   in.AlertCount(),
		severity: in.Severity,
		zoomed:   in.Zoomed.String(),
		updated:  in.UpdateTime,
	}
}

func lifecycleEvent(now time.Time, typ telemetry.EventType, in *incident.Incident, st incidentState) telemetry.Event {
	ev := telemetry.Event{
		Time:      now,
		Type:      typ,
		Incident:  in.ID,
		Root:      in.Root.String(),
		Severity:  st.severity,
		Alerts:    st.alerts,
		Locations: in.LocationCount(),
	}
	if !in.Zoomed.IsRoot() && in.Zoomed != in.Root {
		ev.Zoomed = st.zoomed
	}
	return ev
}

// observeLifecycle diffs the incident population against the last tick
// and appends created/updated/zoomed/scored/closed events to the journal.
// created is this tick's new incidents; active is the current open set.
func (e *Engine) observeLifecycle(now time.Time, created, active []*incident.Incident) {
	isNew := make(map[int]bool, len(created))
	for _, in := range created {
		isNew[in.ID] = true
		st := snapshotState(in)
		e.journal.Append(lifecycleEvent(now, telemetry.EventCreated, in, st))
		e.lastState[in.ID] = st
		// Incidents absorbed into this one (Algorithm 2, lines 7-9) left
		// the active set without closing; their history continues here.
		for _, id := range in.MergedFrom {
			delete(e.lastState, id)
		}
	}
	for _, in := range active {
		if isNew[in.ID] {
			continue
		}
		prev, known := e.lastState[in.ID]
		st := snapshotState(in)
		if !known {
			// Engine attached mid-flight: adopt without fabricating a
			// created event at the wrong time.
			e.lastState[in.ID] = st
			continue
		}
		if st.zoomed != prev.zoomed {
			e.journal.Append(lifecycleEvent(now, telemetry.EventZoomed, in, st))
		}
		if diff := st.severity - prev.severity; diff >= journalSeverityDelta || diff <= -journalSeverityDelta {
			e.journal.Append(lifecycleEvent(now, telemetry.EventScored, in, st))
		} else if st.alerts != prev.alerts || !st.updated.Equal(prev.updated) {
			e.journal.Append(lifecycleEvent(now, telemetry.EventUpdated, in, st))
		}
		if st != prev {
			e.lastState[in.ID] = st
		}
	}
	for _, in := range e.loc.ClosedSince(e.closedSeen) {
		st := snapshotState(in)
		e.journal.Append(lifecycleEvent(now, telemetry.EventClosed, in, st))
		delete(e.lastState, in.ID)
	}
	e.closedSeen = e.loc.ClosedCount()
}
