// Package slo evaluates multi-window burn-rate rules over the telemetry
// history store — the Google-SRE alerting shape, applied to SkyNet
// itself. Each rule names a stored series, a violation predicate, and an
// error budget; every engine tick the rule's violating-tick fraction is
// measured over a fast and a slow window, normalized by the budget into
// a burn rate, and the rule fires only when BOTH windows exceed their
// thresholds — the fast window for reaction time, the slow one to
// suppress one-tick blips.
//
// This is SkyNet's one watchdog. The flight recorder judges nothing
// itself: it dumps evidence on burn events (its slo_burn trigger) and
// reports health as degraded exactly while a rule fires, and the core
// engine's self-monitoring loop converts burns into synthetic
// meta/skynetd alerts injected through SkyNet's own ingest path.
//
// Like the store it reads, the engine is deterministic: burn state is a
// pure function of the tick-indexed series, so replay tests compare the
// exact event sequence across worker counts.
package slo

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/telemetry"
	"skynet/internal/tsdb"
)

// Defaults for Rule fields left zero.
const (
	DefaultBudget     = 0.01 // 1% of ticks may violate
	DefaultFastWindow = 12
	DefaultSlowWindow = 96
	DefaultFastBurn   = 14.4 // SRE canon for the fast page window
	DefaultSlowBurn   = 6
)

// DefaultGCPauseTarget is the gc_pause rule's objective: the worst GC
// stop-the-world pause between two ticks. Go's collector targets
// sub-millisecond pauses, so sustained 50ms pauses mean severe heap
// pressure — the regime where tick latency becomes GC-bound.
const DefaultGCPauseTarget = 50 * time.Millisecond

// Rule is one burn-rate alerting rule over a stored series.
type Rule struct {
	// Name identifies the rule; it becomes the third segment of the
	// meta/skynetd self-alert location, so it must avoid the hierarchy
	// separator.
	Name string `json:"name"`
	// Metric is the series read from the store each tick.
	Metric string `json:"metric"`
	// Help documents the rule on /api/slo.
	Help string `json:"help,omitempty"`
	// Delta evaluates the per-tick increase of the series instead of its
	// level — the shape for cumulative counters (shed, drops).
	Delta bool `json:"delta,omitempty"`
	// Below inverts the predicate: a tick violates when the value drops
	// below Target (conservation residuals) instead of exceeding it.
	Below bool `json:"below,omitempty"`
	// Target is the per-tick objective the value is compared against.
	Target float64 `json:"target"`
	// Budget is the tolerated violating-tick fraction (default 1%).
	Budget float64 `json:"budget"`
	// FastWindow and SlowWindow are the two lookback windows, in ticks.
	// Until a window has seen that many ticks it is padded with
	// non-violating samples, so rules never fire spuriously at startup.
	FastWindow int `json:"fast_window"`
	SlowWindow int `json:"slow_window"`
	// FastBurn and SlowBurn are the burn-rate thresholds; the rule fires
	// while both windows are at or above theirs.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

func (r Rule) withDefaults() Rule {
	if r.Budget <= 0 {
		r.Budget = DefaultBudget
	}
	if r.FastWindow <= 0 {
		r.FastWindow = DefaultFastWindow
	}
	if r.SlowWindow <= 0 {
		r.SlowWindow = DefaultSlowWindow
	}
	if r.SlowWindow < r.FastWindow {
		r.SlowWindow = r.FastWindow
	}
	if r.FastBurn <= 0 {
		r.FastBurn = DefaultFastBurn
	}
	if r.SlowBurn <= 0 {
		r.SlowBurn = DefaultSlowBurn
	}
	return r
}

// DefaultRules is the production self-SLO set. tickP99 is the per-tick
// latency objective (the old -slo-tick-p99 flag's meaning, now the
// target of a burn-rate rule rather than a single-window trigger).
func DefaultRules(tickP99 time.Duration) []Rule {
	return []Rule{
		{
			Name:   "tick-latency",
			Metric: tsdb.MetricTickDuration,
			Help:   "Engine tick wall latency must stay under the objective.",
			Target: tickP99.Seconds(),
		},
		{
			Name:   "ingest-shed",
			Metric: "skynet_ingest_rejected_queue_full_total",
			Help:   "Ingest queues must not shed alerts.",
			Delta:  true,
			Target: 0,
		},
		{
			Name:   "journal-drop",
			Metric: "skynet_journal_events_evicted_total",
			Help:   "The lifecycle journal must not evict unread events.",
			Delta:  true,
			Target: 0,
		},
		{
			// The runtime sampler publishes the worst GC pause between
			// ticks; sustained pauses past the objective mean the
			// pipeline's latency budget is being spent in the collector,
			// not the alert stream. The series is host-dependent and
			// filtered out of deterministic replays, where a missing
			// series never violates — replay burn-event logs are
			// unaffected by this rule.
			Name:   "gc_pause",
			Metric: "skynet_runtime_gc_pause_max_seconds",
			Help:   "Worst GC pause between ticks must stay under the runtime objective.",
			Target: DefaultGCPauseTarget.Seconds(),
		},
		{
			// Queue high water: the dispatch queue at or above 90% of its
			// capacity is one step from shedding. The tight windows of
			// lineage-conservation make a single tick at high water fire
			// at once; the target is the largest float below 0.9 so the
			// strict "value > target" predicate means load >= 90%.
			Name:       "ingest-queue-high",
			Metric:     "skynet_ingest_queue_load",
			Help:       "The ingest dispatch queue must stay below 90% of its capacity.",
			Target:     math.Nextafter(0.9, 0),
			Budget:     0.005,
			FastWindow: 4,
			SlowWindow: 32,
			FastBurn:   50,
			SlowBurn:   6,
		},
		{
			// Conservation must never go negative; tight windows make a
			// single violating tick fire immediately.
			Name:       "lineage-conservation",
			Metric:     "skynet_lineage_in_flight",
			Help:       "Provenance conservation residual must stay non-negative.",
			Below:      true,
			Target:     0,
			Budget:     0.005,
			FastWindow: 4,
			SlowWindow: 32,
			FastBurn:   50,
			SlowBurn:   6,
		},
	}
}

// ruleState is one rule's sliding-window memory. Owned by the engine
// goroutine; the published copy lives in Engine.status.
type ruleState struct {
	rule     Rule
	ring     []uint8 // violation bits over the slow window
	n        uint64  // ticks observed
	fastSum  int
	slowSum  int
	prev     float64 // previous raw value (Delta rules)
	hasPrev  bool
	firing   bool
	lastVal  float64
	lastFast float64
	lastSlow float64
	tail     []float64 // scratch for store reads
}

// RuleStatus is the /api/slo view of one rule.
type RuleStatus struct {
	Rule     Rule    `json:"rule"`
	Value    float64 `json:"value"` // last evaluated value (delta for Delta rules)
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Firing   bool    `json:"firing"`
	// Ticks is how many ticks the rule has observed.
	Ticks uint64 `json:"ticks"`
}

// Event is one burn-state edge (fire or resolve).
type Event struct {
	Tick     uint64  `json:"tick"`
	Rule     string  `json:"rule"`
	Firing   bool    `json:"firing"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Detail   string  `json:"detail"`
}

// Verdict is the per-tick evaluation result handed to the self-monitor.
type Verdict struct {
	Rule     *Rule
	Firing   bool
	Started  bool // rising edge this tick
	Stopped  bool // falling edge this tick
	FastBurn float64
	SlowBurn float64
}

// maxEvents bounds the in-memory event log.
const maxEvents = 1024

// Engine evaluates a rule set once per tick. Evaluate runs on the core
// engine's goroutine; Status/Events serve HTTP readers through a mutex-
// guarded published copy.
type Engine struct {
	db    *tsdb.DB
	rules []*ruleState
	vbuf  []Verdict

	mu     sync.Mutex
	status []RuleStatus
	events []Event

	eventsTotal atomic.Int64
	firingNow   atomic.Int64

	notify func(Event)
}

// New builds an engine over the store. Rules with empty Name or Metric
// are dropped.
func New(db *tsdb.DB, rules []Rule) *Engine {
	e := &Engine{db: db}
	for _, r := range rules {
		if r.Name == "" || r.Metric == "" {
			continue
		}
		r = r.withDefaults()
		e.rules = append(e.rules, &ruleState{rule: r, ring: make([]uint8, r.SlowWindow)})
	}
	e.status = make([]RuleStatus, len(e.rules))
	for i, rs := range e.rules {
		e.status[i] = RuleStatus{Rule: rs.rule}
	}
	e.vbuf = make([]Verdict, 0, len(e.rules))
	return e
}

// Rules returns the resolved rule set, in evaluation order.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	for i, rs := range e.rules {
		out[i] = rs.rule
	}
	return out
}

// SetNotify installs a burn-event callback, invoked from Evaluate on the
// engine goroutine.
func (e *Engine) SetNotify(fn func(Event)) { e.notify = fn }

// Evaluate advances every rule to the given tick and returns the
// verdicts. The returned slice is reused across calls; callers must not
// retain it.
func (e *Engine) Evaluate(tick uint64) []Verdict {
	verdicts := e.vbuf[:0]
	var pending []Event
	for _, rs := range e.rules {
		v := e.evalRule(rs)
		verdicts = append(verdicts, v)
		if v.Started || v.Stopped {
			verb := "resolved"
			if v.Firing {
				verb = "firing"
			}
			pending = append(pending, Event{
				Tick:     tick,
				Rule:     rs.rule.Name,
				Firing:   v.Firing,
				FastBurn: v.FastBurn,
				SlowBurn: v.SlowBurn,
				Detail: fmt.Sprintf("slo %s %s: fast burn %.2f (>=%.2f over %d ticks), slow burn %.2f (>=%.2f over %d ticks)",
					rs.rule.Name, verb, v.FastBurn, rs.rule.FastBurn, rs.rule.FastWindow,
					v.SlowBurn, rs.rule.SlowBurn, rs.rule.SlowWindow),
			})
		}
	}
	e.vbuf = verdicts
	e.publish(pending)
	return verdicts
}

func (e *Engine) evalRule(rs *ruleState) Verdict {
	r := &rs.rule
	rs.tail, _ = e.db.Tail(r.Metric, 1, rs.tail[:0])
	ok := len(rs.tail) > 0
	var raw, val float64
	if ok {
		raw = rs.tail[0]
		val = raw
		if r.Delta {
			if rs.hasPrev {
				val = raw - rs.prev
			} else {
				val = 0
			}
		}
		rs.prev = raw
		rs.hasPrev = true
	}
	violates := uint8(0)
	if ok {
		if r.Below {
			if val < r.Target {
				violates = 1
			}
		} else if val > r.Target {
			violates = 1
		}
	}
	// Slide the slow-window ring. The slot being overwritten holds the
	// bit departing the slow window; the bit departing the fast window
	// sits FastWindow slots back. Both are read before the overwrite, so
	// the arithmetic is exact even when the windows coincide.
	w := len(rs.ring)
	idx := int(rs.n % uint64(w))
	fastIdx := (idx + w - r.FastWindow) % w
	rs.slowSum += int(violates) - int(rs.ring[idx])
	rs.fastSum += int(violates) - int(rs.ring[fastIdx])
	rs.ring[idx] = violates
	rs.n++

	fastBurn := float64(rs.fastSum) / float64(r.FastWindow) / r.Budget
	slowBurn := float64(rs.slowSum) / float64(r.SlowWindow) / r.Budget
	firing := fastBurn >= r.FastBurn && slowBurn >= r.SlowBurn
	v := Verdict{
		Rule:     r,
		Firing:   firing,
		Started:  firing && !rs.firing,
		Stopped:  !firing && rs.firing,
		FastBurn: fastBurn,
		SlowBurn: slowBurn,
	}
	rs.firing = firing
	rs.lastVal = val
	rs.lastFast, rs.lastSlow = fastBurn, slowBurn
	return v
}

// publish copies the per-rule state behind the mutex and emits events.
func (e *Engine) publish(pending []Event) {
	firing := int64(0)
	e.mu.Lock()
	for i, rs := range e.rules {
		e.status[i] = RuleStatus{
			Rule:     rs.rule,
			Value:    rs.lastVal,
			FastBurn: rs.lastFast,
			SlowBurn: rs.lastSlow,
			Firing:   rs.firing,
			Ticks:    rs.n,
		}
		if rs.firing {
			firing++
		}
	}
	for _, ev := range pending {
		e.events = append(e.events, ev)
		if len(e.events) > maxEvents {
			e.events = e.events[len(e.events)-maxEvents:]
		}
	}
	e.mu.Unlock()
	e.firingNow.Store(firing)
	for _, ev := range pending {
		e.eventsTotal.Add(1)
		if e.notify != nil {
			e.notify(ev)
		}
	}
}

// Status returns the published per-rule state, rule order preserved.
func (e *Engine) Status() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, len(e.status))
	copy(out, e.status)
	return out
}

// Events returns a copy of the burn-event log (bounded to the newest
// 1024 events).
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// EventCount reports burn-state edges since start. Lock-free.
func (e *Engine) EventCount() int64 { return e.eventsTotal.Load() }

// FiringCount reports how many rules are currently firing. Lock-free.
func (e *Engine) FiringCount() int64 { return e.firingNow.Load() }

// RegisterMetrics publishes burn-state gauges. Callbacks read atomics
// only, so the history sampler may sample them while holding the store
// lock.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("skynet_slo_burn_events_total",
		"SLO burn-state edges (fire + resolve) since start.",
		func() float64 { return float64(e.eventsTotal.Load()) })
	reg.GaugeFunc("skynet_slo_rules_firing",
		"SLO rules currently in the firing state.",
		func() float64 { return float64(e.firingNow.Load()) })
}
