package slo

import (
	"strings"
	"testing"
	"time"

	"skynet/internal/tsdb"
)

// harness binds a store and a single-rule engine; feed appends one sample
// and evaluates the tick, returning the rule's verdict.
type harness struct {
	db  *tsdb.DB
	eng *Engine
}

func newHarness(rule Rule) *harness {
	db := tsdb.New(tsdb.Config{})
	return &harness{db: db, eng: New(db, []Rule{rule})}
}

func (h *harness) feed(t *testing.T, tick uint64, v float64) Verdict {
	t.Helper()
	h.db.Append(h.eng.Rules()[0].Metric, tick, v)
	return h.eng.Evaluate(tick)[0]
}

// TestBurnGatingNeedsBothWindows pins the multi-window shape: a one-tick
// blip saturates the fast window but not the slow one, so the rule stays
// quiet; a sustained violation fires; recovery resolves once the fast
// window drains.
func TestBurnGatingNeedsBothWindows(t *testing.T) {
	h := newHarness(Rule{Name: "lat", Metric: "m", Target: 1,
		Budget: 0.5, FastWindow: 2, SlowWindow: 4, FastBurn: 1, SlowBurn: 1})

	for tick := uint64(0); tick < 4; tick++ {
		if v := h.feed(t, tick, 0); v.Firing {
			t.Fatalf("benign tick %d fired", tick)
		}
	}
	// One violating tick: fast burn 1/2/0.5 = 1 meets its threshold, but
	// the slow window (1/4/0.5 = 0.5) suppresses the blip.
	v := h.feed(t, 4, 2)
	if v.Firing {
		t.Fatal("single violating tick fired despite the slow window")
	}
	if v.FastBurn != 1 || v.SlowBurn != 0.5 {
		t.Fatalf("blip burns fast=%g slow=%g, want 1 and 0.5", v.FastBurn, v.SlowBurn)
	}
	v = h.feed(t, 5, 2)
	if !v.Firing || !v.Started {
		t.Fatalf("sustained violation did not fire: %+v", v)
	}
	if h.eng.EventCount() != 1 || h.eng.FiringCount() != 1 {
		t.Fatalf("events=%d firing=%d after the rising edge", h.eng.EventCount(), h.eng.FiringCount())
	}
	v = h.feed(t, 6, 2)
	if !v.Firing || v.Started || v.Stopped {
		t.Fatalf("steady firing produced an edge: %+v", v)
	}
	// First clean tick: the fast window still holds one violation and the
	// slow window three, so the rule keeps firing...
	if v = h.feed(t, 7, 0); !v.Firing {
		t.Fatal("rule resolved before the fast window drained")
	}
	// ...and resolves once the fast window is clean.
	v = h.feed(t, 8, 0)
	if v.Firing || !v.Stopped {
		t.Fatalf("drained fast window did not resolve: %+v", v)
	}

	events := h.eng.Events()
	if len(events) != 2 || !events[0].Firing || events[1].Firing {
		t.Fatalf("event log %+v, want one fire then one resolve", events)
	}
	if !strings.Contains(events[1].Detail, "slo lat resolved") {
		t.Fatalf("resolve detail %q", events[1].Detail)
	}
	st := h.eng.Status()[0]
	if st.Firing || st.Ticks != 9 {
		t.Fatalf("status %+v after 9 ticks", st)
	}
	if h.eng.FiringCount() != 0 {
		t.Fatal("firing gauge stuck after resolve")
	}
}

// TestDeltaRules pins counter-shaped rules: the first sample establishes
// the baseline without violating, level plateaus are clean, and only a
// positive per-tick increase violates.
func TestDeltaRules(t *testing.T) {
	h := newHarness(Rule{Name: "shed", Metric: "c", Delta: true, Target: 0,
		Budget: 0.5, FastWindow: 2, SlowWindow: 2, FastBurn: 1, SlowBurn: 1})

	if v := h.feed(t, 0, 100); v.Firing || v.FastBurn != 0 {
		t.Fatalf("first sample of a cumulative counter violated: %+v", v)
	}
	if v := h.feed(t, 1, 100); v.Firing {
		t.Fatal("flat counter violated")
	}
	v := h.feed(t, 2, 103)
	if !v.Firing || !v.Started {
		t.Fatalf("counter increase did not fire: %+v", v)
	}
	if v = h.feed(t, 3, 103); !v.Firing {
		t.Fatal("resolved while the violation was still inside the windows")
	}
	v = h.feed(t, 4, 103)
	if v.Firing || !v.Stopped {
		t.Fatalf("flat counter did not resolve: %+v", v)
	}
}

// TestBelowRules pins inverted predicates (conservation residuals): only
// values below the target violate.
func TestBelowRules(t *testing.T) {
	h := newHarness(Rule{Name: "resid", Metric: "r", Below: true, Target: 0,
		Budget: 1, FastWindow: 1, SlowWindow: 1, FastBurn: 1, SlowBurn: 1})

	if v := h.feed(t, 0, 0); v.Firing {
		t.Fatal("value at target violated a Below rule")
	}
	if v := h.feed(t, 1, 5); v.Firing {
		t.Fatal("value above target violated a Below rule")
	}
	v := h.feed(t, 2, -0.5)
	if !v.Firing || !v.Started {
		t.Fatalf("negative residual did not fire: %+v", v)
	}
	if v = h.feed(t, 3, 0); v.Firing || !v.Stopped {
		t.Fatalf("recovered residual did not resolve: %+v", v)
	}
}

// TestStartupPadding pins the cold-start behavior: windows are padded
// with non-violating samples, so even a series violating from tick zero
// must accumulate real slow-window burn before the rule fires.
func TestStartupPadding(t *testing.T) {
	h := newHarness(Rule{Name: "lat", Metric: "m", Target: 0.1})
	// Defaults: budget 1%, windows 12/96, thresholds 14.4/6. With every
	// tick violating, slow burn (n+1)/96/0.01 crosses 6 at the sixth tick.
	for tick := uint64(0); tick < 5; tick++ {
		if v := h.feed(t, tick, 1); v.Firing {
			t.Fatalf("fired at startup tick %d before the slow window had evidence", tick)
		}
	}
	if v := h.feed(t, 5, 1); !v.Firing || !v.Started {
		t.Fatalf("sustained violation never fired after padding drained: %+v", v)
	}
}

// TestMissingSeriesIsBenign pins the absent-metric case: a rule over a
// series the store never saw observes ticks but never violates.
func TestMissingSeriesIsBenign(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	eng := New(db, []Rule{{Name: "ghost", Metric: "absent", Target: 0,
		FastWindow: 1, SlowWindow: 1, FastBurn: 1, SlowBurn: 1}})
	for tick := uint64(0); tick < 10; tick++ {
		if v := eng.Evaluate(tick)[0]; v.Firing {
			t.Fatalf("rule over a missing series fired at tick %d", tick)
		}
	}
	st := eng.Status()[0]
	if st.Ticks != 10 || st.Value != 0 {
		t.Fatalf("missing-series status %+v", st)
	}
}

// TestNotifyAndDetail pins the event plumbing: SetNotify sees every edge
// in order, with the details the event log records.
func TestNotifyAndDetail(t *testing.T) {
	h := newHarness(Rule{Name: "lat", Metric: "m", Target: 1,
		Budget: 1, FastWindow: 1, SlowWindow: 1, FastBurn: 1, SlowBurn: 1})
	var got []Event
	h.eng.SetNotify(func(ev Event) { got = append(got, ev) })

	h.feed(t, 0, 5) // fire
	h.feed(t, 1, 0) // resolve
	if len(got) != 2 || !got[0].Firing || got[1].Firing {
		t.Fatalf("notify saw %+v", got)
	}
	if log := h.eng.Events(); len(log) != 2 || log[1].Detail != got[1].Detail {
		t.Fatalf("event log %+v, want the notified edges %+v", log, got)
	}
}

// TestRuleValidation pins constructor hygiene: unnamed or metric-less
// rules are dropped, and a slow window shorter than the fast one is
// raised to it.
func TestRuleValidation(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	if n := len(New(db, []Rule{{Metric: "m"}, {Name: "x"}}).Rules()); n != 0 {
		t.Fatalf("invalid rules survived: %d", n)
	}
	r := New(db, []Rule{{Name: "a", Metric: "m", FastWindow: 8, SlowWindow: 2}}).Rules()[0]
	if r.SlowWindow != 8 {
		t.Fatalf("slow window %d, want raised to 8", r.SlowWindow)
	}
	if r.Budget != DefaultBudget || r.FastBurn != DefaultFastBurn || r.SlowBurn != DefaultSlowBurn {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

// TestIngestQueueHighFiresOnFirstTick pins the default queue high-water
// rule: the first tick at or above 90% of queue capacity fires at once,
// a tick just below it stays quiet, and the rule resolves once the
// fast window drains.
func TestIngestQueueHighFiresOnFirstTick(t *testing.T) {
	var rule Rule
	for _, r := range DefaultRules(time.Second) {
		if r.Name == "ingest-queue-high" {
			rule = r
		}
	}
	if rule.Metric != "skynet_ingest_queue_load" {
		t.Fatalf("ingest-queue-high rule = %+v, want one over skynet_ingest_queue_load", rule)
	}
	h := newHarness(rule)
	if v := h.feed(t, 0, float64(9)/10); !v.Firing || !v.Started {
		t.Fatalf("first tick at 90%% load did not fire: %+v", v)
	}

	h = newHarness(rule)
	if v := h.feed(t, 0, 0.89); v.Firing {
		t.Fatalf("tick at 89%% load fired: %+v", v)
	}
	if v := h.feed(t, 1, float64(7373)/8192); !v.Firing || !v.Started {
		t.Fatalf("first tick above 90%% load did not fire: %+v", v)
	}
	for tick := uint64(2); tick < 6; tick++ {
		h.feed(t, tick, 0)
	}
	if st := h.eng.Status()[0]; st.Firing {
		t.Fatalf("rule still firing after the fast window drained: %+v", st)
	}
}
