package flight

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/tsdb"
)

// dumpRoot returns where this test should write flight dumps: the
// SKYNET_FLIGHT_DUMP_DIR directory when set (CI uploads it as an
// artifact), else a per-test temp dir.
func dumpRoot(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("SKYNET_FLIGHT_DUMP_DIR"); dir != "" {
		sub := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

func at(sec int) time.Time {
	return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

// watchdog is an SLO burn-rate engine over its own store, fed one tick
// at a time — the recorder's only judge in these tests.
type watchdog struct {
	db   *tsdb.DB
	eng  *slo.Engine
	tick uint64
}

func newWatchdog(rules ...slo.Rule) *watchdog {
	db := tsdb.New(tsdb.Config{})
	return &watchdog{db: db, eng: slo.New(db, rules)}
}

// step stores one sample per metric for the next tick and evaluates
// every rule; metrics left out are missing that tick (never violating).
func (w *watchdog) step(vals map[string]float64) {
	for m, v := range vals {
		w.db.Append(m, w.tick, v)
	}
	w.eng.Evaluate(w.tick)
	w.tick++
}

// blipRule fires on the first tick its metric exceeds 1 and resolves on
// the first tick it does not.
func blipRule(name, metric string) slo.Rule {
	return slo.Rule{Name: name, Metric: metric, Target: 1,
		Budget: 1, FastWindow: 1, SlowWindow: 1, FastBurn: 1, SlowBurn: 1}
}

// defaultRule picks one production rule by name.
func defaultRule(t *testing.T, name string) slo.Rule {
	t.Helper()
	for _, r := range slo.DefaultRules(DefaultSLOTickP99) {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no default SLO rule %q", name)
	return slo.Rule{}
}

// TestTickP99TriggerFiresAndRecovers induces one slow tick past the
// tick-latency objective: the burn must fire slo_burn, write a dump with
// the span ring, metrics snapshot, and goroutine profile, flip health to
// degraded naming the rule — and recover once the rule resolves, with no
// second event and no second dump.
func TestTickP99TriggerFiresAndRecovers(t *testing.T) {
	dir := dumpRoot(t)
	tracer := span.NewTracer(4)
	reg := telemetry.New()
	reg.Counter("skynet_test_sentinel", "Present in dump snapshots.").Inc()
	// Record one real trace so spans.json has content.
	act := span.Start(tracer, nil, 1, at(0))
	r := act.Begin(span.Root, span.StagePreprocess)
	act.End(r, 3)
	act.Finish()

	wd := newWatchdog(blipRule("tick-latency", "tick_seconds"))
	rec := New(Config{Dir: dir},
		Sources{SLO: wd.eng, Tracer: tracer, Metrics: reg, Incidents: func() any { return []string{"inc-1"} }})

	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	wd.step(map[string]float64{"tick_seconds": 0.01})
	rec.Observe(at(0))
	if h := rec.Health(); !h.OK {
		t.Fatalf("healthy tick reported degraded: %+v", h)
	}
	wd.step(map[string]float64{"tick_seconds": 5}) // the induced slow tick
	rec.Observe(at(10))
	h := rec.Health()
	if h.OK {
		t.Fatal("slow tick did not flip health to degraded")
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != "tick-latency" {
		t.Fatalf("degraded = %v, want [tick-latency]", h.Degraded)
	}
	if h.Dumps != 1 || h.LastDump == "" {
		t.Fatalf("dumps = %d lastDump = %q, want one dump", h.Dumps, h.LastDump)
	}
	for _, name := range []string{"trigger.json", "spans.json", "metrics.prom", "goroutines.txt", "heap.pprof", "incidents.json"} {
		fi, err := os.Stat(filepath.Join(h.LastDump, name))
		if err != nil {
			t.Errorf("dump missing %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("dump %s is empty", name)
		}
	}
	data, err := os.ReadFile(filepath.Join(h.LastDump, "metrics.prom"))
	if err != nil || !strings.Contains(string(data), "skynet_test_sentinel") {
		t.Errorf("metrics.prom missing registry content: %v", err)
	}
	if len(events) != 1 || events[0].Trigger != TriggerSLOBurn || events[0].DumpDir != h.LastDump ||
		!strings.Contains(events[0].Detail, "tick-latency") {
		t.Fatalf("events = %+v, want one slo_burn event naming the rule and carrying the dump dir", events)
	}

	wd.step(map[string]float64{"tick_seconds": 0.01})
	rec.Observe(at(100))
	if h := rec.Health(); !h.OK {
		t.Fatalf("health did not recover after the rule resolved: %+v", h)
	}
	// Recovery emits no event and no second dump.
	if len(events) != 1 {
		t.Fatalf("recovery emitted events: %+v", events[1:])
	}
	if h := rec.Health(); h.Dumps != 1 {
		t.Fatalf("recovery wrote a dump: %d", h.Dumps)
	}
}

// TestEdgeTriggersFireOnDeltas drives the ingest-shed and journal-drop
// burn rules over cumulative counters: a one-tick shed alone no longer
// fires anything, a sustained one fires slo_burn once on the rule's
// rising edge, and health stays degraded while the rule burns.
func TestEdgeTriggersFireOnDeltas(t *testing.T) {
	shedRule := defaultRule(t, "ingest-shed")
	wd := newWatchdog(shedRule, defaultRule(t, "journal-drop"))
	rec := New(Config{}, Sources{SLO: wd.eng})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	shed, evicted := 5.0, 0.0 // pre-existing sheds are a baseline, not a delta
	tick := func(sec int) {
		wd.step(map[string]float64{shedRule.Metric: shed, "skynet_journal_events_evicted_total": evicted})
		rec.Observe(at(sec))
	}
	tick(0)
	shed += 3
	evicted++
	tick(10)
	tick(20)
	if h := rec.Health(); !h.OK || len(events) != 0 {
		t.Fatalf("one-tick shed and drop fired: health %+v events %+v", h, events)
	}
	// Sustained shedding burns the budget in both windows.
	sec := 30
	for len(events) == 0 && sec < 300 {
		shed++
		tick(sec)
		sec += 10
	}
	if len(events) != 1 || events[0].Trigger != TriggerSLOBurn || !strings.Contains(events[0].Detail, "ingest-shed") {
		t.Fatalf("sustained shed: events %+v, want one slo_burn naming ingest-shed", events)
	}
	if h := rec.Health(); h.OK || len(h.Degraded) != 1 || h.Degraded[0] != "ingest-shed" {
		t.Fatalf("health while shedding = %+v, want degraded [ingest-shed]", h)
	}
	// Still burning: no second edge.
	shed++
	tick(sec)
	if len(events) != 1 {
		t.Fatalf("steady burn re-fired: %+v", events)
	}
	for _, got := range rec.Health().Triggers {
		if got.Name == TriggerSLOBurn && got.Fired != 1 {
			t.Fatalf("slo_burn fired = %d, want 1 edge", got.Fired)
		}
	}
}

// TestQueueAndConservationTriggers covers the level rules that replaced
// the recorder's own queue and conservation triggers: one tick at queue
// high water with a negative lineage residual fires both rules at once,
// in one slo_burn event, and both resolve once the fast window drains.
func TestQueueAndConservationTriggers(t *testing.T) {
	wd := newWatchdog(defaultRule(t, "ingest-queue-high"), defaultRule(t, "lineage-conservation"))
	rec := New(Config{}, Sources{SLO: wd.eng})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })
	tick := func(sec int, load, inflight float64) {
		wd.step(map[string]float64{"skynet_ingest_queue_load": load, "skynet_lineage_in_flight": inflight})
		rec.Observe(at(sec))
	}
	tick(0, 0.89, 0)
	if !rec.Health().OK {
		t.Fatal("queue below high water fired")
	}
	tick(10, 0.9, -1)
	h := rec.Health()
	if len(h.Degraded) != 2 || h.Degraded[0] != "ingest-queue-high" || h.Degraded[1] != "lineage-conservation" {
		t.Fatalf("degraded = %v", h.Degraded)
	}
	if len(events) != 1 || events[0].Trigger != TriggerSLOBurn {
		t.Fatalf("events = %+v, want one slo_burn for both rules", events)
	}
	for i := 0; i < 4; i++ {
		tick(20+10*i, 0, 0)
	}
	if !rec.Health().OK {
		t.Fatalf("level rules did not recover: %+v", rec.Health().Degraded)
	}
}

// TestDumpCooldownAndCap verifies rate limiting: within the cooldown only
// the first firing dumps, and MaxDumps bounds the lifetime total.
func TestDumpCooldownAndCap(t *testing.T) {
	dir := dumpRoot(t)
	var closed atomic.Int64
	rec := New(Config{Dir: dir, Cooldown: time.Minute, MaxDumps: 2},
		Sources{FloodClosed: closed.Load})
	fire := func(sec int) {
		closed.Add(1)
		rec.Observe(at(sec))
	}
	fire(0)   // dump 1
	fire(10)  // within cooldown: no dump
	fire(70)  // dump 2
	fire(140) // capped
	h := rec.Health()
	if h.Dumps != 2 {
		t.Fatalf("dumps = %d, want 2 (cooldown + cap)", h.Dumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("dump dirs on disk = %d, want 2", len(entries))
	}
}

// TestTwoTriggersWithinCooldown pins the cooldown/cap interaction when
// two DIFFERENT triggers fire inside one cooldown window: the first
// firing carries the dump, the second is an event only (empty DumpDir,
// dump count unchanged), and once the cooldown elapses the suppressed
// trigger class dumps normally.
func TestTwoTriggersWithinCooldown(t *testing.T) {
	dir := dumpRoot(t)
	var closed atomic.Int64
	wd := newWatchdog(blipRule("tick-latency", "lat"))
	rec := New(Config{Dir: dir, Cooldown: time.Minute, MaxDumps: 4},
		Sources{SLO: wd.eng, FloodClosed: closed.Load})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })
	tick := func(sec int, lat float64) {
		wd.step(map[string]float64{"lat": lat})
		rec.Observe(at(sec))
	}

	closed.Add(1)
	tick(0, 0)  // dump 1
	tick(10, 2) // slo burn within cooldown: event only
	h := rec.Health()
	if h.Dumps != 1 {
		t.Fatalf("dumps = %d after second trigger inside cooldown, want 1", h.Dumps)
	}
	if len(events) != 2 {
		t.Fatalf("events = %+v, want 2", events)
	}
	if events[0].Trigger != TriggerFloodClose || events[0].DumpDir == "" {
		t.Fatalf("first event %+v should carry the dump", events[0])
	}
	if events[1].Trigger != TriggerSLOBurn || events[1].DumpDir != "" {
		t.Fatalf("second event %+v should be event-only (no dump dir)", events[1])
	}
	// The suppressed trigger was detected, just not dumped.
	for _, tr := range h.Triggers {
		if tr.Name == TriggerSLOBurn && tr.Fired != 1 {
			t.Fatalf("slo_burn fired = %d, want 1 (detection is never rate-limited)", tr.Fired)
		}
	}

	// Resolve the burn, then re-fire it after the cooldown: it must dump
	// this time.
	tick(20, 0)
	tick(70, 2)
	if h := rec.Health(); h.Dumps != 2 {
		t.Fatalf("dumps = %d after cooldown elapsed, want 2", h.Dumps)
	}
	if last := events[len(events)-1]; last.Trigger != TriggerSLOBurn || last.DumpDir == "" {
		t.Fatalf("post-cooldown event %+v should carry a dump", last)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("dump dirs on disk = %d (%v), want 2", len(entries), err)
	}
}

// TestSLOBurnSupersedesTickP99 pins that the recorder judges nothing
// itself: with no burn-rate engine wired nothing ever degrades health,
// and with one wired slo_burn fires carrying the rule's burn detail, and
// its dump embeds the pre-trigger history window as history.json.
func TestSLOBurnSupersedesTickP99(t *testing.T) {
	blind := New(Config{}, Sources{})
	for i := 0; i < 3; i++ {
		blind.Observe(at(i))
	}
	if h := blind.Health(); !h.OK || h.Ticks != 3 {
		t.Fatalf("recorder without an SLO engine judged something: %+v", h)
	}

	dir := dumpRoot(t)
	wd := newWatchdog(blipRule("tick-latency", "lat"))
	wd.step(map[string]float64{"lat": 2}) // firing before the recorder existed
	rec := New(Config{Dir: dir},
		Sources{
			SLO: wd.eng,
			History: func(w io.Writer) error {
				_, err := io.WriteString(w, `{"series":[]}`)
				return err
			},
		})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	wd.step(map[string]float64{"lat": 2})
	rec.Observe(at(0))
	if len(events) != 0 {
		t.Fatalf("a burn already firing at construction fired: %+v", events)
	}
	wd.step(map[string]float64{"lat": 0})
	rec.Observe(at(10))
	wd.step(map[string]float64{"lat": 3})
	rec.Observe(at(20))
	h := rec.Health()
	if len(h.Degraded) != 1 || h.Degraded[0] != "tick-latency" {
		t.Fatalf("degraded = %v, want [tick-latency]", h.Degraded)
	}
	if len(events) != 1 || events[0].Trigger != TriggerSLOBurn ||
		!strings.Contains(events[0].Detail, "slo tick-latency firing: fast burn 1.00") {
		t.Fatalf("events = %+v, want one slo_burn carrying the rule's burn detail", events)
	}
	data, err := os.ReadFile(filepath.Join(h.LastDump, "history.json"))
	if err != nil || string(data) != `{"series":[]}` {
		t.Fatalf("history.json = %q (%v), want the history snapshot", data, err)
	}
	wd.step(map[string]float64{"lat": 0})
	rec.Observe(at(30))
	if h := rec.Health(); !h.OK {
		t.Fatalf("health stayed degraded after the rule resolved: %+v", h.Degraded)
	}
}

// TestRetentionRacesDumpInProgress hammers MaxDumpDirs pruning while
// dumps are still being written from concurrent Observe calls: the slow
// Incidents callback keeps each dump in progress while other goroutines
// prune, which must never panic or corrupt recorder state, and a final
// quiescent dump must leave exactly MaxDumpDirs directories.
func TestRetentionRacesDumpInProgress(t *testing.T) {
	dir := dumpRoot(t)
	var closed atomic.Int64
	rec := New(Config{Dir: dir, Cooldown: time.Nanosecond, MaxDumps: -1, MaxDumpDirs: 2},
		Sources{
			FloodClosed: closed.Load,
			Incidents: func() any {
				time.Sleep(2 * time.Millisecond) // hold the dump open mid-write
				return []string{"inc"}
			},
		})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				closed.Add(1)
				rec.Observe(at(g*100 + i*2))
				rec.Observe(at(g*100 + i*2 + 1))
			}
		}(g)
	}
	wg.Wait()
	if h := rec.Health(); h.Dumps < 1 {
		t.Fatalf("no dumps written under concurrency: %+v", h)
	}
	// Quiesce, then one final sequential dump: its prune pass sees every
	// completed directory and must enforce the cap.
	rec.Observe(at(1000))
	closed.Add(1)
	rec.Observe(at(1001))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "flight-") {
			dumps = append(dumps, e.Name())
		}
	}
	if len(dumps) != 2 {
		t.Fatalf("retained %d dump dirs %v after quiescent prune, want 2", len(dumps), dumps)
	}
}

// TestRegisterMetrics checks the self-metrics reflect recorder state.
func TestRegisterMetrics(t *testing.T) {
	wd := newWatchdog(blipRule("tick-latency", "lat"))
	rec := New(Config{}, Sources{SLO: wd.eng})
	reg := telemetry.New()
	rec.RegisterMetrics(reg)
	find := func(name string) float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("metric %s not registered", name)
		return 0
	}
	wd.step(map[string]float64{"lat": 0})
	rec.Observe(at(0))
	if v := find("skynet_flight_degraded"); v != 0 {
		t.Fatalf("degraded = %v at rest", v)
	}
	wd.step(map[string]float64{"lat": 2})
	rec.Observe(at(10))
	if v := find("skynet_flight_degraded"); v != 1 {
		t.Fatalf("degraded = %v while firing", v)
	}
	if v := find("skynet_flight_trigger_slo_burn_total"); v != 1 {
		t.Fatalf("trigger counter = %v, want 1", v)
	}
	if v := find("skynet_flight_trigger_flood_close_total"); v != 0 {
		t.Fatalf("flood_close counter = %v, want 0", v)
	}
}

// TestDumpRetention verifies MaxDumpDirs pruning: after each dump the
// oldest flight-* directories beyond the cap are deleted, while
// anything else under the dump root is left alone.
func TestDumpRetention(t *testing.T) {
	dir := dumpRoot(t)
	if err := os.MkdirAll(filepath.Join(dir, "keepme"), 0o755); err != nil {
		t.Fatal(err)
	}
	var closed atomic.Int64
	rec := New(Config{Dir: dir, Cooldown: time.Second, MaxDumps: -1, MaxDumpDirs: 2},
		Sources{FloodClosed: closed.Load})
	fire := func(sec int) {
		closed.Add(1)
		rec.Observe(at(sec))
	}
	for i := 0; i < 4; i++ {
		fire(i * 70)
	}
	if h := rec.Health(); h.Dumps != 4 {
		t.Fatalf("dumps written = %d, want 4 (MaxDumps<0 is unlimited)", h.Dumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string
	keep := false
	for _, e := range entries {
		if e.Name() == "keepme" {
			keep = true
			continue
		}
		if strings.HasPrefix(e.Name(), "flight-") {
			dumps = append(dumps, e.Name())
		}
	}
	if !keep {
		t.Error("retention pruning deleted an unrelated directory")
	}
	if len(dumps) != 2 {
		t.Fatalf("retained %d dump dirs %v, want the 2 newest", len(dumps), dumps)
	}
	// Names embed the observe timestamp, so lexicographic order is
	// chronological: the survivors must be the two most recent dumps
	// (sequence numbers 003 and 004).
	sort.Strings(dumps)
	for i, want := range []string{"-003", "-004"} {
		if !strings.HasSuffix(dumps[i], want) {
			t.Errorf("survivor %d = %q, want suffix %q (oldest-first deletion)", i, dumps[i], want)
		}
	}
}

// TestFloodCloseTrigger verifies the flood_close trigger: a closed flood
// episode fires one dump trigger without degrading health (a finished
// flood is evidence, not an SLO breach), and pre-existing closes at
// construction do not fire.
func TestFloodCloseTrigger(t *testing.T) {
	var closed atomic.Int64
	closed.Store(2) // episodes closed before the recorder existed
	rec := New(Config{}, Sources{FloodClosed: closed.Load})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	rec.Observe(at(0))
	if len(events) != 0 {
		t.Fatalf("pre-existing flood closes fired at construction: %+v", events)
	}
	closed.Add(1)
	rec.Observe(at(10))
	if len(events) != 1 || events[0].Trigger != TriggerFloodClose {
		t.Fatalf("events = %+v, want one flood_close", events)
	}
	h := rec.Health()
	if !h.OK {
		t.Fatalf("flood close degraded health: %+v", h.Degraded)
	}
	for _, tr := range h.Triggers {
		if tr.Name == TriggerFloodClose && (!tr.Firing || tr.Fired != 1) {
			t.Fatalf("flood_close state = %+v, want firing once", tr)
		}
	}
	rec.Observe(at(20))
	if len(events) != 1 {
		t.Fatalf("flood_close re-fired with no new closes: %+v", events)
	}
}
