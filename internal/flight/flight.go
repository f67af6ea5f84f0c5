// Package flight is SkyNet's always-on flight recorder: a small,
// lock-light evidence sink that rides along with the pipeline and —
// when something goes wrong — captures the evidence an operator needs
// *at the moment of the anomaly*, not minutes later when a human gets
// paged.
//
// The paper's failure mode is exactly the situation where post-hoc
// debugging is hardest: an alert flood degrades the very pipeline that
// is supposed to explain it. The recorder judges nothing itself — the
// SLO burn-rate engine (package slo) is the one watchdog. The recorder
// fires on exactly two things:
//
//   - slo_burn    — an SLO rule started firing since the last tick
//   - flood_close — a flood episode closed (postmortem evidence)
//
// On a firing it dumps a self-contained snapshot — the recent
// span-trace ring, a /metrics snapshot, goroutine and heap profiles,
// and the active incident list — into a timestamped directory,
// rate-limited by a cooldown and a dump cap so a sustained storm cannot
// fill the disk. Health() reports the pipeline degraded exactly while an
// SLO rule is firing, for GET /api/health, and SetNotify streams the
// firings into the SSE bus.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// DefaultSLOTickP99 is the default tick-latency objective: the target of
// the slo.DefaultRules tick-latency burn-rate rule.
const DefaultSLOTickP99 = time.Second

// Defaults for Config's zero fields.
const (
	DefaultCooldown = time.Minute
	DefaultMaxDumps = 16
)

// Config tunes the recorder. The zero value is usable: defaults apply,
// and an empty Dir records firings and health without writing dumps.
type Config struct {
	// Dir is the root directory dumps are written under (created on
	// demand). Empty disables dumping; firings and health still work.
	Dir string
	// Cooldown is the minimum spacing between dumps. Default 1m.
	Cooldown time.Duration
	// MaxDumps caps the dump directories written over the recorder's
	// lifetime. Default 16; negative means unlimited.
	MaxDumps int
	// MaxDumpDirs caps the dump directories retained on disk: after each
	// dump, the oldest flight-* directories under Dir beyond this count
	// are deleted (a sustained storm keeps only the newest evidence).
	// 0 disables retention pruning.
	MaxDumpDirs int
}

// Sources are the read-only taps the recorder samples every Observe.
// Any field may be nil; its trigger or dump section is skipped.
type Sources struct {
	// SLO is the burn-rate engine: a rule that starts firing fires
	// slo_burn, and Health is degraded while any rule fires.
	SLO *slo.Engine
	// FloodClosed returns the flood detector's cumulative closed-episode
	// count. A positive delta fires flood_close, so every finished flood
	// episode captures a postmortem evidence dump.
	FloodClosed func() int64
	// Incidents returns a JSON-serializable snapshot of the active
	// incident population, captured at dump time.
	Incidents func() any
	// Metrics is the registry whose exposition is written into dumps.
	Metrics *telemetry.Registry
	// Tracer supplies the recent span-trace ring written into dumps.
	Tracer *span.Tracer
	// History writes the pre-trigger telemetry history window into dumps
	// as history.json — typically tsdb.DB.SnapshotTo, so every dump
	// carries how the pipeline trended INTO the anomaly, not just the
	// instant of it.
	History func(w io.Writer) error
	// Profiles drops extra profile files into a dump directory —
	// typically prof.Collector.WriteLatest, which copies the continuous
	// profiler's most recent stage-labeled CPU window. Must not block
	// (dumps run on the engine loop): copy captured evidence, never
	// capture fresh.
	Profiles func(dir string)
}

// Trigger names, stable identifiers used in health reports, events,
// metrics, and dump file names.
const (
	TriggerSLOBurn    = "slo_burn"
	TriggerFloodClose = "flood_close"
)

var triggerNames = []string{TriggerSLOBurn, TriggerFloodClose}

// TriggerState is the health view of one trigger.
type TriggerState struct {
	// Name is the trigger identifier.
	Name string `json:"name"`
	// Firing reports whether the trigger fired at the last Observe.
	Firing bool `json:"firing"`
	// Fired counts firings over the recorder's lifetime.
	Fired int64 `json:"fired"`
	// Last is when the trigger last fired (zero when never).
	Last time.Time `json:"last,omitempty"`
	// Detail describes the most recent firing.
	Detail string `json:"detail,omitempty"`
}

// Health is the self-SLO verdict.
type Health struct {
	// OK is true when no SLO rule is firing.
	OK bool `json:"ok"`
	// Degraded lists the names of the SLO rules currently firing.
	Degraded []string `json:"degraded,omitempty"`
	// Ticks counts Observe calls over the recorder's lifetime.
	Ticks int64 `json:"ticks"`
	// Dumps counts dump directories written.
	Dumps int64 `json:"dumps"`
	// LastDump is the path of the most recent dump directory.
	LastDump string `json:"last_dump,omitempty"`
	// Triggers is the per-trigger state, in a fixed order.
	Triggers []TriggerState `json:"triggers"`
}

// Event is one notification, emitted when a trigger fires.
type Event struct {
	// Time is the pipeline time of the Observe that fired the trigger.
	Time time.Time `json:"time"`
	// Trigger is the trigger name.
	Trigger string `json:"trigger"`
	// Detail describes the firing condition with its measured values.
	Detail string `json:"detail"`
	// DumpDir is the dump directory written for this firing (empty when
	// dumping is disabled, rate-limited, or capped).
	DumpDir string `json:"dump_dir,omitempty"`
}

// Recorder is the flight recorder. Observe must be called from one
// goroutine (the engine loop); Health, SetNotify, and RegisterMetrics
// are safe from any goroutine.
type Recorder struct {
	cfg Config
	src Sources

	mu       sync.Mutex
	ticks    int64
	triggers map[string]*TriggerState

	sloFiring       []bool // per rule, as of the last Observe
	lastFloodClosed int64

	dumps     int64
	lastDump  string
	lastDumpT time.Time
	hasDumped bool
	dumpSeq   int

	notify func(Event)
}

// New builds a recorder over the given sources, applying defaults to
// zero Config fields. Rules already firing and floods already closed
// when the recorder is built do not fire it.
func New(cfg Config, src Sources) *Recorder {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.MaxDumps == 0 {
		cfg.MaxDumps = DefaultMaxDumps
	}
	r := &Recorder{
		cfg:      cfg,
		src:      src,
		triggers: make(map[string]*TriggerState, len(triggerNames)),
	}
	for _, name := range triggerNames {
		r.triggers[name] = &TriggerState{Name: name}
	}
	if src.SLO != nil {
		for _, st := range src.SLO.Status() {
			r.sloFiring = append(r.sloFiring, st.Firing)
		}
	}
	if src.FloodClosed != nil {
		r.lastFloodClosed = src.FloodClosed()
	}
	return r
}

// SetNotify installs the event callback (the SSE bus tap). The callback
// runs on the Observe goroutine, outside the recorder's lock.
func (r *Recorder) SetNotify(fn func(Event)) {
	r.mu.Lock()
	r.notify = fn
	r.mu.Unlock()
}

// Observe samples the sources once per finished tick: a newly firing
// SLO rule or a newly closed flood episode fires its trigger, which
// dumps and notifies. now is pipeline time (wall in the daemon,
// simulated under replay).
func (r *Recorder) Observe(now time.Time) {
	var status []slo.RuleStatus
	if r.src.SLO != nil {
		status = r.src.SLO.Status()
	}
	r.mu.Lock()
	r.ticks++

	var fired []Event
	edge := func(name string, firing bool, detail string) {
		st := r.triggers[name]
		st.Firing = firing
		if firing {
			st.Detail = detail
			st.Fired++
			st.Last = now
			fired = append(fired, Event{Time: now, Trigger: name, Detail: detail})
		}
	}

	// The rule set is fixed at slo.New, so status lines up with sloFiring.
	var started []string
	for i, st := range status {
		if st.Firing && !r.sloFiring[i] {
			started = append(started, fmt.Sprintf("slo %s firing: fast burn %.2f, slow burn %.2f",
				st.Rule.Name, st.FastBurn, st.SlowBurn))
		}
		r.sloFiring[i] = st.Firing
	}
	edge(TriggerSLOBurn, len(started) > 0, strings.Join(started, "; "))

	if r.src.FloodClosed != nil {
		cur := r.src.FloodClosed()
		d := cur - r.lastFloodClosed
		r.lastFloodClosed = cur
		edge(TriggerFloodClose, d > 0,
			fmt.Sprintf("flood episode closed (%d episodes total): capturing postmortem evidence", cur))
	}

	// Rate-limit dumping, not detection: at most one dump per cooldown,
	// capped over the lifetime. The first firing in a burst carries the
	// dump; the rest are events only.
	var dumpDir string
	if len(fired) > 0 && r.cfg.Dir != "" &&
		(r.cfg.MaxDumps < 0 || r.dumps < int64(r.cfg.MaxDumps)) &&
		(!r.hasDumped || now.Sub(r.lastDumpT) >= r.cfg.Cooldown) {
		r.dumpSeq++
		dumpDir = filepath.Join(r.cfg.Dir,
			fmt.Sprintf("flight-%s-%03d", now.UTC().Format("20060102T150405"), r.dumpSeq))
		r.dumps++
		r.lastDump = dumpDir
		r.lastDumpT = now
		r.hasDumped = true
		for i := range fired {
			fired[i].DumpDir = dumpDir
		}
	}
	notify := r.notify
	health := r.healthLocked(status)
	r.mu.Unlock()

	// Dump and notify outside the lock: the incident snapshot callback
	// may take the engine lock, and the SSE bus takes its own.
	if dumpDir != "" {
		r.writeDump(dumpDir, fired, health)
	}
	if notify != nil {
		for _, ev := range fired {
			notify(ev)
		}
	}
}

// Health returns the current verdict: degraded exactly while an SLO
// rule is firing.
func (r *Recorder) Health() Health {
	var status []slo.RuleStatus
	if r.src.SLO != nil {
		status = r.src.SLO.Status()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthLocked(status)
}

func (r *Recorder) healthLocked(status []slo.RuleStatus) Health {
	h := Health{
		OK:       true,
		Ticks:    r.ticks,
		Dumps:    r.dumps,
		LastDump: r.lastDump,
		Triggers: make([]TriggerState, 0, len(triggerNames)),
	}
	for _, st := range status {
		if st.Firing {
			h.OK = false
			h.Degraded = append(h.Degraded, st.Rule.Name)
		}
	}
	for _, name := range triggerNames {
		h.Triggers = append(h.Triggers, *r.triggers[name])
	}
	return h
}

// RegisterMetrics exposes the recorder's own state on a registry.
func (r *Recorder) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("skynet_flight_degraded",
		"1 while any SLO rule is firing (GET /api/health degraded), else 0.",
		func() float64 {
			if r.src.SLO != nil && r.src.SLO.FiringCount() > 0 {
				return 1
			}
			return 0
		})
	reg.CounterFunc("skynet_flight_dumps_total",
		"Flight-recorder dump directories written.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.dumps)
		})
	for _, name := range triggerNames {
		st := r.triggers[name]
		reg.CounterFunc("skynet_flight_trigger_"+name+"_total",
			"Firings of the "+name+" flight-recorder trigger.",
			func() float64 {
				r.mu.Lock()
				defer r.mu.Unlock()
				return float64(st.Fired)
			})
	}
}

// dumpManifest is the trigger.json payload: why the dump happened and
// what the recorder believed at that moment.
type dumpManifest struct {
	Time     time.Time `json:"time"`
	Triggers []Event   `json:"triggers"`
	Health   Health    `json:"health"`
}

// writeDump captures one snapshot directory. Best-effort: a failing
// section is skipped (written as an .err file) rather than aborting the
// pipeline — the recorder must never take the patient down with it.
func (r *Recorder) writeDump(dir string, fired []Event, health Health) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	writeErr := func(name string, err error) {
		_ = os.WriteFile(filepath.Join(dir, name+".err"), []byte(err.Error()+"\n"), 0o644)
	}
	writeJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			writeErr(name, err)
			return
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			writeErr(name, err)
		}
	}
	writeJSON("trigger.json", dumpManifest{Time: health.timeOf(fired), Triggers: fired, Health: health})
	if r.src.Tracer != nil {
		writeJSON("spans.json", r.src.Tracer.Last(0))
	}
	if r.src.Metrics != nil {
		f, err := os.Create(filepath.Join(dir, "metrics.prom"))
		if err == nil {
			err = r.src.Metrics.Expose(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			writeErr("metrics.prom", err)
		}
	}
	if r.src.Incidents != nil {
		writeJSON("incidents.json", r.src.Incidents())
	}
	if r.src.History != nil {
		f, err := os.Create(filepath.Join(dir, "history.json"))
		if err == nil {
			err = r.src.History(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			writeErr("history.json", err)
		}
	}
	if f, err := os.Create(filepath.Join(dir, "goroutines.txt")); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(f, 2)
		_ = f.Close()
	}
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		_ = pprof.WriteHeapProfile(f)
		_ = f.Close()
	}
	// Contention snapshots ride along (cheap; empty unless the daemon
	// enabled -mutex-fraction / -block-rate), then the profiler's latest
	// labeled CPU window via the Profiles hook.
	for _, name := range []string{"mutex", "block"} {
		if p := pprof.Lookup(name); p != nil {
			if f, err := os.Create(filepath.Join(dir, name+".pprof")); err == nil {
				_ = p.WriteTo(f, 0)
				_ = f.Close()
			}
		}
	}
	if r.src.Profiles != nil {
		r.src.Profiles(dir)
	}
	r.pruneDumps()
}

// pruneDumps enforces Config.MaxDumpDirs: the oldest flight-* dump
// directories under Dir beyond the cap are deleted, so a long-running
// daemon riding out a storm keeps the newest evidence instead of
// filling the disk. Dump names sort chronologically (UTC timestamp plus
// a monotonic sequence), so lexicographic order is age order.
func (r *Recorder) pruneDumps() {
	if r.cfg.MaxDumpDirs <= 0 || r.cfg.Dir == "" {
		return
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var dumps []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "flight-") {
			dumps = append(dumps, e.Name())
		}
	}
	if len(dumps) <= r.cfg.MaxDumpDirs {
		return
	}
	sort.Strings(dumps)
	for _, name := range dumps[:len(dumps)-r.cfg.MaxDumpDirs] {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, name))
	}
}

// timeOf picks the manifest timestamp from the firing events.
func (Health) timeOf(fired []Event) time.Time {
	if len(fired) > 0 {
		return fired[0].Time
	}
	return time.Time{}
}
