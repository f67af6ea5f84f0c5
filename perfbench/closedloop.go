package main

import (
	"fmt"
	"time"

	"skynet/internal/topology"
)

// minTicks is the fewest ticks a closed-loop window measures, so that its
// p90 has minBeyond samples behind it.
const minTicks = 100

// replaySpec describes one closed-loop workload.
type replaySpec struct {
	name   string
	warmup int // ticks before the first window, to reach steady state
	settle int // ticks a hotspot needs before it must have been located
	// rate is the nominal ticks per wall second: a window is
	// --seconds × rate ticks, a fixed amount of work, so a faster
	// program finishes sooner rather than simulating further (the
	// telemetry history, for one, grows with every tick).
	rate   int
	newGen func(topo *topology.Topology, seed int64) replayGen
}

func runFlood(seed int64, seconds int, traced bool) (*runOutcome, error) {
	return runReplay(replaySpec{
		name: "flood", warmup: 20, settle: 5, rate: 20,
		newGen: func(t *topology.Topology, s int64) replayGen { return newFloodGen(t, s) },
	}, seed, seconds, traced)
}

func runSprawl(seed int64, seconds int, traced bool) (*runOutcome, error) {
	return runReplay(replaySpec{
		name: "sprawl", warmup: 960, settle: 5, rate: 400,
		newGen: func(t *topology.Topology, s int64) replayGen { return newSprawlGen(t, s) },
	}, seed, seconds, traced)
}

// runReplay sets up, warms up, measures an untraced window and — when
// traced — a traced window plus the serial baseline, then checks the
// outputs.
func runReplay(spec replaySpec, seed int64, seconds int, traced bool) (*runOutcome, error) {
	d, setupS, err := setupDaemons(daemonConfig{scale: topology.ProductionConfig()})
	if err != nil {
		return nil, err
	}
	defer d.close()
	gen := spec.newGen(d.topo, seed)
	rp, err := newReplay(d, gen)
	if err != nil {
		return nil, err
	}
	o := &runOutcome{shape: newShape(spec.name, seconds, d.engine, gen.params()), setupS: setupS}
	ticks := max(seconds*spec.rate, minTicks)
	o.shape.Params["warmup_ticks"] = spec.warmup
	o.shape.Params["window_ticks"] = ticks
	if err := rp.run(spec.warmup); err != nil {
		return nil, err
	}
	w, err := rp.measure(ticks, false, &o.notes)
	if err != nil {
		return nil, err
	}
	o.untraced = w.endToEnd(&o.notes)
	if traced {
		o.feed = w.feedTail(&o.notes)
		baseTick, baseDigest := rp.tick, digest(d.engine.Active())
		tw, err := rp.measure(ticks, true, &o.notes)
		if err != nil {
			return nil, err
		}
		o.traced = tw.endToEnd(&o.notes)
		o.layers = tw.layers(&o.notes)
		serialP50, serialDigest, err := serialBaseline(spec, seed, baseTick)
		if err != nil {
			return nil, err
		}
		o.layers["core.serial_tick_p50_ms"] = serialP50
		o.checks.check("serial_digest_matches", serialDigest == baseDigest,
			"incident digest at tick %d differs between Workers=%d and Workers=1", baseTick, d.engine.Workers())
	}

	active := d.engine.Active()
	o.checks.checkCoverage(active, gen.hotspots(rp.tick), rp.tick, spec.settle)
	o.checks.checkFeed(rp.feed, active)
	absorbed := int64(d.engine.RawIngested()) - d.engine.SelfAlerts()
	accepted := int64(rp.offered - rp.decodeErrs)
	o.checks.check("accepted_equals_ingested", accepted == absorbed,
		"%d lines decoded, engine absorbed %d", accepted, absorbed)
	fs := d.hub.StatsSnapshot()
	o.attempted = int64(rp.offered)
	o.lost = int64(rp.offered) - absorbed + int64(fs.DroppedTotal-rp.dropBase)
	checkLineage(&o.checks, d, rp.now)
	return o, nil
}

// serialBaseline replays the same inputs on a Workers=1 daemon up to
// tick end, timing Engine.Tick over the ticks after the warm-up, and
// returns the p50 and the incident digest at end.
func serialBaseline(spec replaySpec, seed int64, end int) (float64, string, error) {
	d, err := newDaemon(daemonConfig{scale: topology.ProductionConfig(), workers: 1})
	if err != nil {
		return 0, "", err
	}
	defer d.close()
	rp, err := newReplay(d, spec.newGen(d.topo, seed))
	if err != nil {
		return 0, "", err
	}
	if err := rp.run(spec.warmup); err != nil {
		return 0, "", err
	}
	var ticks []float64
	for rp.tick < end {
		s, err := rp.step(false)
		if err != nil {
			return 0, "", err
		}
		ticks = append(ticks, ms(s.engineTick))
	}
	p50, err := percentile(ticks, 50)
	if err != nil {
		return 0, "", fmt.Errorf("serial baseline: %w", err)
	}
	return p50, digest(d.engine.Active()), nil
}

// replayWindow is one measured closed-loop window.
type replayWindow struct {
	samples   []tickSample
	allocs    uint64
	gcs       uint64
	rescored  float64
	skipped   float64
	preIn     int
	preOut    int
	dropped   uint64
	activeSum float64
	snapBytes int
}

// measure steps a window of n ticks and records the counters the layer
// metrics need.
func (r *replay) measure(n int, traced bool, notes *[]string) (*replayWindow, error) {
	w := &replayWindow{}
	reg := r.d.reg
	rescored := reg.Counter("skynet_eval_rescored_total", "")
	skipped := reg.Counter("skynet_eval_skipped_total", "")
	activeG := reg.Gauge("skynet_active_incidents", "")
	_, a0, g0 := r.rt.read()
	rs0, sk0 := rescored.Value(), skipped.Value()
	st0 := r.d.engine.PreprocessStats()
	dr0 := r.d.hub.StatsSnapshot().DroppedTotal
	for len(w.samples) < n {
		s, err := r.step(traced)
		if err != nil {
			return nil, err
		}
		w.samples = append(w.samples, s)
		w.activeSum += activeG.Value()
	}
	_, a1, g1 := r.rt.read()
	w.allocs, w.gcs = a1-a0, g1-g0
	w.rescored, w.skipped = float64(rescored.Value()-rs0), float64(skipped.Value()-sk0)
	st1 := r.d.engine.PreprocessStats()
	w.preIn, w.preOut = st1.In-st0.In, st1.Out-st0.Out
	fs := r.d.hub.StatsSnapshot()
	w.dropped, w.snapBytes = fs.DroppedTotal-dr0, fs.SnapshotBytes
	return w, nil
}

// pct is percentile for a report: a refused percentile reads 0 and is
// noted.
func pct(samples []float64, p float64, name string, notes *[]string) float64 {
	v, err := percentile(samples, p)
	if err != nil {
		*notes = append(*notes, name+": "+err.Error())
		return 0
	}
	return v
}

// endToEnd computes the window's end-to-end metrics. In the closed loop
// every alert of a tick is handed over at once, so an alert's
// alert-to-feed latency is its tick's latency; the throughput is all
// rows over all timed seconds.
func (w *replayWindow) endToEnd(notes *[]string) map[string]float64 {
	var lat []float64
	var rows int
	var timed, cpu time.Duration
	var peak uint64
	for _, s := range w.samples {
		lat = append(lat, ms(s.lat))
		timed += s.lat
		rows += s.rows
		cpu += s.cpu
		peak = max(peak, s.heap)
	}
	return map[string]float64{
		"alerts_per_s":         float64(rows) / timed.Seconds(),
		"alert_to_feed_p50_ms": pct(lat, 50, "alert_to_feed_p50_ms", notes),
		"cpu_ms_per_kalert":    ms(cpu) / (float64(rows) / 1000),
		"peak_heap_mb":         float64(peak) / 1e6,
	}
}

// feedTail computes the window's feed-latency percentiles: per tick and
// per alert, which in the closed loop are the same samples.
func (w *replayWindow) feedTail(notes *[]string) map[string]float64 {
	var lat []float64
	for _, s := range w.samples {
		lat = append(lat, ms(s.lat))
	}
	return feedTail(lat, lat, notes)
}

// feedTail reports the tick and alert-to-feed latency percentiles.
func feedTail(ticks, alerts []float64, notes *[]string) map[string]float64 {
	return map[string]float64{
		"feed.tick_p50_ms":          pct(ticks, 50, "feed.tick_p50_ms", notes),
		"feed.tick_p90_ms":          pct(ticks, 90, "feed.tick_p90_ms", notes),
		"feed.alert_to_feed_p90_ms": pct(alerts, 90, "feed.alert_to_feed_p90_ms", notes),
		"feed.alert_to_feed_p99_ms": pct(alerts, 99, "feed.alert_to_feed_p99_ms", notes),
	}
}

// layers computes the per-layer breakdown of a traced window.
func (w *replayWindow) layers(notes *[]string) map[string]float64 {
	n := float64(len(w.samples))
	var rows int
	var decode, ingest, tick, tail, encode time.Duration
	var st stageTimes
	var ticks, waits []float64
	var deltaBytes int
	for _, s := range w.samples {
		rows += s.rows
		decode += s.decode
		ingest += s.ingest
		tick += s.engineTick
		encode += s.encode
		deltaBytes += s.deltaBytes
		ticks = append(ticks, ms(s.engineTick))
		waits = append(waits, ms(s.wait))
		if s.hasStages {
			tail += s.engineTick - s.stages.roots()
			st = st.add(s.stages)
		}
	}
	m := st.perTick(n, tick)
	m["alert.decode_ns_per_row"] = float64(decode.Nanoseconds()) / float64(rows)
	m["core.ingest_batch_ns_per_row"] = float64(ingest.Nanoseconds()) / float64(rows)
	m["core.tick_p50_ms"] = pct(ticks, 50, "core.tick_p50_ms", notes)
	m["core.tick_p90_ms"] = pct(ticks, 90, "core.tick_p90_ms", notes)
	m["core.tick_tail_ms"] = ms(tail) / n
	m["share.tail"] = float64(tail) / float64(tick)
	m["share.ingest"] = float64(decode+ingest) / float64(decode+ingest+tick)
	m["preprocess.out_ratio"] = float64(w.preOut) / float64(max(w.preIn, 1))
	m["locator.active_incidents"] = w.activeSum / n
	m["evaluator.rescore_ratio"] = w.rescored / max(w.rescored+w.skipped, 1)
	m["fanout.wait_ms_p99"] = pct(waits, 99, "fanout.wait_ms_p99", notes)
	m["fanout.encode_us"] = float64(encode.Microseconds()) / n
	m["fanout.delta_bytes"] = float64(deltaBytes) / n
	m["fanout.snapshot_bytes"] = float64(w.snapBytes)
	m["fanout.resync_drops"] = float64(w.dropped)
	m["runtime.alloc_bytes_per_alert"] = float64(w.allocs) / float64(rows)
	m["runtime.gc_cycles"] = float64(w.gcs)
	*notes = append(*notes, "ingest.*, live.*: no ingest listener or generator on a closed-loop workload")
	return m
}

// add sums two ticks' stage times.
func (st stageTimes) add(o stageTimes) stageTimes {
	st.preprocess += o.preprocess
	st.classify += o.classify
	st.consolidate += o.consolidate
	st.sweep += o.sweep
	st.preSelf += o.preSelf
	st.locate += o.locate
	st.addbatch += o.addbatch
	st.check += o.check
	st.expire += o.expire
	st.compcount += o.compcount
	st.evaluate += o.evaluate
	st.refineScore += o.refineScore
	st.sop += o.sop
	return st
}

// perTick turns summed stage times over n ticks into per-tick means (ms)
// and shares of the summed Engine.Tick time.
func (st stageTimes) perTick(n float64, tick time.Duration) map[string]float64 {
	per := func(d time.Duration) float64 { return ms(d) / n }
	share := func(d time.Duration) float64 { return float64(d) / float64(tick) }
	return map[string]float64{
		"preprocess.classify_ms":    per(st.classify),
		"preprocess.consolidate_ms": per(st.consolidate),
		"preprocess.sweep_ms":       per(st.sweep),
		"preprocess.self_ms":        per(st.preSelf),
		"locator.addbatch_ms":       per(st.addbatch),
		"locator.check_ms":          per(st.check),
		"locator.expire_ms":         per(st.expire),
		"locator.compcount_ms":      per(st.compcount),
		"evaluator.refine_score_ms": per(st.refineScore),
		"share.preprocess":          share(st.preprocess),
		"share.locate":              share(st.locate),
		"share.evaluate":            share(st.evaluate),
	}
}

// checkLineage checks the provenance conservation ledger: every alert
// the engine took in entered the ledger, nothing left it twice, and once
// the pipeline is driven to quiescence nothing is left in flight.
func checkLineage(c *checks, d *daemon, now time.Time) {
	cn := d.prov.Counters()
	raw := int64(d.engine.RawIngested())
	c.check("lineage_entry", cn.Ingested == raw+cn.Split,
		"ledger ingested %d, engine took %d plus %d link splits", cn.Ingested, raw, cn.Split)
	c.check("lineage_nonnegative", cn.Ingested >= cn.Terminal(),
		"ledger terminal %d exceeds ingested %d", cn.Terminal(), cn.Ingested)
	// Quiescence: past every aggregate, node and incident lifetime. The
	// self-monitoring loop may inject alerts on the last tick; those sit
	// in the preprocessor's pending buffer, so they are all that may
	// remain in flight.
	var pending int64
	for i := 0; i < 8; i++ {
		self := d.engine.SelfAlerts()
		now = now.Add(10 * time.Minute)
		d.tick(now)
		pending = d.engine.SelfAlerts() - self
		if d.prov.InFlight() == pending {
			break
		}
	}
	c.check("lineage_conserved", d.prov.InFlight() == pending,
		"%d lineages in flight at quiescence, %d self-alerts pending", d.prov.InFlight(), pending)
}
