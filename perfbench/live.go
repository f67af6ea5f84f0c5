package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/alert"
	"skynet/internal/fanout"
	"skynet/internal/ingest"
	"skynet/internal/topology"
)

// The live workload runs open loop against the wall clock, as skynetd
// does: one generator goroutine writes JSON Lines on one loopback TCP
// connection to the ingest listener at a fixed rate, the engine ticks
// every wall second under the engine lock, and one subscriber goroutine
// blocks in Subscriber.Wait.
const (
	liveRate   = 20_000 // alerts per second offered
	liveWarmup = 2      // ticks before the first window
	liveDrain  = 2      // ticks after the generator stops, so every alert is absorbed and read
	// liveLateP99 and liveLateMax bound how late the generator may run
	// before a run measures the scheduler rather than the program.
	liveLateP99 = 50 * time.Millisecond
	liveLateMax = 250 * time.Millisecond
)

// liveRun is the recording state of one live run. Each field group is
// written by one goroutine and read by the controller after that
// goroutine has stopped.
type liveRun struct {
	traced atomic.Bool
	ticks  int // total ticks the run makes

	// Ingest handler (dispatcher goroutine), under the daemon's lock.
	done      int       // Engine.Tick calls completed
	absorbed  [][]int64 // scheduled send times (unix ns) of the alerts tick k absorbs
	handled   int       // rows handed to IngestBatch
	lags      []float64 // traced: handler entry − scheduled send, per row (ms)
	lockWaits []float64 // traced: wait for the engine lock, per call (ms)
	calls     int       // traced: handler calls
	rows      int       // traced: rows in those calls
	ingestDur time.Duration

	// Tick goroutine, indexed by tick.
	fire      []time.Time
	tickDur   []time.Duration
	cpuAt     []time.Duration // process CPU at each fire
	handledAt []int           // rows handled before each tick
	heap      []uint64
	active    []float64
	stages    []stageTimes
	counters  map[int]liveCounters // at the window edges

	// Subscriber goroutine.
	readAt     []time.Time // subscriber holds the encoded delta covering tick k
	waits      []float64
	encodes    []time.Duration
	deltaBytes []int
	frames     [][]byte // copies, folded into the feed check afterwards
	feed       *feedState

	// Generator goroutine.
	start   time.Time // alert i is due at start + i/liveRate
	offered int
	lates   []lateSample
}

type lateSample struct {
	sched time.Time
	late  time.Duration
}

// liveCounters are cumulative counters read at a window edge.
type liveCounters struct {
	allocs, gcs        uint64
	rescored, skipped  int64
	preIn, preOut      int
	dropped            uint64
	queueHW, queueFull int
}

func runLive(seed int64, seconds int, traced bool) (*runOutcome, error) {
	lv := &liveRun{feed: newFeedState(), counters: map[int]liveCounters{}}
	windows := 1
	if traced {
		windows = 2
	}
	lv.ticks = liveWarmup + windows*seconds + liveDrain
	n := lv.ticks + 1
	lv.absorbed = make([][]int64, n+1)
	lv.fire, lv.tickDur, lv.cpuAt = make([]time.Time, n), make([]time.Duration, n), make([]time.Duration, n)
	lv.handledAt, lv.heap, lv.active = make([]int, n), make([]uint64, n), make([]float64, n)
	lv.stages, lv.readAt = make([]stageTimes, n), make([]time.Time, n)

	d, setupS, err := setupDaemons(daemonConfig{scale: topology.SmallConfig(), handler: lv.handler})
	if err != nil {
		return nil, err
	}
	defer d.close()
	gen := newLiveGen(d.topo, seed)
	o := &runOutcome{setupS: setupS, shape: newShape("live", seconds, d.engine, map[string]any{
		"alerts_per_s": liveRate, "hotspots": len(gen.hot), "devices": len(gen.all),
		"hotspot_share": gen.hotFrac, "warmup_ticks": liveWarmup, "tick": "1s",
	})}
	if err := lv.drive(d, gen, seconds); err != nil {
		return nil, err
	}
	d.srv.Close() // returns once the last handler call has

	first, second := liveWarmup, liveWarmup+seconds
	o.untraced = lv.endToEnd(first, second, &o.notes)
	if traced {
		alerts, ticks := lv.latencies(first, second)
		o.feed = feedTail(ticks, alerts, &o.notes)
		o.traced = lv.endToEnd(second, second+seconds, &o.notes)
		o.layers = lv.layers(d, second, second+seconds, &o.notes)
	}

	d.mu.Lock()
	active := d.engine.Active()
	handled := lv.handled
	d.mu.Unlock()
	o.checks.checkCoverage(active, gen.hot, lv.ticks, 3)
	for _, f := range lv.frames {
		if err := lv.feed.apply(f); err != nil {
			o.checks.check("feed_decodes", false, "%v", err)
			break
		}
	}
	o.checks.checkFeed(lv.feed, active)
	st := d.srv.Stats()
	absorbed := int64(d.engine.RawIngested()) - d.engine.SelfAlerts()
	o.checks.check("accepted_equals_ingested", int64(st.AlertsAccepted) == absorbed && handled == st.AlertsAccepted,
		"ingest accepted %d, handler took %d, engine absorbed %d", st.AlertsAccepted, handled, absorbed)
	lates := lv.lateMs(lv.fire[first], lv.fire[lv.ticks-liveDrain])
	lateP99, lateMax := pct(lates, 99, "live.gen_late_p99_ms", &o.notes), maxOf(lates)
	o.checks.check("generator_on_schedule", lateP99 <= ms(liveLateP99) && lateMax <= ms(liveLateMax),
		"generator ran late: p99 %.1f ms, max %.1f ms (limits %s, %s); the run measured the scheduler",
		lateP99, lateMax, liveLateP99, liveLateMax)
	if traced {
		o.layers["live.gen_late_p99_ms"], o.layers["live.gen_late_max_ms"] = lateP99, lateMax
	}
	o.attempted = int64(lv.offered)
	o.lost = int64(lv.offered) - absorbed + int64(d.hub.StatsSnapshot().DroppedTotal-lv.counters[liveWarmup].dropped)
	checkLineage(&o.checks, d, lv.fire[lv.ticks])
	return o, nil
}

// handler builds the ingest batch handler: skynetd's handler body (the
// batch goes into the engine under the engine lock), plus a note of which
// tick will absorb each row and, when traced, the per-call timers.
func (lv *liveRun) handler(d *daemon) ingest.BatchHandler {
	return func(b *alert.Batch) {
		traced := lv.traced.Load()
		var entered time.Time
		if traced {
			entered = time.Now()
		}
		d.mu.Lock()
		var locked time.Time
		if traced {
			locked = time.Now()
		}
		d.engine.IngestBatch(b)
		if traced {
			lv.ingestDur += time.Since(locked)
			lv.lockWaits = append(lv.lockWaits, ms(locked.Sub(entered)))
			lv.calls++
			lv.rows += b.Len()
			for _, t := range b.Time {
				lv.lags = append(lv.lags, ms(entered.Sub(t)))
			}
		}
		k := min(lv.done+1, len(lv.absorbed)-1)
		for _, t := range b.Time {
			lv.absorbed[k] = append(lv.absorbed[k], t.UnixNano())
		}
		lv.handled += b.Len()
		d.mu.Unlock()
	}
}

// drive runs the generator, ticker and subscriber until every tick of
// the run has fired and been read.
func (lv *liveRun) drive(d *daemon, gen *liveGen, seconds int) error {
	sub, err := d.hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	if err != nil {
		return err
	}
	defer sub.Close()
	conn, err := net.Dial("tcp", d.srv.TCPAddr().String())
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(lv.ticks+30)*time.Second)
	defer cancel()
	stopGen := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	lv.start = time.Now()
	go func() {
		defer wg.Done()
		errs <- lv.generate(ctx, conn, gen, stopGen)
	}()
	go func() {
		defer wg.Done()
		errs <- lv.subscribe(ctx, sub)
	}()
	go func() {
		defer wg.Done()
		errs <- lv.tickLoop(ctx, d, liveWarmup+seconds, stopGen)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// generate writes the stream: alert i is due at start + i/liveRate and
// is stamped with that scheduled send time. Every millisecond it writes
// all alerts now due in one write, recording how late the first of them
// went out.
func (lv *liveRun) generate(ctx context.Context, conn net.Conn, gen *liveGen, stop <-chan struct{}) error {
	start := lv.start
	defer conn.Close()
	w := bufio.NewWriterSize(conn, 64<<10)
	period := time.Second / liveRate
	var buf []byte
	for {
		select {
		case <-stop:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("generator: %w", ctx.Err())
		default:
		}
		due := int(time.Since(start)/period) + 1
		if due > lv.offered {
			sched := start.Add(time.Duration(lv.offered) * period)
			buf = buf[:0]
			for ; lv.offered < due; lv.offered++ {
				buf = gen.next(buf, start.Add(time.Duration(lv.offered)*period))
			}
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("generator: %w", err)
			}
			if err := w.Flush(); err != nil {
				return fmt.Errorf("generator: %w", err)
			}
			lv.lates = append(lv.lates, lateSample{sched, time.Since(sched)})
		}
		time.Sleep(time.Millisecond)
	}
}

// tickLoop ticks the engine every wall second, as skynetd's main loop
// does, until the run's last tick. It stops the generator after tick
// stopAt and marks the second window traced after tick traceAt.
func (lv *liveRun) tickLoop(ctx context.Context, d *daemon, traceAt int, stopGen chan struct{}) error {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	rt := newRTReader()
	stopAt := lv.ticks - liveDrain
	for k := 1; k <= lv.ticks; k++ {
		var now time.Time
		select {
		case now = <-ticker.C:
		case <-ctx.Done():
			return fmt.Errorf("tick %d: %w", k, ctx.Err())
		}
		cpu := cpuTime()
		d.mu.Lock()
		start := time.Now()
		d.engine.Tick(now)
		dur := time.Since(start)
		lv.done = k
		lv.handledAt[k] = lv.handled
		d.mu.Unlock()
		d.flood.ObservePerf(dur, d.shedSum())
		lv.fire[k], lv.tickDur[k], lv.cpuAt[k] = now, dur, cpu
		lv.heap[k] = rt.liveHeap()
		lv.active[k] = d.reg.Gauge("skynet_active_incidents", "").Value()
		if lv.traced.Load() {
			if tr := d.tracer.Last(1); len(tr) == 1 {
				lv.stages[k] = readStages(&tr[0])
			}
		}
		if k == liveWarmup || k == traceAt || k == stopAt {
			d.mu.Lock()
			lv.counters[k] = readLiveCounters(d, &rt)
			d.mu.Unlock()
		}
		if k == traceAt {
			lv.traced.Store(true)
		}
		if k == stopAt {
			close(stopGen)
		}
	}
	return nil
}

func readLiveCounters(d *daemon, rt *rtReader) liveCounters {
	_, allocs, gcs := rt.read()
	pre := d.engine.PreprocessStats()
	st := d.srv.Stats()
	return liveCounters{
		allocs: allocs, gcs: gcs,
		rescored: d.reg.Counter("skynet_eval_rescored_total", "").Value(),
		skipped:  d.reg.Counter("skynet_eval_skipped_total", "").Value(),
		preIn:    pre.In, preOut: pre.Out,
		dropped: d.hub.StatsSnapshot().DroppedTotal,
		queueHW: st.QueueHighWater, queueFull: st.QueueFull,
	}
}

// subscribe is the operator: it blocks in Wait, takes the encoded bytes
// of every frame, notes when it held the delta of each tick, and keeps a
// copy for the feed check. It returns once it has read the last tick.
func (lv *liveRun) subscribe(ctx context.Context, sub *fanout.Subscriber) error {
	for {
		frames, err := sub.Wait(ctx)
		if err != nil {
			return fmt.Errorf("subscriber: %w", err)
		}
		returned := time.Now()
		last := uint64(0)
		for _, f := range frames {
			lv.feed.observeSeq(f.Kind(), f.Seq())
			k := f.Kind()
			if k != fanout.KindDelta && k != fanout.KindSnapshot {
				lv.frames = append(lv.frames, append([]byte(nil), f.Bytes()...))
				continue
			}
			traced := lv.traced.Load()
			e0 := time.Now()
			b := f.Bytes()
			held := time.Now()
			if traced && k == fanout.KindDelta {
				lv.encodes = append(lv.encodes, held.Sub(e0))
				lv.waits = append(lv.waits, ms(returned.Sub(f.PubAt())))
				lv.deltaBytes = append(lv.deltaBytes, len(b))
			}
			from, to, ok := deltaTicks(b)
			if !ok {
				return fmt.Errorf("subscriber: feed frame without a tick")
			}
			if k == fanout.KindSnapshot {
				from = 1
			}
			for t := from; t <= to && t < uint64(len(lv.readAt)); t++ {
				if lv.readAt[t].IsZero() {
					lv.readAt[t] = held
				}
			}
			last = max(last, to)
			lv.frames = append(lv.frames, append([]byte(nil), b...))
		}
		sub.ReleaseAll(frames)
		if last >= uint64(lv.ticks) {
			return nil
		}
	}
}

// latencies returns the window (from, to]'s per-alert alert-to-feed
// latencies (alerts scheduled in (fire[from], fire[to]]) and per-tick
// feed latencies, in ms.
func (lv *liveRun) latencies(from, to int) (alerts, ticks []float64) {
	lo, hi := lv.fire[from].UnixNano(), lv.fire[to].UnixNano()
	for k, sched := range lv.absorbed {
		if k >= len(lv.readAt) || lv.readAt[k].IsZero() {
			continue
		}
		read := lv.readAt[k].UnixNano()
		for _, s := range sched {
			if s > lo && s <= hi {
				alerts = append(alerts, float64(read-s)/1e6)
			}
		}
	}
	for k := from + 1; k <= to; k++ {
		if !lv.readAt[k].IsZero() {
			ticks = append(ticks, ms(lv.readAt[k].Sub(lv.fire[k])))
		}
	}
	return alerts, ticks
}

// endToEnd computes the end-to-end metrics of the window of ticks
// (from, to].
func (lv *liveRun) endToEnd(from, to int, notes *[]string) map[string]float64 {
	lat, _ := lv.latencies(from, to)
	var peak uint64
	for k := from + 1; k <= to; k++ {
		peak = max(peak, lv.heap[k])
	}
	wall := lv.fire[to].Sub(lv.fire[from])
	period := time.Second / liveRate
	offered := float64(lv.fire[to].Sub(lv.start)/period - lv.fire[from].Sub(lv.start)/period)
	return map[string]float64{
		"alerts_per_s":         float64(lv.handledAt[to]-lv.handledAt[from]) / wall.Seconds(),
		"alert_to_feed_p50_ms": pct(lat, 50, "alert_to_feed_p50_ms", notes),
		"cpu_ms_per_kalert":    ms(lv.cpuAt[to]-lv.cpuAt[from]) / (offered / 1000),
		"peak_heap_mb":         float64(peak) / 1e6,
	}
}

// layers computes the per-layer breakdown of the traced window (from,
// to].
func (lv *liveRun) layers(d *daemon, from, to int, notes *[]string) map[string]float64 {
	n := float64(to - from)
	var st stageTimes
	var tick, tail time.Duration
	var ticks []float64
	var active float64
	for k := from + 1; k <= to; k++ {
		st = st.add(lv.stages[k])
		tick += lv.tickDur[k]
		tail += lv.tickDur[k] - lv.stages[k].roots()
		ticks = append(ticks, ms(lv.tickDur[k]))
		active += lv.active[k]
	}
	c0, c1 := lv.counters[from], lv.counters[lv.ticks-liveDrain]
	var enc time.Duration
	for _, e := range lv.encodes {
		enc += e
	}
	var deltaBytes int
	for _, b := range lv.deltaBytes {
		deltaBytes += b
	}
	alerts := float64(lv.rows)
	m := st.perTick(n, tick)
	m["ingest.lag_p99_ms"] = pct(lv.lags, 99, "ingest.lag_p99_ms", notes)
	m["ingest.lock_wait_p99_ms"] = pct(lv.lockWaits, 99, "ingest.lock_wait_p99_ms", notes)
	m["ingest.batch_rows_mean"] = alerts / float64(max(lv.calls, 1))
	m["ingest.queue_high_water"] = float64(c1.queueHW)
	m["ingest.shed"] = float64(c1.queueFull - c0.queueFull)
	m["core.ingest_batch_ns_per_row"] = float64(lv.ingestDur.Nanoseconds()) / alerts
	m["core.tick_p50_ms"] = pct(ticks, 50, "core.tick_p50_ms", notes)
	m["core.tick_p90_ms"] = pct(ticks, 90, "core.tick_p90_ms", notes)
	m["core.tick_tail_ms"] = ms(tail) / n
	m["share.tail"] = float64(tail) / float64(tick)
	m["share.ingest"] = float64(lv.ingestDur) / float64(lv.ingestDur+tick)
	m["preprocess.out_ratio"] = float64(c1.preOut-c0.preOut) / float64(max(c1.preIn-c0.preIn, 1))
	m["locator.active_incidents"] = active / n
	rescored, skipped := float64(c1.rescored-c0.rescored), float64(c1.skipped-c0.skipped)
	m["evaluator.rescore_ratio"] = rescored / max(rescored+skipped, 1)
	m["fanout.wait_ms_p99"] = pct(lv.waits, 99, "fanout.wait_ms_p99", notes)
	m["fanout.encode_us"] = float64(enc.Microseconds()) / float64(max(len(lv.encodes), 1))
	m["fanout.delta_bytes"] = float64(deltaBytes) / float64(max(len(lv.deltaBytes), 1))
	m["fanout.snapshot_bytes"] = float64(d.hub.StatsSnapshot().SnapshotBytes)
	m["fanout.resync_drops"] = float64(c1.dropped - c0.dropped)
	m["runtime.alloc_bytes_per_alert"] = float64(c1.allocs-c0.allocs) / alerts
	m["runtime.gc_cycles"] = float64(c1.gcs - c0.gcs)
	*notes = append(*notes, "alert.decode_ns_per_row: JSON decoding happens inside the ingest listener, out of reach of an outside timer")
	return m
}

// lateMs returns the generator's lateness samples for sends scheduled in
// (from, to], in ms.
func (lv *liveRun) lateMs(from, to time.Time) []float64 {
	var out []float64
	for _, l := range lv.lates {
		if l.sched.After(from) && !l.sched.After(to) {
			out = append(out, ms(l.late))
		}
	}
	return out
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}
