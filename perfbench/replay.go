package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"skynet/internal/alert"
	"skynet/internal/fanout"
)

// replay drives a closed-loop workload in simulated time: every tick is
// one simulated second whose wire lines are decoded, ingested, ticked,
// and read back off the feed before the next tick's lines are generated.
type replay struct {
	d     *daemon
	gen   replayGen
	sub   *fanout.Subscriber
	feed  *feedState
	batch alert.Batch
	buf   []byte
	ends  []int
	tick  int
	now   time.Time

	offered    int // wire lines handed to decode
	decodeErrs int
	// dropBase is the hub's drop count after the first poll, which skips
	// the frames the initial snapshot folds in; later drops are losses.
	dropBase uint64
	rt       rtReader
}

// simEpoch is the simulated clock's start; any fixed instant works.
var simEpoch = time.Date(2025, 6, 2, 8, 0, 0, 0, time.UTC)

func newReplay(d *daemon, gen replayGen) (*replay, error) {
	sub, err := d.hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	if err != nil {
		return nil, err
	}
	return &replay{d: d, gen: gen, sub: sub, feed: newFeedState(), now: simEpoch, rt: newRTReader()}, nil
}

// tickSample is what one closed-loop tick measured.
type tickSample struct {
	rows int
	lat  time.Duration // handoff of the wire lines → subscriber holds the encoded delta
	cpu  time.Duration // process user+sys CPU over the same section
	heap uint64        // live heap after the tick

	engineTick time.Duration // the Engine.Tick call alone

	// Traced runs only.
	decode, ingest time.Duration
	wait, encode   time.Duration // delta PubAt → Poll return; first Bytes
	deltaBytes     int
	stages         stageTimes
	hasStages      bool
}

// step runs one tick. Only the section from handing the lines to decode
// until the subscriber holds the delta is timed; generating the lines and
// checking the feed are the benchmark's own cost and stay outside it.
func (r *replay) step(traced bool) (tickSample, error) {
	r.tick++
	r.now = r.now.Add(time.Second)
	r.buf, r.ends = r.gen.lines(r.tick, r.now, r.buf[:0], r.ends[:0])
	var s tickSample
	s.rows = len(r.ends)
	r.offered += s.rows

	cpu0 := cpuTime()
	t0 := time.Now()
	r.batch.Reset()
	lo := 0
	for _, hi := range r.ends {
		if err := r.batch.AppendWire(r.buf[lo:hi]); err != nil {
			r.decodeErrs++
		}
		lo = hi
	}
	var t1, t2 time.Time
	if traced {
		t1 = time.Now()
	}
	r.d.ingestBatch(&r.batch)
	if traced {
		t2 = time.Now()
	}
	_, tickDur := r.d.tick(r.now)
	frames, _, err := r.sub.Poll()
	polled := time.Now()
	// The tick's feed frame: its delta, or on the first poll the
	// snapshot the delta is folded into.
	var delta *fanout.Frame
	for _, f := range frames {
		if k := f.Kind(); k == fanout.KindDelta || k == fanout.KindSnapshot {
			delta = f
		}
	}
	if traced && delta != nil {
		e0 := time.Now()
		delta.Bytes() // the first reader renders the deferred delta
		s.encode = time.Since(e0)
	}
	for _, f := range frames {
		f.Bytes()
	}
	t4 := time.Now()
	s.cpu = cpuTime() - cpu0
	s.lat = t4.Sub(t0)
	s.engineTick = tickDur
	if err != nil {
		return s, fmt.Errorf("tick %d: poll: %w", r.tick, err)
	}
	if traced {
		s.decode, s.ingest = t1.Sub(t0), t2.Sub(t1)
		if delta != nil {
			s.wait = polled.Sub(delta.PubAt())
			s.deltaBytes = len(delta.Bytes())
		}
		if tr := r.d.tracer.Last(1); len(tr) == 1 {
			s.stages, s.hasStages = readStages(&tr[0]), true
		}
	}
	ferr := r.readFeed(frames, delta)
	r.sub.ReleaseAll(frames)
	if r.tick == 1 {
		r.dropBase = r.d.hub.StatsSnapshot().DroppedTotal
	}
	s.heap = r.rt.liveHeap()
	return s, ferr
}

// readFeed folds the tick's frames into the rebuilt feed and checks the
// delta covers this tick.
func (r *replay) readFeed(frames []*fanout.Frame, delta *fanout.Frame) error {
	for _, f := range frames {
		r.feed.observeSeq(f.Kind(), f.Seq())
		if err := r.feed.apply(f.Bytes()); err != nil {
			return fmt.Errorf("tick %d: feed: %w", r.tick, err)
		}
	}
	if delta == nil {
		return fmt.Errorf("tick %d: no feed frame reached the subscriber", r.tick)
	}
	if _, to, ok := deltaTicks(delta.Bytes()); !ok || to != uint64(r.tick) {
		return fmt.Errorf("tick %d: subscriber got the feed frame of tick %d", r.tick, to)
	}
	return nil
}

// run steps n ticks untimed-for-reporting (warm-up or replay).
func (r *replay) run(n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.step(false); err != nil {
			return err
		}
	}
	return nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtReader reads runtime/metrics without allocating.
type rtReader struct{ s []metrics.Sample }

func newRTReader() rtReader {
	return rtReader{s: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (r *rtReader) read() (live, allocs, cycles uint64) {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64(), r.s[1].Value.Uint64(), r.s[2].Value.Uint64()
}

func (r *rtReader) liveHeap() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}
