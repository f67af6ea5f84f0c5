package fanout

import (
	"context"
	"sync/atomic"
	"time"
)

// SubscribeOptions positions a new subscriber in the stream.
type SubscribeOptions struct {
	// Cursor resumes delivery after the given sequence (the SSE
	// Last-Event-ID contract: the client has seen frames up to and
	// including Cursor). Negative means a fresh subscriber: it is
	// served the latest snapshot first, then the live tail.
	Cursor int64
}

// Subscriber is one consumer's cursor into the hub. All delivery state
// lives here; the hub's publish path never touches it beyond the
// bounded eviction scan.
type Subscriber struct {
	hub *Hub

	// cursor is the next ring sequence wanted. Written by the consumer
	// under the hub's read lock, read by the eviction scan and stats
	// under the write lock — atomic so lock-free readers (Stats) stay
	// exact.
	cursor  atomic.Uint64
	evicted atomic.Bool
	idx     int // position in hub.subs; -1 once removed

	// Consumer-owned state (see the package concurrency contract).
	needSnapshot bool
	seen         [numKinds]uint64 // ring frames < cursor delivered or drop-accounted
	tb           tokenBucket
	out          []*Frame // reused result slice
}

// Subscribe registers a consumer. A fresh subscriber (Cursor < 0) gets
// the latest snapshot on its first poll; a resuming one continues after
// its Last-Event-ID, resynced if that position has fallen off the ring.
func (h *Hub) Subscribe(opt SubscribeOptions) (*Subscriber, error) {
	s := &Subscriber{hub: h, idx: -1}
	if h.cfg.Rate > 0 {
		s.tb = tokenBucket{rate: h.cfg.Rate, burst: float64(h.cfg.Burst), tokens: float64(h.cfg.Burst)}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	var cursor uint64
	if opt.Cursor < 0 {
		// Fresh: state comes from the snapshot; the stream continues
		// right after the snapshot's as-of point. Before the first
		// tick there is no snapshot — start at the head and keep
		// waiting for one.
		s.needSnapshot = true
		cursor = h.head
		if h.snapshot != nil && h.snapshot.seq+1 >= h.tail {
			cursor = h.snapshot.seq + 1
		}
	} else {
		cursor = uint64(opt.Cursor) + 1
		if cursor > h.head {
			// Ahead of this hub's stream (e.g. a daemon restart):
			// treat as fresh so the client's stale state is replaced.
			cursor = h.head
			s.needSnapshot = true
		}
	}
	// Baseline the per-kind accounting at the cursor. For an off-ring
	// resume the kinds between cursor and tail are unobservable; they
	// are charged to the "unknown" drop counter at resync time.
	base := cursor
	if base < h.tail {
		base = h.tail
	}
	s.seen = h.cumAtLocked(base)
	s.cursor.Store(cursor)
	s.idx = len(h.subs)
	h.subs = append(h.subs, s)
	h.subCount.Add(1)
	return s, nil
}

// Close unregisters the subscriber. Frames already returned by
// Poll/Wait stay valid until released. Idempotent.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	if s.idx >= 0 {
		h.removeLocked(s)
	}
	h.mu.Unlock()
}

// Cursor returns the next sequence this subscriber wants — the value a
// client would present as Last-Event-ID minus one.
func (s *Subscriber) Cursor() uint64 { return s.cursor.Load() }

// Poll returns every frame pending for this subscriber without
// blocking: a resync event and/or snapshot when needed, then the ring
// tail with consecutive deltas merged into one frame. The returned
// slice is reused by the next Poll/Wait call; the caller must Release
// every frame (ReleaseAll) before that. Returns (nil, nil, nil) when
// nothing is pending; the returned channel (when non-nil) is closed at
// the next publish.
func (s *Subscriber) Poll() ([]*Frame, <-chan struct{}, error) {
	h := s.hub
	if s.evicted.Load() {
		return nil, nil, ErrEvicted
	}
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	if s.evicted.Load() {
		h.mu.RUnlock()
		return nil, nil, ErrEvicted
	}
	out := s.out[:0]
	cursor := s.cursor.Load()
	head, tail, snap := h.head, h.tail, h.snapshot

	// Track the worst backlog the hub has seen, measured at poll time.
	if lag := head - cursor; lag > 0 {
		for {
			cur := h.queueHW.Load()
			if lag <= cur || h.queueHW.CompareAndSwap(cur, lag) {
				break
			}
		}
	}

	// 1. Fallen off the ring: resync. Jump to the snapshot's as-of
	// point when the snapshot is still in range, else to the ring tail
	// (the next tick's snapshot completes the resync). Every skipped
	// frame is accounted, by kind where the ring still knows it.
	if cursor < tail {
		target := tail
		useSnap := snap != nil && snap.seq+1 >= tail
		if useSnap {
			target = snap.seq + 1
		}
		skipped := target - cursor
		cumT := h.cumAtLocked(target)
		var byKind [numKinds]uint64
		var known uint64
		for k := range cumT {
			byKind[k] = cumT[k] - s.seen[k]
			known += byKind[k]
		}
		unknown := uint64(0)
		if skipped > known {
			unknown = skipped - known
		}
		for k := range byKind {
			if byKind[k] > 0 {
				h.dropped[k].Add(byKind[k])
			}
		}
		if unknown > 0 {
			h.droppedUnkn.Add(unknown)
		}
		h.resyncs.Add(1)
		s.seen = cumT
		cursor = target
		out = append(out, h.makeResyncFrame(target, skipped, &byKind, unknown))
		if useSnap {
			snap.retain()
			out = append(out, snap)
			s.needSnapshot = false
		} else {
			s.needSnapshot = true
		}
	}

	// 2. Initial (or post-resync) snapshot, once one that is current
	// enough exists: at or ahead of the cursor so delivery never moves
	// backwards.
	if s.needSnapshot && snap != nil && snap.seq+1 >= cursor && snap.seq+1 >= tail {
		// Frames between the cursor and the snapshot's as-of point
		// are already folded into the snapshot; skip them, accounted.
		if target := snap.seq + 1; cursor < target {
			cumT := h.cumAtLocked(target)
			for k := range cumT {
				if d := cumT[k] - s.seen[k]; d > 0 {
					h.dropped[k].Add(d)
				}
			}
			s.seen = cumT
			cursor = target
		}
		snap.retain()
		out = append(out, snap)
		s.needSnapshot = false
	}

	// 3. The live tail, coalescing runs of consecutive deltas into one
	// merged frame. Ring slots in [tail, head) are immutable while the
	// read lock is held.
	var run []*Frame
	flush := func() {
		switch len(run) {
		case 0:
		case 1:
			run[0].retain()
			out = append(out, run[0])
		default:
			out = append(out, h.mergeRun(run))
			h.coalesced.Add(uint64(len(run) - 1))
		}
		run = run[:0]
	}
	for seq := cursor; seq < head; seq++ {
		f := h.ring[seq&h.mask]
		s.seen[f.kind]++
		if f.kind == KindDelta {
			run = append(run, f)
			continue
		}
		flush()
		f.retain()
		out = append(out, f)
	}
	flush()
	cursor = head
	s.cursor.Store(cursor)

	var wake <-chan struct{}
	if len(out) == 0 {
		wake = h.wake
	}
	h.mu.RUnlock()
	s.out = out
	if len(out) == 0 {
		return nil, wake, nil
	}
	return out, nil, nil
}

// Wait blocks until frames are pending (or ctx is done / the hub
// closes / the subscriber is evicted), honouring the hub's per-client
// rate limit: delivery waits for a token, and everything published in
// the meantime arrives as one coalesced batch. The returned slice is
// reused by the next call; Release every frame first.
func (s *Subscriber) Wait(ctx context.Context) ([]*Frame, error) {
	h := s.hub
	if s.tb.rate > 0 {
		if d := s.tb.reserve(h.now()); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				s.tb.refund()
				return nil, ctx.Err()
			}
		}
	}
	for {
		frames, wake, err := s.Poll()
		if err != nil {
			return nil, err
		}
		if len(frames) > 0 {
			return frames, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// ReleaseAll releases every frame in a batch returned by Poll or Wait.
func (s *Subscriber) ReleaseAll(frames []*Frame) {
	for _, f := range frames {
		f.Release()
	}
}

// mergeRun builds a subscriber-owned frame merging a run of >= 2
// consecutive delta frames: one decode-free structural merge, one
// encode, one write — a client that missed N deltas gets 1 frame.
// Called under the hub read lock (pools are concurrency-safe; source
// deltas are immutable).
func (h *Hub) mergeRun(run []*Frame) *Frame {
	f := h.framePool.Get().(*Frame)
	last := run[len(run)-1]
	buf := f.buf
	*f = Frame{kind: KindDelta, hub: h, seq: last.seq, pubAt: run[0].pubAt, buf: buf[:0]}
	f.refs.Store(1)
	d := h.deltaPool.Get().(*FeedDelta)
	d.copyFrom(run[0].delta)
	for _, src := range run[1:] {
		mergeDelta(d, src.delta)
	}
	f.delta = d
	var stamp int64
	if h.cfg.WallStamp {
		stamp = h.now().UnixNano()
	}
	f.buf = renderHeader(f.buf, last.seq, true, EventDelta)
	f.buf = d.appendJSON(f.buf, stamp)
	f.buf = append(f.buf, '\n', '\n')
	return f
}

// makeResyncFrame builds the drop-accounted gap notice delivered before
// a resync. It carries no id line: resuming from a resync re-presents
// the previous position, which is exactly what triggered the resync.
// Its Seq is the last skipped sequence (resumeSeq-1) — the as-of point
// of the snapshot that may follow it — so delivery order never moves
// backwards across the resync.
func (h *Hub) makeResyncFrame(resumeSeq, skipped uint64, byKind *[numKinds]uint64, unknown uint64) *Frame {
	f := h.framePool.Get().(*Frame)
	buf := f.buf
	*f = Frame{kind: KindResync, hub: h, seq: resumeSeq - 1, pubAt: h.now(), buf: buf[:0]}
	f.refs.Store(1)
	f.buf = renderHeader(f.buf, 0, false, EventResync)
	f.buf = append(f.buf, `{"skipped":`...)
	f.buf = appendUint(f.buf, skipped)
	f.buf = append(f.buf, `,"resume_seq":`...)
	f.buf = appendUint(f.buf, resumeSeq)
	first := true
	for k := Kind(0); k < numKinds; k++ {
		if byKind[k] == 0 {
			continue
		}
		if first {
			f.buf = append(f.buf, `,"dropped":{`...)
			first = false
		} else {
			f.buf = append(f.buf, ',')
		}
		f.buf = appendJSONString(f.buf, kindNames[k])
		f.buf = append(f.buf, ':')
		f.buf = appendUint(f.buf, byKind[k])
	}
	if !first {
		f.buf = append(f.buf, '}')
	}
	if unknown > 0 {
		f.buf = append(f.buf, `,"unknown":`...)
		f.buf = appendUint(f.buf, unknown)
	}
	f.buf = append(f.buf, '}', '\n', '\n')
	return f
}

// tokenBucket rate-limits one subscriber's deliveries. Consumer-owned;
// no locking.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// reserve takes one token, returning how long the caller must wait
// before acting on it (0 when a token was available).
func (tb *tokenBucket) reserve(now time.Time) time.Duration {
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	tb.tokens--
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}

// refund returns a reserved token (the caller gave up waiting).
func (tb *tokenBucket) refund() {
	tb.tokens++
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}
