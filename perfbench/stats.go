package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"skynet/internal/span"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer behind it is one or two unlucky samples, not a
// property of the program, so the helper refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses when fewer than minBeyond samples lie above the
// rank. samples is sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	slices.Sort(samples)
	return samples[rank-1], nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open [start, end) span of a trace, in offsets from
// the trace start.
type interval struct{ start, end time.Duration }

// coverage returns the total length of the union of ivs. ivs is sorted
// in place.
func coverage(ivs []interval) time.Duration {
	slices.SortFunc(ivs, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		if open {
			total += cur.end - cur.start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// childCover returns how much of span parent's interval its direct
// children named name cover (every child when name is ""). A parallel
// fork's shard spans overlap, so this is the fork's wall time, not the
// sum of its shards.
func childCover(tr *span.Trace, parent int, name string) time.Duration {
	var ivs []interval
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if int(sp.Parent) != parent || (name != "" && sp.Name != name) {
			continue
		}
		ivs = append(ivs, interval{sp.Start, sp.Start + sp.Dur})
	}
	return coverage(ivs)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover.
func selfTime(tr *span.Trace, idx int) time.Duration {
	return tr.Spans[idx].Dur - childCover(tr, idx, "")
}

// findSpan returns the index of the first span named name under parent,
// or -1.
func findSpan(tr *span.Trace, parent int, name string) int {
	for i := range tr.Spans {
		if int(tr.Spans[i].Parent) == parent && tr.Spans[i].Name == name {
			return i
		}
	}
	return -1
}

// stageTimes is the per-layer wall time of one engine tick, read from
// its span tree.
type stageTimes struct {
	preprocess, classify, consolidate, sweep, preSelf time.Duration
	locate, addbatch, check, expire, compcount        time.Duration
	evaluate, refineScore, sop                        time.Duration
}

// readStages extracts the layer times of one tick. Fork stages (classify,
// consolidate, expire, compcount, refine_score) are the wall time their
// shards cover, not the sum of shard durations.
func readStages(tr *span.Trace) stageTimes {
	var st stageTimes
	dur := func(i int) time.Duration {
		if i < 0 {
			return 0
		}
		return tr.Spans[i].Dur
	}
	if pre := findSpan(tr, 0, "preprocess"); pre >= 0 {
		st.preprocess = dur(pre)
		st.classify = childCover(tr, pre, "classify")
		st.consolidate = childCover(tr, pre, "consolidate")
		st.sweep = dur(findSpan(tr, pre, "sweep"))
		st.preSelf = selfTime(tr, pre)
	}
	if loc := findSpan(tr, 0, "locate"); loc >= 0 {
		st.locate = dur(loc)
		st.addbatch = dur(findSpan(tr, loc, "addbatch"))
		if ck := findSpan(tr, loc, "check"); ck >= 0 {
			st.check = dur(ck)
			st.expire = childCover(tr, ck, "expire")
			st.compcount = childCover(tr, ck, "compcount")
		}
	}
	if ev := findSpan(tr, 0, "evaluate"); ev >= 0 {
		st.evaluate = dur(ev)
		st.refineScore = childCover(tr, ev, "refine_score")
	}
	st.sop = dur(findSpan(tr, 0, "sop"))
	return st
}

// roots is the summed duration of the tick's root stages — the part of
// Engine.Tick the span tree accounts for.
func (st stageTimes) roots() time.Duration {
	return st.preprocess + st.locate + st.evaluate + st.sop
}
