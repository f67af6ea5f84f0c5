package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"skynet/internal/fanout"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
)

// feedInfo is the part of a feed incident row the rebuild check reads.
type feedInfo struct {
	ID       int     `json:"id"`
	Severity float64 `json:"severity"`
}

// feedDoc is a snapshot or delta document as it travels on the wire.
type feedDoc struct {
	Incidents []feedInfo `json:"incidents"`
	Opened    []feedInfo `json:"opened"`
	Updated   []feedInfo `json:"updated"`
	Closed    []feedInfo `json:"closed"`
}

// sevKey is a severity at the feed's fixed 4-digit precision.
func sevKey(v float64) int64 { return int64(math.Round(v * 10000)) }

// feedState is what a subscriber rebuilds from the snapshot it starts
// from plus every delta after it: incident ID → severity. It
// also checks that frame sequence numbers only move forward.
type feedState struct {
	incidents map[int]int64
	lastSeq   int64
	seqErr    string
	synced    bool
}

func newFeedState() *feedState { return &feedState{incidents: map[int]int64{}, lastSeq: -1} }

// observeSeq checks one frame's sequence number against the previous
// one. Resync notices carry no id on the wire and are skipped.
func (f *feedState) observeSeq(kind fanout.Kind, seq uint64) {
	if kind == fanout.KindResync {
		return
	}
	if int64(seq) <= f.lastSeq && f.seqErr == "" {
		f.seqErr = fmt.Sprintf("frame seq %d (%s) after %d", seq, kind, f.lastSeq)
	}
	f.lastSeq = int64(seq)
}

// apply folds one rendered SSE frame into the rebuilt feed.
func (f *feedState) apply(frame []byte) error {
	event, data, err := splitSSE(frame)
	if err != nil {
		return err
	}
	switch event {
	case fanout.EventSnapshot:
		var doc feedDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		clear(f.incidents)
		for _, in := range doc.Incidents {
			f.incidents[in.ID] = sevKey(in.Severity)
		}
		f.synced = true
	case fanout.EventDelta:
		if !f.synced {
			return nil // state before the first snapshot is unknown
		}
		var doc feedDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		for _, in := range slices.Concat(doc.Opened, doc.Updated) {
			f.incidents[in.ID] = sevKey(in.Severity)
		}
		for _, in := range doc.Closed {
			delete(f.incidents, in.ID)
		}
	}
	return nil
}

// splitSSE returns a frame's event name and data payload.
func splitSSE(frame []byte) (string, []byte, error) {
	var event string
	for _, line := range bytes.Split(bytes.TrimRight(frame, "\n"), []byte{'\n'}) {
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			return event, line[len("data: "):], nil
		}
	}
	return "", nil, fmt.Errorf("frame without data: %.60q", frame)
}

// deltaTicks reads the tick range a delta frame covers from its data
// payload ({"tick":N[,"from_tick":M]...}) without decoding the rest.
func deltaTicks(frame []byte) (from, to uint64, ok bool) {
	to, ok = jsonUint(frame, `"tick":`)
	if !ok {
		return 0, 0, false
	}
	from, okFrom := jsonUint(frame, `"from_tick":`)
	if !okFrom {
		from = to
	}
	return from, to, true
}

func jsonUint(b []byte, key string) (uint64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v uint64
	j := i + len(key)
	start := j
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		v = v*10 + uint64(b[j]-'0')
	}
	return v, j > start
}

// checks collects named output-check failures.
type checks struct {
	failed []string
	passed []string
}

func (c *checks) check(name string, ok bool, format string, args ...any) {
	if ok {
		c.passed = append(c.passed, name)
		return
	}
	c.failed = append(c.failed, name+": "+fmt.Sprintf(format, args...))
}

// checkCoverage: every injected hotspot device old enough to have been
// located is covered by an active incident whose location contains it.
func (c *checks) checkCoverage(active []*incident.Incident, hot []hotspot, tick, settle int) {
	var missing []string
	for _, hs := range hot {
		if tick-hs.since < settle {
			continue
		}
		for _, dev := range hs.devices {
			if !coveredBy(active, dev.path) {
				missing = append(missing, dev.path.String())
			}
		}
	}
	c.check("hotspots_located", len(missing) == 0, "%d hotspot devices with no covering incident, e.g. %s",
		len(missing), strings.Join(first(missing, 3), ", "))
}

func coveredBy(active []*incident.Incident, p hierarchy.Path) bool {
	for _, in := range active {
		if in.Root.Contains(p) {
			return true
		}
	}
	return false
}

func first(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// checkFeed: the feed the subscriber rebuilt equals Engine.Active() by ID
// and severity, and its frame sequence never moved backwards.
func (c *checks) checkFeed(f *feedState, active []*incident.Incident) {
	c.check("feed_seq_monotonic", f.seqErr == "", "%s", f.seqErr)
	want := make(map[int]int64, len(active))
	for _, in := range active {
		want[in.ID] = sevKey(in.Severity)
	}
	var diffs []string
	for id, sev := range want {
		got, ok := f.incidents[id]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("#%d missing from feed", id))
		case got != sev:
			diffs = append(diffs, fmt.Sprintf("#%d severity %d in feed, %d in engine", id, got, sev))
		}
	}
	for id := range f.incidents {
		if _, ok := want[id]; !ok {
			diffs = append(diffs, fmt.Sprintf("#%d in feed but not active", id))
		}
	}
	sort.Strings(diffs)
	c.check("feed_matches_engine", f.synced && len(diffs) == 0,
		"synced=%v, %d of %d active incidents differ: %s", f.synced, len(diffs), len(active),
		strings.Join(first(diffs, 4), "; "))
}

// digest is the final incident set in a worker-count independent form:
// IDs, locations and severities, self-monitoring incidents excluded
// (their tick-latency and GC inputs are measured, not replayed).
func digest(active []*incident.Incident) string {
	meta := hierarchy.MetaRoot()
	var b strings.Builder
	for _, in := range active {
		if meta.Contains(in.Root) {
			continue
		}
		fmt.Fprintf(&b, "%d %s %s %.12g\n", in.ID, in.Root, in.Zoomed, in.Severity)
	}
	return b.String()
}
