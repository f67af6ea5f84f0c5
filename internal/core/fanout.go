package core

import (
	"slices"
	"time"

	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/incident"
)

// EnableFanout attaches the snapshot+delta serving hub: every Tick then
// publishes one immutable feed snapshot plus one compact delta (opened,
// updated, closed incidents, flood phase, SLO burn state) into the
// hub's shared ring. The engine's cost is building and encoding the two
// documents exactly once — fan-out to any number of subscribers happens
// on the hub's side by reference and never touches the tick path.
// Call before the first Tick.
func (e *Engine) EnableFanout(h *fanout.Hub) {
	e.fan = h
	e.fanSeen = make(map[int]struct{})
}

// observeFanout publishes this tick's snapshot and delta. Runs at the
// very end of Tick, after every observer has settled, so both documents
// reflect the tick's final state. Both documents are built directly
// into hub-owned pooled scratch and handed over without a copy
// (PublishTickOwned); only the seen set stays engine-owned.
func (e *Engine) observeFanout(now time.Time, res *TickResult, active []*incident.Incident) {
	d := e.fan.AcquireDelta()
	d.Tick = e.tickCount
	d.FromTick = e.tickCount
	d.Time = now
	d.Structured = res.Structured
	d.Coalesced = 1

	// Closed lists every incident that leaves the active feed: those
	// that timed out, and — as ID-only rows — those an opening incident
	// absorbed (Algorithm 2, lines 7–9), which leave without closing.
	for _, in := range e.loc.ClosedSince(e.fanClosedSeen) {
		d.Closed = append(d.Closed, fanout.NewIncidentInfo(in))
	}
	e.fanClosedSeen = e.loc.ClosedCount()
	for _, in := range res.NewIncidents {
		for _, id := range in.MergedFrom {
			d.Closed = append(d.Closed, fanout.IncidentInfo{ID: id})
		}
	}
	// Delta lists are ID-sorted: the hub's coalescing merge relies on
	// it, and it makes merged deltas bit-identical for every subscriber.
	// Opened/Updated arrive nearly sorted (creation/active order);
	// Closed is in close order, which need not be, and a chain of
	// absorptions inside one tick can name an ID twice.
	byID := func(a, b fanout.IncidentInfo) int { return a.ID - b.ID }
	slices.SortFunc(d.Closed, byID)
	d.Closed = slices.CompactFunc(d.Closed, func(a, b fanout.IncidentInfo) bool { return a.ID == b.ID })

	clear(e.fanSeen)
	for _, in := range res.NewIncidents {
		e.fanSeen[in.ID] = struct{}{}
		// Opened and absorbed within this tick: reported only as closed,
		// as mergeDelta does for a window.
		if _, gone := slices.BinarySearchFunc(d.Closed, in.ID, func(c fanout.IncidentInfo, id int) int { return c.ID - id }); !gone {
			d.Opened = append(d.Opened, fanout.NewIncidentInfo(in))
		}
	}
	// Updated = re-scored this tick but not newly created. evalDirty is
	// in active-set order, which is deterministic across worker counts.
	for _, in := range e.evalDirty {
		if _, isNew := e.fanSeen[in.ID]; !isNew {
			d.Updated = append(d.Updated, fanout.NewIncidentInfo(in))
		}
	}
	slices.SortFunc(d.Opened, byID)
	slices.SortFunc(d.Updated, byID)

	phase, episode := "", uint64(0)
	if e.flood != nil {
		if p := e.flood.CurrentPhase(); p != flood.PhaseIdle {
			phase = p.String()
			episode = e.flood.CurrentID()
		}
	}
	firing := 0
	if e.sloEng != nil {
		firing = int(e.sloEng.FiringCount())
	}
	d.FloodPhase, d.FloodEpisode, d.SLOFiring = phase, episode, firing

	// The full snapshot — O(active incidents) to build and copy — goes
	// out on the hub's cadence only; the per-tick publish stays
	// proportional to what changed. Tick 1 always snapshots so fresh
	// subscribers have a starting point immediately.
	var s *fanout.FeedSnapshot
	if (e.tickCount-1)%e.fan.SnapshotEvery() == 0 {
		s = e.fan.AcquireSnapshot()
		s.Tick = e.tickCount
		s.Time = now
		s.RawTotal = e.rawIn
		s.Structured = res.Structured
		s.ClosedTotal = e.fanClosedSeen
		for _, in := range active {
			s.Incidents = append(s.Incidents, fanout.NewIncidentInfo(in))
		}
		s.FloodPhase, s.FloodEpisode, s.SLOFiring = phase, episode, firing
	}

	e.fan.PublishTickOwned(s, d)
}
