package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/fanout"
	"skynet/internal/hierarchy"
)

// feedFromFrames is a subscriber's incident feed rebuilt from SSE frames
// alone: a snapshot replaces the state, a delta upserts its opened and
// updated rows and removes its closed ones.
type feedFromFrames map[int]bool

func (f feedFromFrames) apply(t *testing.T, frames []*fanout.Frame) {
	t.Helper()
	for _, fr := range frames {
		b := fr.Bytes()
		i := bytes.Index(b, []byte("data: "))
		if i < 0 {
			t.Fatalf("frame without data: %q", b)
		}
		var doc struct {
			Incidents, Opened, Updated, Closed []struct {
				ID int `json:"id"`
			}
		}
		if err := json.Unmarshal(bytes.TrimSpace(b[i+len("data: "):]), &doc); err != nil {
			t.Fatalf("frame %q: %v", b, err)
		}
		switch fr.Kind() {
		case fanout.KindSnapshot:
			clear(f)
			for _, in := range doc.Incidents {
				f[in.ID] = true
			}
		case fanout.KindDelta:
			for _, in := range slices.Concat(doc.Opened, doc.Updated) {
				f[in.ID] = true
			}
			for _, in := range doc.Closed {
				delete(f, in.ID)
			}
		}
	}
}

func (f feedFromFrames) ids() []int {
	var out []int
	for id := range f {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TestFanoutFeedDropsAbsorbedIncidents replays a merge: an incident
// opens at one device, then the failure widens to its link peer and a
// wider incident absorbs the first (Algorithm 2, lines 7–9). A feed
// rebuilt from the published frames alone must hold exactly the
// engine's active set — no ghost of the absorbed incident — both for a
// subscriber applying every delta and for a lagging one whose deltas
// the hub coalesced.
func TestFanoutFeedDropsAbsorbedIncidents(t *testing.T) {
	topo := smallTopo()
	e := NewEngine(DefaultConfig(), topo, nil, nil, nil)
	hub := fanout.NewHub(fanout.Config{Ring: 64})
	defer hub.Close()
	e.EnableFanout(hub)

	poll := func(sub *fanout.Subscriber, feed feedFromFrames) {
		frames, _, err := sub.Poll()
		if err != nil {
			t.Fatal(err)
		}
		feed.apply(t, frames)
		sub.ReleaseAll(frames)
	}
	ingest := func(at time.Time, loc hierarchy.Path) {
		for _, typ := range []string{alert.TypePacketLoss, alert.TypeEndToEndICMP} {
			a := alert.Alert{Source: alert.SourcePing, Type: typ, Class: alert.Classify(alert.SourcePing, typ),
				Time: at, End: at, Location: loc, Value: 0.5, Count: 1}
			e.Ingest(a)
		}
	}

	e.Tick(epoch) // first snapshot, empty feed
	live, _ := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	lagging, _ := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	liveFeed, lagFeed := feedFromFrames{}, feedFromFrames{}
	poll(live, liveFeed)
	poll(lagging, lagFeed)

	lnk := topo.Link(0)
	a, b := topo.Device(lnk.A).Path, topo.Device(lnk.B).Path
	ingest(epoch.Add(time.Second), a)
	first := e.Tick(epoch.Add(10 * time.Second)).NewIncidents
	poll(live, liveFeed)
	ingest(epoch.Add(20*time.Second), b)
	second := e.Tick(epoch.Add(30 * time.Second)).NewIncidents
	poll(live, liveFeed)
	e.Tick(epoch.Add(40 * time.Second))
	poll(live, liveFeed)
	poll(lagging, lagFeed)

	if len(first) != 1 || len(second) != 1 || !slices.Contains(second[0].MergedFrom, first[0].ID) {
		t.Fatalf("setup: want incident %v absorbed by %v", first, second)
	}
	var want []int
	for _, in := range e.Active() {
		want = append(want, in.ID)
	}
	if got := liveFeed.ids(); !slices.Equal(got, want) {
		t.Errorf("per-delta feed = %v, engine active = %v", got, want)
	}
	if got := lagFeed.ids(); !slices.Equal(got, want) {
		t.Errorf("coalesced feed = %v, engine active = %v", got, want)
	}
	if st := hub.StatsSnapshot(); st.Coalesced == 0 {
		t.Errorf("lagging subscriber's deltas were not coalesced: %+v", st)
	}
}
