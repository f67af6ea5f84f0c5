package preprocess

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
)

// quietPopulation builds a Workers=1 preprocessor holding one
// uncorroborated traffic-drop stream per noise source at each of
// devices locations — the flood's quiet tail — and returns it with the
// tick time after the population was swept once.
func quietPopulation(t *testing.T, devices int) (*Preprocessor, []hierarchy.Path, time.Time) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := New(cfg, nil, nil)
	locs := make([]hierarchy.Path, devices)
	for i := range locs {
		locs[i] = hierarchy.MustNew("RG01", "CT01", "LS01",
			fmt.Sprintf("ST%02d", i%100), fmt.Sprintf("CL%02d", i/100%6), fmt.Sprintf("dev-%d", i))
	}
	for _, loc := range locs {
		for _, src := range []alert.Source{alert.SourceTraffic, alert.SourceSNMP, alert.SourceNetFlow} {
			p.Add(raw(src, alert.TypeTrafficDrop, epoch, loc, 0.3))
		}
	}
	now := epoch.Add(time.Second)
	if out := p.Tick(now); len(out) != 0 {
		t.Fatalf("uncorroborated drops emitted %d alerts", len(out))
	}
	if len(p.due) != 3*devices {
		t.Fatalf("first sweep visited %d aggregates, want all %d new ones", len(p.due), 3*devices)
	}
	return p, locs, now
}

// TestQuietTickVisitsOnlyDue pins the sweep at O(due): with ~36K
// suspended, quiet aggregates live, a tick with no input visits none of
// them, repeats of quiet streams make none of them due, and k new streams
// cost exactly k visits.
func TestQuietTickVisitsOnlyDue(t *testing.T) {
	p, locs, now := quietPopulation(t, 12_000)

	now = now.Add(time.Second)
	p.Tick(now)
	if len(p.due) != 0 {
		t.Errorf("input-free tick visited %d aggregates, want 0", len(p.due))
	}

	// Repeats of suspended streams change nothing a sweep could act on.
	for _, loc := range locs[:500] {
		p.Add(raw(alert.SourceTraffic, alert.TypeTrafficDrop, now, loc, 0.3))
	}
	now = now.Add(time.Second)
	p.Tick(now)
	if len(p.due) != 0 {
		t.Errorf("tick of quiet repeats visited %d aggregates, want 0", len(p.due))
	}

	// k new streams that corroborate nothing: exactly k visits.
	const k = 7
	for _, loc := range locs[:k] {
		p.Add(raw(alert.SourceOutOfBand, alert.TypeDeviceInaccessible, now, loc, 1))
	}
	now = now.Add(time.Second)
	if out := p.Tick(now); len(out) != k {
		t.Errorf("emitted %d alerts, want %d", len(out), k)
	}
	if len(p.due) != k {
		t.Errorf("tick with %d new streams visited %d aggregates", k, len(p.due))
	}

	// A failure at one site corroborates that site's drops, and only
	// those: the new failure stream plus 3 drops at each of its devices.
	site := locs[0].Truncate(hierarchy.LevelSite)
	inSite := 0
	for _, loc := range locs {
		if loc.Truncate(hierarchy.LevelSite) == site {
			inSite++
		}
	}
	p.Add(raw(alert.SourceSNMP, alert.TypeLinkDown, now, locs[0], 1))
	now = now.Add(time.Second)
	if out := p.Tick(now); len(out) != 1+3*inSite {
		t.Errorf("corroborated tick emitted %d alerts, want %d", len(out), 1+3*inSite)
	}
	if len(p.due) != 1+3*inSite {
		t.Errorf("corroborated tick visited %d aggregates, want %d", len(p.due), 1+3*inSite)
	}
}

// TestQuietTickAllocatesNothing pins the input-free tick at zero
// allocations on the serial path.
func TestQuietTickAllocatesNothing(t *testing.T) {
	p, _, now := quietPopulation(t, 12_000)
	allocs := testing.AllocsPerRun(50, func() {
		now = now.Add(time.Second)
		p.Tick(now)
	})
	if allocs != 0 {
		t.Errorf("quiet Tick allocates %.1f times, want 0", allocs)
	}
}

// TestAggregateSize keeps the aggregate inside its 448-byte size class:
// the flood keeps tens of thousands alive, so one more word costs a
// larger class for every one of them.
func TestAggregateSize(t *testing.T) {
	if n := unsafe.Sizeof(aggregate{}); n > 448 {
		t.Errorf("aggregate is %d bytes, want at most 448", n)
	}
}
