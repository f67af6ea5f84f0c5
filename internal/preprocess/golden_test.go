package preprocess

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/provenance"
	"skynet/internal/topology"
)

// The golden sweep test pins the preprocessor's observable output —
// every emitted alert in order, the Stats funnel, and the provenance
// ledger — for a fixed set of seeded streams. The records in
// testdata/sweep_golden.txt were captured from the full-population sweep
// (every live aggregate visited every tick), so any sweep that visits
// fewer aggregates must reproduce that output exactly. Regenerate with
// `go test ./internal/preprocess -run TestSweepGolden -update` only when
// a deliberate behaviour change is being made.

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_golden.txt from the current code")

const goldenFile = "testdata/sweep_golden.txt"

// goldenRandomStreams is how many seeded random streams the golden file
// holds next to the scripted ones.
const goldenRandomStreams = 200

// goldenStep is one step of a golden stream: its alerts are added, then
// the preprocessor ticks (or drains) at now.
type goldenStep struct {
	alerts []alert.Alert
	now    time.Time
	drain  bool
	// batch feeds the alerts through AddBatch instead of Add.
	batch bool
}

type goldenStream struct {
	name  string
	steps []goldenStep
}

// goldenKind is one alert stream shape the random generator draws from.
type goldenKind struct {
	src    alert.Source
	typ    string
	weight int
}

var goldenKinds = []goldenKind{
	{alert.SourceTraffic, alert.TypeTrafficDrop, 6},
	{alert.SourceSNMP, alert.TypeTrafficDrop, 4},
	{alert.SourceNetFlow, alert.TypeTrafficDrop, 3},
	{alert.SourceTraffic, alert.TypeTrafficSurge, 5},
	{alert.SourceSNMP, alert.TypeTrafficSurge, 3},
	{alert.SourcePing, alert.TypePacketLoss, 5}, // sporadic or not, by value
	{alert.SourceSNMP, alert.TypeLinkDown, 2},   // root cause: corroborates
	{alert.SourceSNMP, alert.TypeCRCError, 1},
	{alert.SourceOutOfBand, alert.TypeDeviceInaccessible, 2},
	{alert.SourceSyslog, "", 2}, // raw line, classified (or not) by FT-tree
	{alert.SourcePing, alert.TypeEndToEndICMP, 1},
}

// goldenPool picks the devices a random stream alerts on: a connected
// neighbourhood (so surges are often adjacent and corroboration keys are
// shared) plus two far-away devices.
func goldenPool(topo *topology.Topology, rng *rand.Rand) []topology.DeviceID {
	start := topology.DeviceID(rng.Intn(topo.NumDevices()))
	pool := []topology.DeviceID{start}
	seen := map[topology.DeviceID]bool{start: true}
	want := 6 + rng.Intn(8)
	for i := 0; i < len(pool) && len(pool) < want; i++ {
		for _, nb := range topo.Neighbors(pool[i]) {
			if !seen[nb] && len(pool) < want && rng.Intn(3) > 0 {
				seen[nb] = true
				pool = append(pool, nb)
			}
		}
	}
	for i := 0; i < 2; i++ {
		pool = append(pool, topology.DeviceID(rng.Intn(topo.NumDevices())))
	}
	return pool
}

// goldenRandom builds one seeded random stream. The draws deliberately
// produce out-of-order timestamps (touches older than the aggregate's
// last observation or last emission), gaps longer than AggWindow, late
// and out-of-window corroboration, link alerts that split, syslog lines,
// occasional backward ticks, and drains followed by more ticks.
func goldenRandom(topo *topology.Topology, seed int64) goldenStream {
	rng := rand.New(rand.NewSource(seed))
	pool := goldenPool(topo, rng)
	corpus := BootstrapCorpus()
	total := 0
	for _, k := range goldenKinds {
		total += k.weight
	}
	pick := func() goldenKind {
		w := rng.Intn(total)
		for _, k := range goldenKinds {
			if w < k.weight {
				return k
			}
			w -= k.weight
		}
		panic("unreachable")
	}
	now := epoch
	nsteps := 30 + rng.Intn(50)
	steps := make([]goldenStep, 0, nsteps)
	for s := 0; s < nsteps; s++ {
		switch r := rng.Intn(100); {
		case r < 68:
			now = now.Add(time.Duration(5+rng.Intn(16)) * time.Second)
		case r < 84:
			now = now.Add(time.Duration(30+rng.Intn(41)) * time.Second)
		case r < 92:
			now = now.Add(time.Duration(120+rng.Intn(121)) * time.Second)
		case r < 98:
			now = now.Add(time.Duration(300+rng.Intn(121)) * time.Second) // > AggWindow
		default:
			now = now.Add(-20 * time.Second) // a backward tick
		}
		n := rng.Intn(12)
		if rng.Intn(6) == 0 {
			n = 0 // a quiet tick
		}
		step := goldenStep{now: now, batch: s%2 == 1, drain: rng.Intn(40) == 0}
		for i := 0; i < n; i++ {
			k := pick()
			at := now.Add(-time.Duration(rng.Intn(40)) * time.Second)
			if rng.Intn(7) == 0 {
				at = now.Add(-time.Duration(60+rng.Intn(220)) * time.Second) // stale touch
			}
			d := topo.Device(pool[rng.Intn(len(pool))])
			a := alert.Alert{
				Source: k.src, Type: k.typ, Class: alert.Classify(k.src, k.typ),
				Time: at, End: at.Add(time.Duration(rng.Intn(20)) * time.Second),
				Location: d.Path, Value: 0.3 + rng.Float64(), Count: 1 + rng.Intn(3),
			}
			switch {
			case k.src == alert.SourceSyslog:
				a.Class = alert.ClassInfo
				if rng.Intn(5) == 0 {
					a.Raw = fmt.Sprintf("garbage line %d that matches no template", rng.Intn(1000))
				} else {
					a.Raw = corpus[rng.Intn(len(corpus))]
				}
			case k.typ == alert.TypePacketLoss && rng.Intn(2) == 0:
				a.Value = 0.01 // sporadic: must persist to pass
				if nb := topo.Neighbors(d.ID); len(nb) > 0 && rng.Intn(4) == 0 {
					// A link alert: the preprocessor splits it per endpoint.
					a.CircuitSet = fmt.Sprintf("cs-%d", rng.Intn(2))
					a.Peer = topo.Device(nb[rng.Intn(len(nb))]).Path
				}
			}
			step.alerts = append(step.alerts, a)
		}
		steps = append(steps, step)
	}
	return goldenStream{name: fmt.Sprintf("random-%d", seed), steps: steps}
}

// adjacentPair returns two linked devices ordered by location.
func adjacentPair(topo *topology.Topology) (lo, hi hierarchy.Path) {
	l := topo.Link(0)
	a, b := topo.Device(l.A).Path, topo.Device(l.B).Path
	if a.Compare(b) > 0 {
		a, b = b, a
	}
	return a, b
}

func goldenAlert(src alert.Source, typ string, at time.Time, loc hierarchy.Path, val float64) alert.Alert {
	return alert.Alert{
		Source: src, Type: typ, Class: alert.Classify(src, typ),
		Time: at, End: at, Location: loc, Value: val, Count: 1,
	}
}

func goldenScripted(topo *topology.Topology) []goldenStream {
	lo, hi := adjacentPair(topo)
	at := func(s int) time.Time { return epoch.Add(time.Duration(s) * time.Second) }
	surge := func(s int, loc hierarchy.Path) alert.Alert {
		return goldenAlert(alert.SourceTraffic, alert.TypeTrafficSurge, at(s), loc, 2)
	}
	drop := func(s int, loc hierarchy.Path) alert.Alert {
		return goldenAlert(alert.SourceTraffic, alert.TypeTrafficDrop, at(s), loc, 0.5)
	}
	linkDown := func(s int, loc hierarchy.Path) alert.Alert {
		return goldenAlert(alert.SourceSNMP, alert.TypeLinkDown, at(s), loc, 1)
	}
	step := func(s int, alerts ...alert.Alert) goldenStep {
		return goldenStep{now: at(s), alerts: alerts}
	}
	// An emitted surge expires (> AggWindow quiet) in the very tick an
	// adjacent surge is first swept. Whether the candidate is filtered
	// depends on whether the expiring surge sorts before it (already gone)
	// or after it (still live).
	expireOrder := func(name string, first, second hierarchy.Path) goldenStream {
		return goldenStream{name: name, steps: []goldenStep{
			step(10, surge(5, first)),
			step(305),
			step(311, surge(309, second)),
			step(400, surge(395, second)),
		}}
	}
	return []goldenStream{
		expireOrder("surge-expiry-before-candidate", lo, hi),
		expireOrder("surge-expiry-after-candidate", hi, lo),
		{name: "swallowed-surge-refreshes", steps: []goldenStep{
			step(10, surge(5, lo)),
			step(20, surge(15, hi)), // swallowed as related
			step(40),
			step(90, surge(85, hi)),
			step(150),
			step(160, surge(158, hi)),
		}},
		{name: "refresh-after-stale-touch", steps: []goldenStep{
			step(10, linkDown(5, lo)),
			step(100),
			step(120, linkDown(2, lo)), // older than lastEmit: no refresh
			step(130),
			step(140, linkDown(135, lo)), // fresh touch: refresh fires
			step(260, linkDown(100, lo)), // lastSeen moves back
			step(300),
			step(420),
		}},
		{name: "late-and-out-of-window-corroboration", steps: []goldenStep{
			step(10, drop(5, lo), drop(6, hi)),
			step(60, linkDown(250, hi)), // evidence far in the future: out of window
			step(70),
			step(200),                    // evidence expires
			step(230, linkDown(100, lo)), // late, in window for both drops
			step(240, drop(238, lo)),
			step(600, drop(590, hi)),
			step(700, linkDown(560, hi)), // raises evidence after the drop opened
		}},
		{name: "drain-then-ticks", steps: []goldenStep{
			step(10, surge(5, lo), drop(6, hi), linkDown(7, lo)),
			{now: at(20), drain: true, alerts: []alert.Alert{surge(18, hi)}},
			step(30),
			step(40, surge(38, hi), drop(39, lo)),
			step(110, surge(100, hi)),
			step(500),
			{now: at(510), drain: true},
			step(520),
		}},
	}
}

// goldenStreams returns every stream the golden file records, in file
// order.
func goldenStreams(topo *topology.Topology) []goldenStream {
	streams := goldenScripted(topo)
	for seed := int64(1); seed <= goldenRandomStreams; seed++ {
		streams = append(streams, goldenRandom(topo, seed))
	}
	return streams
}

// runGolden plays one stream and returns its record. The record's
// emission digest covers every emitted alert (%+v, in order, with tick
// boundaries); the provenance fields are empty when prov is off.
func runGolden(t *testing.T, topo *topology.Topology, s goldenStream, workers int, prov bool) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	p := New(cfg, topo, classifier(t))
	var rec *provenance.Recorder
	if prov {
		rec = provenance.New(provenance.Config{SampleEvery: 1})
		p.EnableProvenance(rec)
	}
	h := sha256.New()
	emitted := 0
	var b alert.Batch
	for i, st := range s.steps {
		if st.batch {
			b.Reset()
			for j := range st.alerts {
				b.Append(&st.alerts[j])
			}
			p.AddBatch(&b)
		} else {
			for _, a := range st.alerts {
				p.Add(a)
			}
		}
		var out []alert.Alert
		if st.drain {
			out = p.Drain(st.now)
		} else {
			out = p.Tick(st.now)
		}
		fmt.Fprintf(h, "-- step %d\n", i)
		for _, a := range out {
			fmt.Fprintf(h, "%+v\n", a)
		}
		emitted += len(out)
	}
	line := fmt.Sprintf("%s emitted=%d sha256=%x stats=%+v", s.name, emitted, h.Sum(nil)[:12], p.Stats())
	if rec != nil {
		line += fmt.Sprintf(" counters=%+v inflight=%d", rec.Counters(), rec.InFlight())
	}
	return line
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepGolden replays every golden stream at several worker counts,
// with the lineage recorder on and off, and requires the recorded
// output exactly.
func TestSweepGolden(t *testing.T) {
	topo := topology.MustGenerate(topology.SmallConfig())
	streams := goldenStreams(topo)
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# name emitted sha256(emissions) stats counters inflight — see golden_test.go\n")
		for _, s := range streams {
			sb.WriteString(runGolden(t, topo, s, 1, true))
			sb.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(streams) {
		t.Fatalf("golden file has %d records, want %d (regenerate with -update)", len(want), len(streams))
	}
	for i, s := range streams {
		for _, workers := range []int{1, 2, 4, 8} {
			got := runGolden(t, topo, s, workers, true)
			if got != want[i] {
				t.Errorf("workers=%d provenance on:\n got %s\nwant %s", workers, got, want[i])
				continue
			}
			// With the recorder off only the provenance fields go away.
			off := runGolden(t, topo, s, workers, false)
			if wantOff, _, _ := strings.Cut(want[i], " counters="); off != wantOff {
				t.Errorf("workers=%d provenance off:\n got %s\nwant %s", workers, off, wantOff)
			}
		}
	}
}
