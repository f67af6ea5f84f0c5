package main

import (
	"math/rand"
	"strconv"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/preprocess"
	"skynet/internal/topology"
)

// The generators below build every input the benchmark feeds the program,
// from the seed alone. They write the wire formats with the benchmark's
// own encoders, so a change to the program's codecs never changes the
// inputs or the generator's cost.

// kind is one alert stream shape: source, type, and the class a monitor
// would attach to it.
type kind struct {
	source, typ, class string
	value              float64
}

func newKind(src alert.Source, typ string, value float64) kind {
	return kind{source: src.String(), typ: typ, class: alert.Classify(src, typ).String(), value: value}
}

// Hotspot kinds: failure, root-cause and abnormal types from ping, SNMP,
// out-of-band and traffic monitors — enough distinct failure types at
// one place to cross the production 2/1+2/5 thresholds.
var (
	floodHotKinds = []kind{
		newKind(alert.SourcePing, alert.TypePacketLoss, 0.3),
		newKind(alert.SourcePing, alert.TypeEndToEndICMP, 0.4),
		newKind(alert.SourceTraffic, alert.TypePacketLoss, 0.25),
		newKind(alert.SourceSNMP, alert.TypeCRCError, 120),
		newKind(alert.SourceSNMP, alert.TypeLinkDown, 1),
		newKind(alert.SourceOutOfBand, alert.TypeDeviceInaccessible, 1),
		newKind(alert.SourceTraffic, alert.TypeTrafficCongestion, 0.9),
	}
	// Background noise: traffic drops that no failure corroborates. The
	// preprocessor keeps one live aggregate per (device, source) and
	// filters them all, so the flood's tail costs preprocessing work and
	// yields no incident.
	floodNoiseKinds = []kind{
		newKind(alert.SourceTraffic, alert.TypeTrafficDrop, 0.3),
		newKind(alert.SourceSNMP, alert.TypeTrafficDrop, 0.3),
		newKind(alert.SourceNetFlow, alert.TypeTrafficDrop, 0.3),
	}
	sprawlKinds = []kind{
		newKind(alert.SourcePing, alert.TypePacketLoss, 0.3),
		newKind(alert.SourcePing, alert.TypeEndToEndICMP, 0.4),
		newKind(alert.SourceSNMP, alert.TypeCRCError, 120),
	}
)

// device is one alerting location, pre-rendered in both wire forms.
type device struct {
	path hierarchy.Path
	wire string // "/"-joined, for the compact pipe format
	json string // "|"-joined, for JSON Lines
}

func newDevice(p hierarchy.Path) device {
	wire := make([]byte, 0, 64)
	for l := 1; l <= p.Depth(); l++ {
		if l > 1 {
			wire = append(wire, '/')
		}
		wire = append(wire, p.Segment(hierarchy.Level(l))...)
	}
	return device{path: p, wire: string(wire), json: p.String()}
}

// hotspot is one injected failure: the devices it covers and the tick
// it started emitting at (ground truth for the coverage check).
type hotspot struct {
	devices []device
	since   int
}

// wireLine appends one compact pipe-format line (see alert.AppendWire for
// the field order) for an alert of kind k at device d, time t.
func wireLine(dst []byte, t time.Time, k *kind, d *device, raw string) []byte {
	ns := t.UnixNano()
	dst = strconv.AppendInt(dst, ns, 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, ns, 10)
	dst = append(dst, '|')
	dst = append(dst, k.source...)
	dst = append(dst, '|')
	dst = append(dst, k.typ...)
	dst = append(dst, '|')
	dst = append(dst, k.class...)
	dst = append(dst, '|')
	dst = append(dst, d.wire...)
	dst = append(dst, '|', '|')
	dst = strconv.AppendFloat(dst, k.value, 'g', -1, 64)
	dst = append(dst, "|1||"...)
	dst = append(dst, raw...)
	return dst
}

// jsonLine appends one JSON Lines alert in the shape ingest's TCP
// decoder reads (alert.Alert's JSON form). Strings come from fixed
// tables that need no escaping.
func jsonLine(dst []byte, t time.Time, k *kind, d *device) []byte {
	dst = append(dst, `{"source":"`...)
	dst = append(dst, k.source...)
	dst = append(dst, `","type":"`...)
	dst = append(dst, k.typ...)
	dst = append(dst, `","class":"`...)
	dst = append(dst, k.class...)
	dst = append(dst, `","time":"`...)
	dst = t.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","end":"`...)
	dst = t.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","location":"`...)
	dst = append(dst, d.json...)
	dst = append(dst, `","value":`...)
	dst = strconv.AppendFloat(dst, k.value, 'g', -1, 64)
	dst = append(dst, ",\"count\":1}\n"...)
	return dst
}

// tickRand is a generator stream's per-tick rng: every tick draws from
// its own source, so tick i's inputs are the same whether or not earlier
// ticks were generated in this process.
func tickRand(seed int64, stream, tick int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919 + int64(tick)))
}

// pairAt picks a top-of-rack switch and one of the intra-site routers
// it links to: two adjacent devices inside one cluster, so the failure
// is one connected area that stays apart from failures elsewhere.
func pairAt(topo *topology.Topology, rng *rand.Rand) []device {
	for {
		id := topology.DeviceID(rng.Intn(topo.NumDevices()))
		nb := topo.Neighbors(id)
		if topo.Device(id).Role != topology.RoleToR || len(nb) == 0 {
			continue
		}
		return []device{newDevice(topo.Device(id).Path), newDevice(topo.Device(nb[rng.Intn(len(nb))]).Path)}
	}
}

// replayGen generates one closed-loop workload's wire lines, a tick at a
// time, in simulated time.
type replayGen interface {
	// lines appends tick's wire lines (newline-free, back to back) to buf
	// and their end offsets to ends. now is the tick's simulated time;
	// every alert is stamped inside the second before it.
	lines(tick int, now time.Time, buf []byte, ends []int) ([]byte, []int)
	// hotspots reports the failures injected as of tick, with the tick
	// each started at.
	hotspots(tick int) []hotspot
	params() map[string]any
}

// floodGen is one severe failure: a hotspot cluster takes most of a high
// raw rate, uncorroborated traffic-drop noise from every device takes
// the rest, and a tenth of all alerts are raw syslog lines.
type floodGen struct {
	seed    int64
	perTick int
	hotFrac float64
	sysFrac float64
	hot     []device
	all     []device
	syslog  []string
	hotspot hotspot
}

func newFloodGen(topo *topology.Topology, seed int64) *floodGen {
	g := &floodGen{seed: seed, perTick: 10_000, hotFrac: 0.7, sysFrac: 0.1, syslog: preprocess.BootstrapCorpus()}
	rng := tickRand(seed, 0, 0)
	clusters := topo.Clusters()
	cluster := clusters[rng.Intn(len(clusters))]
	for _, id := range topo.DevicesUnder(cluster) {
		g.hot = append(g.hot, newDevice(topo.Device(id).Path))
	}
	for i := range topo.Devices {
		g.all = append(g.all, newDevice(topo.Devices[i].Path))
	}
	g.hotspot = hotspot{devices: g.hot, since: 1}
	return g
}

func (g *floodGen) params() map[string]any {
	return map[string]any{
		"alerts_per_tick": g.perTick, "hotspot_share": g.hotFrac, "syslog_share": g.sysFrac,
		"hotspot_devices": len(g.hot), "noise_devices": len(g.all),
	}
}

func (g *floodGen) hotspots(int) []hotspot { return []hotspot{g.hotspot} }

func (g *floodGen) lines(tick int, now time.Time, buf []byte, ends []int) ([]byte, []int) {
	rng := tickRand(g.seed, 1, tick)
	base := now.Add(-time.Second)
	if tick == 1 {
		// One alert per noise stream up front: the preprocessor's
		// aggregate population starts at the steady state the random
		// draws would otherwise take hundreds of ticks to fill.
		for i := range g.all {
			for k := range floodNoiseKinds {
				buf = wireLine(buf, base, &floodNoiseKinds[k], &g.all[i], "")
				ends = append(ends, len(buf))
			}
		}
	}
	syslog := syslogKind()
	for i := 0; i < g.perTick; i++ {
		t := base.Add(time.Duration(rng.Int63n(int64(time.Second))))
		r := rng.Float64()
		switch {
		case r < g.sysFrac:
			d := &g.hot[rng.Intn(len(g.hot))]
			buf = wireLine(buf, t, &syslog, d, g.syslog[rng.Intn(len(g.syslog))])
		case r < g.hotFrac:
			d := &g.hot[rng.Intn(len(g.hot))]
			buf = wireLine(buf, t, &floodHotKinds[rng.Intn(len(floodHotKinds))], d, "")
		default:
			d := &g.all[rng.Intn(len(g.all))]
			buf = wireLine(buf, t, &floodNoiseKinds[rng.Intn(len(floodNoiseKinds))], d, "")
		}
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// syslogKind is a raw syslog line: no type yet — the preprocessor's
// FT-tree classifier assigns it.
func syslogKind() kind {
	return kind{source: alert.SourceSyslog.String(), class: alert.ClassInfo.String()}
}

// sprawlGen is many concurrent small failures: hotspots of two adjacent
// devices, each emitting several failure types at a low rate. Every
// moveEvery ticks one hotspot (round robin) moves to a fresh place; the
// incident it leaves behind stays active until its 15-minute timeout, so
// hundreds of incidents are open at once.
type sprawlGen struct {
	seed      int64
	topo      *topology.Topology
	n         int
	perDevice int
	moveEvery int
	// cache holds each hotspot's current placement (epochs[h] is its
	// epoch), so a tick re-derives only the placements that moved.
	cache  []hotspot
	epochs []int
}

func newSprawlGen(topo *topology.Topology, seed int64) *sprawlGen {
	return &sprawlGen{seed: seed, topo: topo, n: 64, perDevice: 3, moveEvery: 3}
}

func (g *sprawlGen) params() map[string]any {
	return map[string]any{
		"hotspots": g.n, "devices_per_hotspot": 2, "alerts_per_tick": g.n * 2 * g.perDevice,
		"move_every_ticks": g.moveEvery,
	}
}

// placement returns hotspot h's placement epoch at tick and the tick the
// placement began. Move k happens at tick k·moveEvery and relocates
// hotspot k mod n, so the state is a pure function of the tick.
func (g *sprawlGen) placement(h, tick int) (epoch, since int) {
	moves := tick / g.moveEvery
	first := h // the first move that touches h
	if first == 0 {
		first = g.n
	}
	if moves < first {
		return 0, 1
	}
	epoch = (moves-first)/g.n + 1
	return epoch, (first + (epoch-1)*g.n) * g.moveEvery
}

func (g *sprawlGen) hotspots(tick int) []hotspot {
	if g.cache == nil {
		g.cache = make([]hotspot, g.n)
		g.epochs = make([]int, g.n)
	}
	for h := range g.cache {
		epoch, since := g.placement(h, tick)
		if g.cache[h].devices == nil || g.epochs[h] != epoch {
			g.cache[h] = hotspot{devices: pairAt(g.topo, tickRand(g.seed, 2+h, epoch)), since: since}
			g.epochs[h] = epoch
		}
	}
	return g.cache
}

func (g *sprawlGen) lines(tick int, now time.Time, buf []byte, ends []int) ([]byte, []int) {
	rng := tickRand(g.seed, 1, tick)
	base := now.Add(-time.Second)
	for _, hs := range g.hotspots(tick) {
		for di := range hs.devices {
			for j := 0; j < g.perDevice; j++ {
				t := base.Add(time.Duration(rng.Int63n(int64(time.Second))))
				buf = wireLine(buf, t, &sprawlKinds[j%len(sprawlKinds)], &hs.devices[di], "")
				ends = append(ends, len(buf))
			}
		}
	}
	return buf, ends
}

// liveGen is the open-loop stream's content: a few fixed hotspots plus
// uncorroborated traffic-drop noise over every device, heavy enough in
// duplicates that the pipeline itself stays mostly idle.
type liveGen struct {
	rng     *rand.Rand
	hot     []hotspot
	all     []device
	hotFrac float64
}

func newLiveGen(topo *topology.Topology, seed int64) *liveGen {
	g := &liveGen{rng: tickRand(seed, 1, 0), hotFrac: 0.3}
	for h := 0; h < 2; h++ {
		g.hot = append(g.hot, hotspot{devices: pairAt(topo, tickRand(seed, 2+h, 0)), since: 1})
	}
	for i := range topo.Devices {
		g.all = append(g.all, newDevice(topo.Devices[i].Path))
	}
	return g
}

// next appends the next alert of the stream, stamped t, as a JSON line.
func (g *liveGen) next(dst []byte, t time.Time) []byte {
	if g.rng.Float64() < g.hotFrac {
		hs := &g.hot[g.rng.Intn(len(g.hot))]
		d := &hs.devices[g.rng.Intn(len(hs.devices))]
		return jsonLine(dst, t, &sprawlKinds[g.rng.Intn(len(sprawlKinds))], d)
	}
	d := &g.all[g.rng.Intn(len(g.all))]
	return jsonLine(dst, t, &floodNoiseKinds[g.rng.Intn(len(floodNoiseKinds))], d)
}
