package status

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/tsdb"
)

// listenHub starts a real HTTP server (httptest's recorder cannot
// stream) serving a snapshotter with the fan-out hub mounted and
// returns the base URL.
func listenHub(t *testing.T, hub *fanout.Hub) string {
	t.Helper()
	eng, mu := loadedEngine(t)
	srv, err := Listen("127.0.0.1:0", NewSnapshotter(mu, eng, nil).WithEvents(hub), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + srv.Addr().String()
}

// sseFrame is one parsed id/event/data record from the stream.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readFrames consumes n frames from an open SSE response body.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var out []sseFrame
	var cur sseFrame
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d of %d frames: %v", len(out), n, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.event != "":
			out = append(out, cur)
			cur = sseFrame{}
		}
	}
	return out
}

func hubSubscribers(hub *fanout.Hub) int64 { return hub.StatsSnapshot().Subscribers }

// TestSSEDeliversJournalAndFlightEvents wires the hub the way skynetd
// does — journal notify and flight notify — and checks both event types
// arrive on a live connection with ring-sequence ids, then that
// disconnecting mid-stream unsubscribes the consumer.
func TestSSEDeliversJournalAndFlightEvents(t *testing.T) {
	hub := fanout.NewHub(fanout.Config{Ring: 64})
	defer hub.Close()
	base := listenHub(t, hub)

	journal := telemetry.NewJournal(16)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(EventTypeIncident, ev) })
	db := tsdb.New(tsdb.Config{})
	sloEng := slo.New(db, slo.DefaultRules(time.Millisecond))
	rec := flight.New(flight.Config{}, flight.Sources{SLO: sloEng})
	rec.SetNotify(func(ev flight.Event) { hub.Publish(EventTypeAnomaly, ev) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	for i := 0; hubSubscribers(hub) == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if hubSubscribers(hub) != 1 {
		t.Fatal("consumer never subscribed")
	}

	journal.Append(telemetry.Event{Type: telemetry.EventCreated, Incident: 7, Root: "RG01"})
	// A 1s tick against the 1ms objective burns until the tick-latency
	// rule fires → one slo_burn anomaly event.
	for tick := uint64(0); rec.Health().OK && tick < 200; tick++ {
		db.Append(tsdb.MetricTickDuration, tick, 1)
		sloEng.Evaluate(tick)
		rec.Observe(epoch.Add(time.Duration(tick) * time.Second))
	}

	frames := readFrames(t, bufio.NewReader(resp.Body), 2)
	if frames[0].event != EventTypeIncident {
		t.Fatalf("frame 0 event = %q", frames[0].event)
	}
	if frames[0].id == "" || frames[1].id == "" {
		t.Fatalf("frames missing SSE ids: %+v", frames)
	}
	var je telemetry.Event
	if err := json.Unmarshal([]byte(frames[0].data), &je); err != nil || je.Incident != 7 {
		t.Fatalf("frame 0 data = %q (%v)", frames[0].data, err)
	}
	if frames[1].event != EventTypeAnomaly {
		t.Fatalf("frame 1 event = %q", frames[1].event)
	}
	var fe flight.Event
	if err := json.Unmarshal([]byte(frames[1].data), &fe); err != nil || fe.Trigger != flight.TriggerSLOBurn {
		t.Fatalf("frame 1 data = %q (%v)", frames[1].data, err)
	}

	// Disconnect mid-stream: the handler must unsubscribe.
	cancel()
	for i := 0; hubSubscribers(hub) != 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := hubSubscribers(hub); got != 0 {
		t.Fatalf("subscribers = %d after client disconnect", got)
	}
	// Publishing after the disconnect must not panic or block.
	journal.Append(telemetry.Event{Type: telemetry.EventClosed, Incident: 7})
}

// TestSSELastEventIDResume reconnects with the Last-Event-ID of a frame
// from a first connection and must receive exactly the frames published
// after it — no snapshot replay, no duplicates.
func TestSSELastEventIDResume(t *testing.T) {
	hub := fanout.NewHub(fanout.Config{Ring: 64})
	defer hub.Close()
	base := listenHub(t, hub)

	resp, err := http.Get(base + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; hubSubscribers(hub) == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	hub.Publish(EventTypeIncident, map[string]int{"i": 0})
	frames := readFrames(t, bufio.NewReader(resp.Body), 1)
	resp.Body.Close()
	if frames[0].id == "" {
		t.Fatalf("no id on first frame: %+v", frames)
	}

	hub.Publish(EventTypeIncident, map[string]int{"i": 1})
	hub.Publish(EventTypeAnomaly, map[string]int{"i": 2})

	req, _ := http.NewRequest(http.MethodGet, base+"/api/events", nil)
	req.Header.Set("Last-Event-ID", frames[0].id)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readFrames(t, bufio.NewReader(resp2.Body), 2)
	var a, b map[string]int
	if err := json.Unmarshal([]byte(resumed[0].data), &a); err != nil || a["i"] != 1 {
		t.Fatalf("resumed frame 0 = %+v (%v)", resumed[0], err)
	}
	if err := json.Unmarshal([]byte(resumed[1].data), &b); err != nil || b["i"] != 2 || resumed[1].event != EventTypeAnomaly {
		t.Fatalf("resumed frame 1 = %+v (%v)", resumed[1], err)
	}
}

// TestFanoutStatsEndpoint pins the /api/fanout JSON shape.
func TestFanoutStatsEndpoint(t *testing.T) {
	hub := fanout.NewHub(fanout.Config{Ring: 64})
	defer hub.Close()
	eng, mu := loadedEngine(t)
	h := NewSnapshotter(mu, eng, nil).WithEvents(hub).Handler()
	hub.Publish(EventTypeIncident, map[string]int{"i": 0})
	code, body := get(t, h, "/api/fanout")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	var st fanout.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Published != 1 || st.RingSize != 64 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFanoutHubConcurrentShutdown races publishers, subscribers, and
// Close — meaningful under -race. No ordering assertions; the invariant
// is no panic, no deadlock, and every Wait returns.
func TestFanoutHubConcurrentShutdown(t *testing.T) {
	hub := fanout.NewHub(fanout.Config{Ring: 32})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hub.Publish(EventTypeAnomaly, i)
			}
		}()
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
				if err != nil {
					return // hub closed
				}
				if frames, _, err := sub.Poll(); err == nil {
					sub.ReleaseAll(frames)
				}
				sub.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub.Close()
	}()
	wg.Wait()
	hub.Close() // idempotent
	if _, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1}); err != fanout.ErrClosed {
		t.Fatalf("subscribe after close: %v", err)
	}
	hub.Publish(EventTypeAnomaly, "after close") // must be a no-op
}

// TestHealthEndpointFlipsWithRecorder drives an SLO rule through firing
// and back; /api/health must follow with 503 naming the rule, then 200.
func TestHealthEndpointFlipsWithRecorder(t *testing.T) {
	eng, mu := loadedEngine(t)
	db := tsdb.New(tsdb.Config{})
	sloEng := slo.New(db, []slo.Rule{{Name: "tick-latency", Metric: tsdb.MetricTickDuration,
		Target: 0.1, Budget: 0.5, FastWindow: 2, SlowWindow: 2, FastBurn: 1, SlowBurn: 1}})
	rec := flight.New(flight.Config{}, flight.Sources{SLO: sloEng})
	h := NewSnapshotter(mu, eng, nil).WithFlight(rec).Handler()
	tick := func(n uint64, secs float64) {
		db.Append(tsdb.MetricTickDuration, n, secs)
		sloEng.Evaluate(n)
		rec.Observe(epoch.Add(time.Duration(n) * 10 * time.Second))
	}

	tick(0, 0.001)
	code, body := get(t, h, "/api/health")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthy: code=%d body=%s", code, body)
	}
	tick(1, 1)
	code, body = get(t, h, "/api/health")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "degraded"`) {
		t.Fatalf("degraded: code=%d body=%s", code, body)
	}
	if !strings.Contains(body, `"tick-latency"`) {
		t.Fatalf("degraded body missing the firing rule: %s", body)
	}
	for n := uint64(2); n < 4; n++ {
		tick(n, 0.001)
	}
	if code, _ = get(t, h, "/api/health"); code != http.StatusOK {
		t.Fatalf("recovered: code=%d", code)
	}
}

// TestTraceEndpoint serves span trees recorded by a tracer.
func TestTraceEndpoint(t *testing.T) {
	eng, mu := loadedEngine(t)
	tracer := span.NewTracer(8)
	for tick := uint64(1); tick <= 5; tick++ {
		act := span.Start(tracer, nil, tick, epoch)
		r := act.Begin(span.Root, span.StagePreprocess)
		act.End(r, int(tick))
		act.Finish()
	}
	h := NewSnapshotter(mu, eng, nil).WithTracer(tracer).Handler()
	code, body := get(t, h, "/api/trace?last=2")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	var view struct {
		Ticks  int64        `json:"ticks"`
		Traces []span.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.Ticks != 5 || len(view.Traces) != 2 {
		t.Fatalf("ticks=%d traces=%d, want 5 and 2", view.Ticks, len(view.Traces))
	}
	if view.Traces[0].Tick != 4 || view.Traces[1].Tick != 5 {
		t.Fatalf("trace ticks = %d,%d, want 4,5", view.Traces[0].Tick, view.Traces[1].Tick)
	}
	if len(view.Traces[0].Spans) != 2 || view.Traces[0].Spans[1].Name != "preprocess" {
		t.Fatalf("span tree malformed: %+v", view.Traces[0].Spans)
	}
	if code, _ := get(t, h, "/api/trace?last=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad last: code=%d", code)
	}
}

// TestSSEStalledHTTPConsumerNeverBlocksPublisher is the end-to-end
// slow-consumer test on a live /api/events connection: a client that
// reads the response headers and then stalls forever must not block the
// publishing side — the path an engine tick takes through the journal
// notify. The hub keeps rolling its ring past the stalled consumer and
// eventually evicts it; publishes always complete.
func TestSSEStalledHTTPConsumerNeverBlocksPublisher(t *testing.T) {
	hub := fanout.NewHub(fanout.Config{Ring: 64, EvictAfter: 16})
	defer hub.Close()
	base := listenHub(t, hub)

	journal := telemetry.NewJournal(16)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(EventTypeIncident, ev) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for i := 0; hubSubscribers(hub) == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if hubSubscribers(hub) != 1 {
		t.Fatal("consumer never subscribed")
	}
	// The client now stalls: it never reads the body. The handler's
	// write blocks once the kernel socket buffers fill, its cursor
	// freezes, and every publish must complete without waiting while
	// the ring rolls past it. Oversized payloads make the stall happen
	// within a few frames.
	pad := strings.Repeat("x", 64<<10)
	const publishes = 512
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < publishes; i++ {
			journal.Append(telemetry.Event{Type: telemetry.EventCreated, Incident: i, Root: pad})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked behind the stalled SSE consumer")
	}
	st := hub.StatsSnapshot()
	if st.Published != publishes {
		t.Errorf("published = %d, want %d (publishes must complete regardless of the stall)",
			st.Published, publishes)
	}
	// The stalled consumer stopped polling with 512 frames queued
	// against a 64-slot ring + 16 slack: it must have been evicted.
	if st.Evictions == 0 {
		t.Error("stalled consumer was never evicted")
	}
	if st.QueueHighWater == 0 {
		t.Error("queue high-water never recorded the stalled consumer's backlog")
	}
}
