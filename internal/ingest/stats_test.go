package ingest

import (
	"context"
	"strings"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/telemetry"
)

func TestRejectReasonsSumToTotal(t *testing.T) {
	s, _ := startServer(t, DefaultConfig())

	// UDP parse reject.
	cu, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	if _, err := cu.conn.Write([]byte("not|a|valid|alert")); err != nil {
		t.Fatal(err)
	}

	// TCP validation reject, then a good alert so we can sync.
	ct, err := DialTCP(context.Background(), s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	bad := testAlert(1)
	bad.Location = hierarchy.Root()
	if err := ct.Send(&bad); err != nil {
		t.Fatal(err)
	}
	good := testAlert(2)
	if err := ct.Send(&good); err != nil {
		t.Fatal(err)
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if !WaitForAccepted(s, 1, 2*time.Second) {
		t.Fatal("good alert not accepted")
	}

	deadline := time.Now().Add(2 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		st = s.Stats()
		if st.AlertsRejected >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.AlertsRejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.AlertsRejected)
	}
	if st.UDPParseErrors != 1 || st.TCPInvalid != 1 {
		t.Errorf("reasons = %+v, want 1 UDP parse + 1 TCP invalid", st)
	}
	if sum := st.TCPDecodeErrors + st.TCPInvalid + st.UDPParseErrors + st.UDPInvalid + st.QueueFull; sum != st.AlertsRejected {
		t.Errorf("reasons sum to %d, total is %d", sum, st.AlertsRejected)
	}
	if st.QueueHighWater < 0 || st.QueueHighWater > DefaultConfig().QueueDepth {
		t.Errorf("queue high water out of range: %d", st.QueueHighWater)
	}
}

func TestQueueHighWaterTracksDepth(t *testing.T) {
	// A handler that blocks until released forces the queue to fill.
	release := make(chan struct{})
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	s, err := Listen(cfg, func(a alert.Alert) { <-release })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		s.Close()
	}()
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 12; i++ {
		a := testAlert(uint64(i))
		if err := c.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.QueueHighWater >= cfg.QueueDepth && st.QueueFull > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := s.Stats()
	t.Errorf("flood never filled the queue: %+v", st)
}

func TestRegisterMetricsMatchesStats(t *testing.T) {
	s, _ := startServer(t, DefaultConfig())
	reg := telemetry.New()
	s.RegisterMetrics(reg)
	c, err := DialUDP(s.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 5; i++ {
		a := testAlert(uint64(i))
		if err := c.Send(&a); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitForAccepted(s, 5, 2*time.Second) {
		t.Fatal("alerts not accepted")
	}
	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
	}
	st := s.Stats()
	if int(vals["skynet_ingest_alerts_accepted_total"]) != st.AlertsAccepted {
		t.Errorf("metrics accepted %v, stats %d — sources drifted",
			vals["skynet_ingest_alerts_accepted_total"], st.AlertsAccepted)
	}
	if int(vals["skynet_ingest_alerts_rejected_total"]) != st.AlertsRejected {
		t.Errorf("metrics rejected %v, stats %d", vals["skynet_ingest_alerts_rejected_total"], st.AlertsRejected)
	}
	if int(vals["skynet_ingest_queue_high_water"]) != st.QueueHighWater {
		t.Errorf("metrics hwm %v, stats %d", vals["skynet_ingest_queue_high_water"], st.QueueHighWater)
	}
	if load, ok := vals["skynet_ingest_queue_load"]; !ok || load < 0 || load > 1 {
		t.Errorf("skynet_ingest_queue_load = %v (registered %v), want a fraction in [0, 1]", load, ok)
	}
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "skynet_ingest_alerts_accepted_total 5") {
		t.Errorf("exposition missing accepted counter:\n%s", b.String())
	}
}
