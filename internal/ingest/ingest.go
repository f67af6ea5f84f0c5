// Package ingest is SkyNet's network front door: monitoring tools deliver
// raw alerts over TCP (JSON Lines) or UDP (the compact pipe-delimited
// format), and the listeners funnel them into a single handler — typically
// core.Engine.Ingest — serialized on one goroutine so the engine needs no
// internal locking.
//
// The production system sits behind collectors speaking exactly these two
// shapes of protocol: reliable streams from aggregating relays, and
// fire-and-forget datagrams from device-local agents.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"skynet/internal/alert"
	"skynet/internal/telemetry"
)

// Handler consumes ingested alerts. Implementations are called from a
// single dispatch goroutine; they must not block for long.
type Handler func(alert.Alert)

// BatchHandler consumes batches of ingested alerts — the columnar fast
// path (core.Engine.IngestBatch). Called from a single dispatch
// goroutine. The batch is reset and reused once the call returns, so
// implementations must copy any rows they retain.
type BatchHandler func(*alert.Batch)

// maxIngestBatch caps how many alerts a dispatch batch accumulates
// before it is handed off; during a flood the dispatcher flushes at
// this size, otherwise as soon as the queue goes momentarily idle.
const maxIngestBatch = 512

// udpFlushInterval bounds how long a decoded-but-unflushed UDP batch can
// sit in the reader while no further datagrams arrive.
const udpFlushInterval = 2 * time.Millisecond

// Stats counts ingestion activity. Snapshot with Server.Stats. The same
// struct backs /api/stats and the /metrics exposition (via
// RegisterMetrics), so the two always agree.
type Stats struct {
	TCPConnections int
	AlertsAccepted int
	// AlertsRejected is the total across every reject reason below.
	AlertsRejected int
	// QueueHighWater is the deepest the dispatch queue has been — how
	// close a flood came to shedding.
	QueueHighWater int

	// Per-protocol reject reasons, summing to AlertsRejected.
	TCPDecodeErrors int // malformed JSON Lines stream (connection dropped)
	TCPInvalid      int // TCP alerts failing validation
	UDPParseErrors  int // malformed compact-format datagrams
	UDPInvalid      int // UDP alerts failing validation
	QueueFull       int // dropped because the dispatch queue was full
}

// rejectReason indexes the per-protocol reject counters.
type rejectReason int

const (
	rejectTCPDecode rejectReason = iota
	rejectTCPInvalid
	rejectUDPParse
	rejectUDPInvalid
	rejectQueueFull
)

// Config tunes a Server.
type Config struct {
	// TCPAddr and UDPAddr are listen addresses; empty disables that
	// listener. Use ":0" for an ephemeral port.
	TCPAddr string
	UDPAddr string
	// MaxConns bounds concurrent TCP connections; further dials are
	// accepted and immediately closed.
	MaxConns int
	// ReadTimeout closes idle TCP connections.
	ReadTimeout time.Duration
	// QueueDepth is the dispatch channel capacity between readers and the
	// handler goroutine.
	QueueDepth int
	// Logger receives operational events; nil means slog.Default().
	Logger *slog.Logger
}

// DefaultConfig returns sensible listener defaults on ephemeral ports.
func DefaultConfig() Config {
	return Config{
		TCPAddr:     "127.0.0.1:0",
		UDPAddr:     "127.0.0.1:0",
		MaxConns:    64,
		ReadTimeout: 2 * time.Minute,
		QueueDepth:  1024,
	}
}

// Server runs the listeners. Create with Listen or ListenBatch, stop
// with Close.
type Server struct {
	cfg      Config
	handler  Handler      // per-alert mode (Listen)
	bhandler BatchHandler // batch mode (ListenBatch)
	log      *slog.Logger

	tcpLn net.Listener
	udpPc net.PacketConn

	queue chan alert.Alert
	// batchQ carries whole UDP-decoded batches in batch mode; the wire
	// codec writes straight into their columns, so a datagram never
	// materializes an intermediate Alert on the hot path.
	batchQ chan *alert.Batch
	pool   sync.Pool // *alert.Batch

	mu    sync.Mutex
	stats Stats
	conns map[net.Conn]struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Listen starts the configured listeners and the dispatch goroutine.
func Listen(cfg Config, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("ingest: nil handler")
	}
	return listen(cfg, handler, nil)
}

// ListenBatch is Listen with columnar dispatch: alerts are accumulated
// into a reused alert.Batch and handed to the handler in batches — at
// most maxIngestBatch rows, or whatever arrived when the queue goes
// idle. UDP datagrams are decoded by Batch.AppendWire directly into the
// batch columns on the reader goroutine; TCP alerts are batched at the
// dispatcher. Ordering within each protocol is preserved.
func ListenBatch(cfg Config, handler BatchHandler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("ingest: nil batch handler")
	}
	return listen(cfg, nil, handler)
}

func listen(cfg Config, handler Handler, bhandler BatchHandler) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		handler:  handler,
		bhandler: bhandler,
		log:      log,
		queue:    make(chan alert.Alert, cfg.QueueDepth),
		conns:    make(map[net.Conn]struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	s.pool.New = func() any { return new(alert.Batch) }
	if bhandler != nil {
		s.batchQ = make(chan *alert.Batch, 64)
	}
	if cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", cfg.TCPAddr)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("ingest: tcp listen: %w", err)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if cfg.UDPAddr != "" {
		pc, err := net.ListenPacket("udp", cfg.UDPAddr)
		if err != nil {
			if s.tcpLn != nil {
				s.tcpLn.Close()
			}
			cancel()
			return nil, fmt.Errorf("ingest: udp listen: %w", err)
		}
		s.udpPc = pc
		s.wg.Add(1)
		if s.bhandler != nil {
			go s.udpBatchLoop()
		} else {
			go s.udpLoop()
		}
	}
	s.wg.Add(1)
	if s.bhandler != nil {
		go s.dispatchBatch()
	} else {
		go s.dispatch()
	}
	return s, nil
}

// TCPAddr returns the bound TCP address, or nil when TCP is disabled.
func (s *Server) TCPAddr() net.Addr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// UDPAddr returns the bound UDP address, or nil when UDP is disabled.
func (s *Server) UDPAddr() net.Addr {
	if s.udpPc == nil {
		return nil
	}
	return s.udpPc.LocalAddr()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops the listeners, drains in-flight work, and returns when all
// goroutines have exited. It is idempotent.
func (s *Server) Close() error {
	s.cancel()
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.udpPc != nil {
		s.udpPc.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// dispatch serializes alerts into the handler.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			// Drain what readers already queued.
			for {
				select {
				case a := <-s.queue:
					s.handler(a)
				default:
					return
				}
			}
		case a := <-s.queue:
			s.handler(a)
		}
	}
}

// dispatchBatch serializes alerts into the batch handler. TCP alerts
// arrive one at a time on queue and are coalesced here; UDP batches
// arrive whole on batchQ and are forwarded as-is.
func (s *Server) dispatchBatch() {
	defer s.wg.Done()
	b := s.pool.Get().(*alert.Batch)
	b.Reset()
	flush := func() {
		if b.Len() > 0 {
			s.bhandler(b)
			b.Reset()
		}
	}
	forward := func(ub *alert.Batch) {
		flush() // keep rough arrival order between the two sources
		s.bhandler(ub)
		ub.Reset()
		s.pool.Put(ub)
	}
	for {
		select {
		case <-s.ctx.Done():
			// Drain what readers already queued.
			for {
				select {
				case a := <-s.queue:
					b.Append(&a)
				case ub := <-s.batchQ:
					forward(ub)
				default:
					flush()
					return
				}
			}
		case a := <-s.queue:
			b.Append(&a)
			more := true
			for more && b.Len() < maxIngestBatch {
				select {
				case a := <-s.queue:
					b.Append(&a)
				default:
					more = false
				}
			}
			flush()
		case ub := <-s.batchQ:
			forward(ub)
		}
	}
}

// flushBatch hands a UDP-decoded batch to the dispatcher, dropping (and
// counting) its rows when the batch queue is full, and returns a fresh
// batch for the reader to keep decoding into.
func (s *Server) flushBatch(b *alert.Batch) *alert.Batch {
	n := b.Len()
	if n == 0 {
		return b
	}
	select {
	case s.batchQ <- b:
		s.mu.Lock()
		s.stats.AlertsAccepted += n
		if depth := len(s.queue); depth > s.stats.QueueHighWater {
			s.stats.QueueHighWater = depth
		}
		s.mu.Unlock()
	default:
		s.mu.Lock()
		s.stats.AlertsRejected += n
		s.stats.QueueFull += n
		s.mu.Unlock()
		b.Reset()
		return b
	}
	nb := s.pool.Get().(*alert.Batch)
	nb.Reset()
	return nb
}

// enqueue hands an alert to the dispatcher, dropping (and counting) when
// the queue is full — backpressure must not stall the network readers
// during an alert flood.
func (s *Server) enqueue(a alert.Alert) {
	select {
	case s.queue <- a:
		depth := len(s.queue)
		s.mu.Lock()
		s.stats.AlertsAccepted++
		if depth > s.stats.QueueHighWater {
			s.stats.QueueHighWater = depth
		}
		s.mu.Unlock()
	default:
		s.reject(rejectQueueFull)
	}
}

func (s *Server) reject(why rejectReason) {
	s.mu.Lock()
	s.stats.AlertsRejected++
	switch why {
	case rejectTCPDecode:
		s.stats.TCPDecodeErrors++
	case rejectTCPInvalid:
		s.stats.TCPInvalid++
	case rejectUDPParse:
		s.stats.UDPParseErrors++
	case rejectUDPInvalid:
		s.stats.UDPInvalid++
	case rejectQueueFull:
		s.stats.QueueFull++
	}
	s.mu.Unlock()
}

// RegisterMetrics exposes the server's counters on a telemetry registry.
// The callbacks read the same Stats struct /api/stats serves, so the two
// surfaces can never drift apart.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	stat := func(pick func(Stats) int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(pick(s.stats))
		}
	}
	reg.CounterFunc("skynet_ingest_tcp_connections_total",
		"TCP alert connections accepted.",
		stat(func(st Stats) int { return st.TCPConnections }))
	reg.CounterFunc("skynet_ingest_alerts_accepted_total",
		"Alerts accepted into the dispatch queue.",
		stat(func(st Stats) int { return st.AlertsAccepted }))
	reg.CounterFunc("skynet_ingest_alerts_rejected_total",
		"Alerts rejected across all reasons.",
		stat(func(st Stats) int { return st.AlertsRejected }))
	reg.CounterFunc("skynet_ingest_rejected_tcp_decode_total",
		"TCP streams dropped on a malformed JSON line.",
		stat(func(st Stats) int { return st.TCPDecodeErrors }))
	reg.CounterFunc("skynet_ingest_rejected_tcp_invalid_total",
		"TCP alerts failing validation.",
		stat(func(st Stats) int { return st.TCPInvalid }))
	reg.CounterFunc("skynet_ingest_rejected_udp_parse_total",
		"Malformed compact-format UDP datagrams.",
		stat(func(st Stats) int { return st.UDPParseErrors }))
	reg.CounterFunc("skynet_ingest_rejected_udp_invalid_total",
		"UDP alerts failing validation.",
		stat(func(st Stats) int { return st.UDPInvalid }))
	reg.CounterFunc("skynet_ingest_rejected_queue_full_total",
		"Alerts shed because the dispatch queue was full.",
		stat(func(st Stats) int { return st.QueueFull }))
	reg.GaugeFunc("skynet_ingest_queue_high_water",
		"Deepest the dispatch queue has been.",
		stat(func(st Stats) int { return st.QueueHighWater }))
	reg.GaugeFunc("skynet_ingest_queue_depth",
		"Current dispatch queue depth.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("skynet_ingest_queue_load",
		"Current dispatch queue depth as a fraction of its capacity (the ingest-queue-high SLO input).",
		func() float64 {
			if cap(s.queue) == 0 {
				return 0
			}
			return float64(len(s.queue)) / float64(cap(s.queue))
		})
}

// acceptLoop accepts TCP connections up to MaxConns.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			s.log.Warn("ingest: accept", "err", err)
			continue
		}
		s.mu.Lock()
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.log.Warn("ingest: connection limit reached, closing", "remote", conn.RemoteAddr())
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.stats.TCPConnections++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads JSON Lines alerts from one TCP connection.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := alert.NewDecoder(&timeoutReader{conn: conn, timeout: s.cfg.ReadTimeout})
	for {
		var a alert.Alert
		err := dec.Decode(&a)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			if s.ctx.Err() == nil {
				s.log.Warn("ingest: tcp decode", "remote", conn.RemoteAddr(), "err", err)
			}
			s.reject(rejectTCPDecode)
			return
		}
		if verr := a.Validate(); verr != nil && a.Source != alert.SourceSyslog {
			s.reject(rejectTCPInvalid)
			continue
		}
		s.enqueue(a)
	}
}

// udpLoop reads one compact-format alert per datagram. The loop owns a
// WireScratch (single goroutine, no locking) so repeated field values
// across datagrams decode without allocating.
func (s *Server) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, alert.MaxLineBytes)
	var sc alert.WireScratch
	for {
		n, _, err := s.udpPc.ReadFrom(buf)
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			s.log.Warn("ingest: udp read", "err", err)
			continue
		}
		a, err := sc.ParseWire(trimNewline(buf[:n]))
		if err != nil {
			s.reject(rejectUDPParse)
			continue
		}
		if verr := a.Validate(); verr != nil && a.Source != alert.SourceSyslog {
			s.reject(rejectUDPInvalid)
			continue
		}
		s.enqueue(a)
	}
}

// udpBatchLoop is udpLoop for batch mode: datagrams decode straight
// into batch columns (Batch.AppendWire), and the batch is flushed to the
// dispatcher when it reaches maxIngestBatch rows or when no further
// datagram arrives within udpFlushInterval.
func (s *Server) udpBatchLoop() {
	defer s.wg.Done()
	buf := make([]byte, alert.MaxLineBytes)
	var sc alert.WireScratch
	b := s.pool.Get().(*alert.Batch)
	b.Reset()
	for {
		// Block indefinitely while empty; with rows pending, wait only
		// the flush interval so a lull can't strand decoded alerts.
		var deadline time.Time
		if b.Len() > 0 {
			deadline = time.Now().Add(udpFlushInterval)
		}
		s.udpPc.SetReadDeadline(deadline)
		n, _, err := s.udpPc.ReadFrom(buf)
		if err != nil {
			if s.ctx.Err() != nil {
				s.flushBatch(b)
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				b = s.flushBatch(b)
				continue
			}
			s.log.Warn("ingest: udp read", "err", err)
			continue
		}
		if err := b.AppendWireScratch(trimNewline(buf[:n]), &sc); err != nil {
			s.reject(rejectUDPParse)
			continue
		}
		if i := b.Len() - 1; b.Source[i] != alert.SourceSyslog {
			if verr := b.ValidateRow(i); verr != nil {
				b.DropLast()
				s.reject(rejectUDPInvalid)
				continue
			}
		}
		if b.Len() >= maxIngestBatch {
			b = s.flushBatch(b)
		}
	}
}

func trimNewline(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// timeoutReader applies a fresh read deadline per Read call.
type timeoutReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r *timeoutReader) Read(p []byte) (int, error) {
	if r.timeout > 0 {
		if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return 0, err
		}
	}
	return r.conn.Read(p)
}
