package main

import (
	"io"
	"log/slog"
	"sync"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/flood"
	"skynet/internal/ingest"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

// daemon is one SkyNet engine wired the way cmd/skynetd wires it with its
// default flags: telemetry and journal, span tracer, history and SLO with
// self-monitoring, pprof labeler and runtime sampler, provenance at
// DefaultSampleEvery, flood recorder, and a WallStamp fan-out hub with
// the journal, flood and SLO chatter on its ring. Only the parts that run
// off the tick path and write to disk are left out: the continuous
// profile collector and the flight recorder's dumps.
type daemon struct {
	topo   *topology.Topology
	engine *core.Engine
	// mu is skynetd's engineMu: the ingest handler and the tick take it.
	mu      sync.Mutex
	reg     *telemetry.Registry
	tracer  *span.Tracer
	hub     *fanout.Hub
	prov    *provenance.Recorder
	flood   *flood.Recorder
	srv     *ingest.Server // nil unless a handler was given
	shedSum func() int64
}

// daemonConfig selects the topology scale, the worker fan-out, and
// optionally the ingest front door. handler, when set, builds the batch
// handler the TCP listener feeds; it receives the daemon so it can take
// its engine lock.
type daemonConfig struct {
	scale   topology.Config
	workers int
	handler func(d *daemon) ingest.BatchHandler
}

// newDaemon wires a daemon. This is the one place that follows
// cmd/skynetd's main; keep the two in step.
func newDaemon(cfg daemonConfig) (*daemon, error) {
	topo, err := topology.Generate(cfg.scale)
	if err != nil {
		return nil, err
	}
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, err
	}
	engineCfg := core.DefaultConfig()
	engineCfg.Workers = cfg.workers
	engine := core.NewEngine(engineCfg, topo, classifier, nil, nil)
	d := &daemon{topo: topo, engine: engine, shedSum: func() int64 { return 0 }}

	reg := telemetry.New()
	journal := telemetry.NewJournal(0)
	engine.EnableTelemetry(reg, journal)
	journal.RegisterMetrics(reg)

	tracer := span.NewTracer(0)
	engine.EnableTracing(tracer)

	db := tsdb.New(tsdb.Config{})
	db.RegisterMetrics(reg)
	engine.EnableHistory(tsdb.NewSampler(db, reg))

	sloEng := slo.New(db, slo.DefaultRules(flight.DefaultSLOTickP99))
	sloEng.RegisterMetrics(reg)
	engine.EnableSLO(sloEng, true)

	engine.EnableProfiling(prof.NewLabeler(engine.MaxShards()))
	engine.EnableRuntimeMetrics(prof.NewRuntime(reg))

	hub := fanout.NewHub(fanout.Config{Ring: 1024, WallStamp: true})
	hub.RegisterMetrics(reg)
	engine.EnableFanout(hub)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(fanout.EventIncident, ev) })

	prov := provenance.New(provenance.Config{SampleEvery: provenance.DefaultSampleEvery})
	engine.EnableProvenance(prov)
	prov.RegisterMetrics(reg)

	floodRec := flood.New(flood.Config{})
	engine.EnableFlood(floodRec)
	floodRec.RegisterMetrics(reg)
	floodRec.SetHistory(flood.HistoryFromDB(db,
		tsdb.MetricTickDuration,
		"skynet_raw_alerts_total",
		"skynet_active_incidents",
		"skynet_preprocess_pending_depth"))
	floodRec.SetNotify(func(ev flood.Event) { hub.Publish(fanout.EventFlood, ev) })
	sloEng.SetNotify(func(ev slo.Event) { hub.Publish(fanout.EventSLO, ev) })

	d.reg, d.tracer, d.hub, d.prov, d.flood = reg, tracer, hub, prov, floodRec

	if cfg.handler != nil {
		srv, err := ingest.ListenBatch(ingest.Config{
			TCPAddr:     "127.0.0.1:0",
			MaxConns:    256,
			ReadTimeout: 5 * time.Minute,
			QueueDepth:  8192,
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		}, cfg.handler(d))
		if err != nil {
			hub.Close()
			return nil, err
		}
		srv.RegisterMetrics(reg)
		d.srv = srv
		d.shedSum = func() int64 { return int64(srv.Stats().QueueFull) }
	}
	return d, nil
}

// ingestBatch is skynetd's ingest handler body: the columnar batch goes
// into the engine under the engine lock.
func (d *daemon) ingestBatch(b *alert.Batch) {
	d.mu.Lock()
	d.engine.IngestBatch(b)
	d.mu.Unlock()
}

// tick runs one engine tick under the engine lock, then feeds the tick's
// latency to the flood recorder as skynetd's loop does.
func (d *daemon) tick(now time.Time) (core.TickResult, time.Duration) {
	d.mu.Lock()
	start := time.Now()
	res := d.engine.Tick(now)
	dur := time.Since(start)
	d.mu.Unlock()
	d.flood.ObservePerf(dur, d.shedSum())
	return res, dur
}

// close stops the listener and the hub.
func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	d.hub.Close()
}
