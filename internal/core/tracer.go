// Package core implements DIO's tracer (§II-B): it attaches eBPF-style
// programs to the simulated kernel's syscall tracepoints, lets them filter
// and enrich events in kernel space, and runs a user-space consumer that
// asynchronously drains the per-CPU ring buffers, parses binary records
// into JSON-ready events, and ships them in batches to the analysis
// backend. Only syscall interception is synchronous; everything else is off
// the application's critical path.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/metrics"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Config configures one tracing session.
type Config struct {
	// SessionName labels this tracing execution; auto-generated when empty
	// so multiple runs can share a backend (§II-F).
	SessionName string
	// Index is the backend index receiving events (default "dio-events").
	Index string
	// Filter narrows tracing by syscall type, PID/TID, and path (§II-B).
	Filter ebpf.Filter
	// NumCPU is the number of per-CPU ring buffers (default 1).
	NumCPU int
	// RingBytes is each ring's capacity in bytes (default ebpf.DefaultRingBytes).
	RingBytes int
	// BatchSize groups events into bulk requests (default 512).
	BatchSize int
	// FlushInterval bounds how long a partial batch may wait (default 10ms),
	// keeping the pipeline near-real-time. It also paces the drain workers:
	// rings are only emptied once per interval, which is what lets the
	// drops experiments model a consumer that falls behind (§III-D).
	FlushInterval time.Duration
	// DrainWorkers is the number of user-space drain goroutines. 0 (the
	// default) starts one worker per CPU ring — the scalable configuration.
	// 1 reproduces the original single-consumer loop over all rings and is
	// kept as the ablation baseline; other values assign rings to workers
	// round-robin.
	DrainWorkers int
	// Backend receives the events. Required.
	Backend store.Backend
	// Resilience tunes the ship path every tracer runs Backend through
	// (retry → circuit breaker → spill queue → counted drop; see DESIGN.md
	// §8); nil takes the library defaults (the field is a pointer only
	// because benchmark/ sets it). Stop's final drain flushes the spill
	// queue before returning, so every captured event is either shipped or
	// counted in exactly one drop counter.
	Resilience *resilience.Config
	// AutoCorrelate runs the file-path correlation algorithm on Stop.
	AutoCorrelate bool
	// PerEventCost optionally charges a synthetic kernel-side cost per
	// traced event (used by the overhead experiments of Table II).
	PerEventCost func()
	// Telemetry is the self-accounting registry every pipeline stage
	// records into (ring produce/drop, drain/parse/flush latency, shipper
	// ladder activity). Nil creates a private registry per tracer; pass a
	// shared one to merge the tracer's metrics into a server's /metrics
	// endpoint. See DESIGN.md §9.
	Telemetry *telemetry.Registry
	// DisableTelemetry turns self-accounting off entirely — the ablation
	// switch for BenchmarkTelemetryOverhead.
	DisableTelemetry bool
}

// WorkerStats summarizes one drain worker's share of the pipeline.
type WorkerStats struct {
	// Worker is the worker's index.
	Worker int
	// Rings is the number of per-CPU rings the worker drains.
	Rings int
	// Dropped is the number of events lost on this worker's rings.
	Dropped uint64
	// Parsed is the number of records the worker decoded.
	Parsed uint64
	// ParseErrors is the number of corrupt records the worker could not
	// decode (each is one lost event, counted here instead of vanishing).
	ParseErrors uint64
	// Shipped is the number of events the worker indexed at the backend.
	Shipped uint64
	// Requeued is the number of events the resilience layer parked in the
	// spill queue on this worker's behalf.
	Requeued uint64
	// ShipErrors counts the worker's batches the ship path dropped at once
	// (their events are in Stats.SpillDropped).
	ShipErrors uint64
	// Flushes counts the worker's bulk requests (including failed ones).
	Flushes uint64
}

// Stats summarizes a tracing session.
type Stats struct {
	Session string
	// Captured is the number of events accepted by kernel-side filters.
	Captured uint64
	// Filtered is the number of events rejected in kernel space.
	Filtered uint64
	// Dropped is the number of events lost to full ring buffers (§III-D).
	Dropped uint64
	// Parsed is the number of records decoded by the user-space consumers.
	Parsed uint64
	// ParseErrors is the number of corrupt records dropped by the parsers.
	ParseErrors uint64
	// Shipped is the number of events successfully indexed at the backend,
	// including spilled events delivered later by replay.
	Shipped uint64
	// ShipErrors counts batches the ship path dropped at once — a permanent
	// rejection, or a batch larger than the spill queue. Their events are in
	// SpillDropped; a batch parked for replay is not a ship error.
	ShipErrors uint64
	// Retries counts ship attempts beyond each batch's first (resilience).
	Retries uint64
	// Requeued is the number of events parked in the spill queue while the
	// backend was failing (resilience).
	Requeued uint64
	// Replayed is the number of spilled events later delivered (resilience).
	Replayed uint64
	// SpillDropped is the number of events dropped with accounting by the
	// resilience layer: spill overflow, permanently-failed batches, and
	// batches the final flush could not deliver. Together with Dropped it
	// makes loss exact: Shipped + Dropped + SpillDropped + ParseErrors ==
	// Captured.
	SpillDropped uint64
	// BreakerOpens counts circuit-breaker trips (resilience).
	BreakerOpens uint64
	// Resilience is the full shipper snapshot.
	Resilience *resilience.Stats
	// Workers breaks the user-space numbers down per drain worker.
	Workers []WorkerStats
	// Correlation is the result of the final correlation pass, when
	// AutoCorrelate is set.
	Correlation store.CorrelationResult
}

// DropFraction returns the share of captured events that were lost.
func (s Stats) DropFraction() float64 {
	if s.Captured == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Captured)
}

// Tracer is one DIO tracing session.
type Tracer struct {
	cfg  Config
	prog *ebpf.Program
	// shipper is the one ship path: the resilience ladder around
	// cfg.Backend.
	shipper *resilience.Shipper

	mu      sync.Mutex
	started bool
	stopped bool
	stop    chan struct{}
	wg      sync.WaitGroup

	workers   []*drainWorker
	batchPool sync.Pool // *[]event.Event, cap BatchSize
	errs      shipErrorList

	// Flush latency instruments (nil-safe no-ops when telemetry is
	// disabled, so the drain loop guards only its time.Now() calls). The
	// counters' series read the drain workers' own tallies.
	flushNS     *telemetry.Histogram
	flushWindow *metrics.WindowedRecorder
}

// drainWorker is one user-space consumer goroutine: it owns a subset of the
// per-CPU rings, a reusable batch buffer, and its own counters, so workers
// never contend with each other on the drain path. Stats and the telemetry
// series both sum these counters.
type drainWorker struct {
	id    int
	rings []*ebpf.RingBuffer

	parsed      atomic.Uint64
	parseErrors atomic.Uint64
	shipped     atomic.Uint64
	requeued    atomic.Uint64
	shipErrors  atomic.Uint64
	flushes     atomic.Uint64

	// batchLen mirrors len(batch) at batch granularity so the telemetry
	// batch-pending gauge can observe drained-but-unflushed events without
	// sharing the worker-local batch slice.
	batchLen atomic.Int64

	// Per-worker latency histograms (nil when telemetry is disabled).
	tmDrainNS *telemetry.Histogram
	tmParseNS *telemetry.Histogram
}

// maxShipErrors bounds how many distinct ship errors are retained for Stop's
// report.
const maxShipErrors = 8

// shipErrorList retains the first maxShipErrors distinct ship errors instead
// of last-writer-wins, so Stop reports what actually went wrong over the
// session, not just the final failure.
type shipErrorList struct {
	mu      sync.Mutex
	seen    map[string]struct{}
	errs    []error
	omitted int
}

func (l *shipErrorList) add(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[string]struct{})
	}
	key := err.Error()
	if _, dup := l.seen[key]; dup {
		return
	}
	if len(l.errs) >= maxShipErrors {
		l.omitted++
		return
	}
	l.seen[key] = struct{}{}
	l.errs = append(l.errs, err)
}

// err joins the retained errors (nil when none occurred).
func (l *shipErrorList) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errs) == 0 {
		return nil
	}
	joined := errors.Join(l.errs...)
	if l.omitted > 0 {
		return fmt.Errorf("%w\n(and %d more distinct errors omitted)", joined, l.omitted)
	}
	return joined
}

var (
	// ErrNoBackend reports a Config without a Backend.
	ErrNoBackend = errors.New("core: config requires a backend")
	// ErrNotStarted reports Stop before Start.
	ErrNotStarted = errors.New("core: tracer not started")
	// ErrAlreadyStarted reports a second Start.
	ErrAlreadyStarted = errors.New("core: tracer already started")
)

var sessionCounter atomic.Uint64

// NewTracer validates cfg and creates a tracer.
func NewTracer(cfg Config) (*Tracer, error) {
	if cfg.Backend == nil {
		return nil, ErrNoBackend
	}
	if cfg.SessionName == "" {
		cfg.SessionName = fmt.Sprintf("dio-%d-%d", time.Now().UnixNano(), sessionCounter.Add(1))
	}
	if cfg.Index == "" {
		cfg.Index = "dio-events"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 10 * time.Millisecond
	}
	if !cfg.DisableTelemetry && cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.DisableTelemetry {
		cfg.Telemetry = nil
	}
	var rcfg resilience.Config
	if cfg.Resilience != nil {
		rcfg = *cfg.Resilience
	}
	if rcfg.Telemetry == nil {
		rcfg.Telemetry = cfg.Telemetry
	}
	t := &Tracer{cfg: cfg, shipper: resilience.NewShipper(cfg.Backend, rcfg)}
	if tm := cfg.Telemetry; tm != nil {
		t.flushNS = tm.Histogram(telemetry.MetricFlushNS, "one bulk ship call", nil)
		t.flushWindow = tm.Window(telemetry.MetricFlushWindow, "windowed flush latency", int64(100*time.Millisecond))
	}
	return t, nil
}

// Session returns the session name labeling this execution.
func (t *Tracer) Session() string { return t.cfg.SessionName }

// Index returns the backend index receiving this session's events.
func (t *Tracer) Index() string { return t.cfg.Index }

// Start attaches the kernel-side program to k and starts the asynchronous
// consumer.
func (t *Tracer) Start(k *kernel.Kernel) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return ErrAlreadyStarted
	}
	t.started = true
	t.prog = ebpf.NewProgram(ebpf.ProgramConfig{
		Filter:       t.cfg.Filter,
		NumCPU:       t.cfg.NumCPU,
		RingBytes:    t.cfg.RingBytes,
		PerEventCost: t.cfg.PerEventCost,
		Telemetry:    t.cfg.Telemetry,
	})
	t.prog.Attach(k)
	t.stop = make(chan struct{})
	batchCap := t.cfg.BatchSize
	t.batchPool.New = func() any {
		s := make([]event.Event, 0, batchCap)
		return &s
	}

	// Partition the per-CPU rings across the drain workers round-robin.
	rings := t.prog.Rings().Rings()
	n := t.cfg.DrainWorkers
	if n <= 0 || n > len(rings) {
		n = len(rings)
	}
	t.workers = make([]*drainWorker, n)
	for i := range t.workers {
		w := &drainWorker{id: i}
		for r := i; r < len(rings); r += n {
			w.rings = append(w.rings, rings[r])
		}
		if tm := t.cfg.Telemetry; tm != nil {
			w.tmDrainNS = tm.Histogram(
				fmt.Sprintf("%s{worker=\"%d\"}", telemetry.MetricDrainNS, i),
				"one drain cycle (rings to batch)", nil)
			w.tmParseNS = tm.Histogram(
				fmt.Sprintf("%s{worker=\"%d\"}", telemetry.MetricParseNS, i),
				"decoding one raw read batch", nil)
		}
		t.workers[i] = w
	}
	if tm := t.cfg.Telemetry; tm != nil {
		workers := t.workers
		sum := func(count func(*drainWorker) *atomic.Uint64) func() uint64 {
			return func() uint64 {
				var n uint64
				for _, w := range workers {
					n += count(w).Load()
				}
				return n
			}
		}
		tm.CounterFunc(telemetry.MetricParsed, "records decoded by the drain workers",
			sum(func(w *drainWorker) *atomic.Uint64 { return &w.parsed }))
		tm.CounterFunc(telemetry.MetricParseErrors, "corrupt records dropped by the parsers",
			sum(func(w *drainWorker) *atomic.Uint64 { return &w.parseErrors }))
		tm.CounterFunc(telemetry.MetricShipped, "events acked synchronously by the backend",
			sum(func(w *drainWorker) *atomic.Uint64 { return &w.shipped }))
		tm.CounterFunc(telemetry.MetricShipErrors, "batches the ship path dropped at once",
			sum(func(w *drainWorker) *atomic.Uint64 { return &w.shipErrors }))
		tm.CounterFunc(telemetry.MetricFlushes, "bulk requests issued",
			sum(func(w *drainWorker) *atomic.Uint64 { return &w.flushes }))
		tm.GaugeFunc(telemetry.MetricBatchPending, "events drained but not yet flushed",
			func() float64 {
				var n int64
				for _, w := range workers {
					n += w.batchLen.Load()
				}
				return float64(n)
			})
	}
	t.wg.Add(len(t.workers))
	for _, w := range t.workers {
		go t.drain(w)
	}
	return nil
}

// Stop detaches the program, drains and ships remaining events, optionally
// runs correlation, and returns the session statistics.
func (t *Tracer) Stop() (Stats, error) {
	t.mu.Lock()
	if !t.started {
		t.mu.Unlock()
		return Stats{}, ErrNotStarted
	}
	if t.stopped {
		t.mu.Unlock()
		return t.statsLocked(), nil
	}
	t.stopped = true
	t.mu.Unlock()

	t.prog.Detach()
	close(t.stop)
	t.wg.Wait()

	// Final spill flush: replay everything the resilience layer parked, so
	// a backend that recovered gets the events and one that did not gets
	// exact drop accounting. Runs before correlation so the correlation
	// pass sees the replayed events.
	if ferr := t.shipper.Flush(); ferr != nil {
		t.errs.add(fmt.Errorf("final spill flush: %w", ferr))
	}

	var res store.CorrelationResult
	var err error
	if t.cfg.AutoCorrelate {
		res, err = t.cfg.Backend.Correlate(context.Background(), t.cfg.Index, t.cfg.SessionName)
	}
	if err == nil {
		err = t.errs.err()
	}

	st := t.stats()
	st.Correlation = res
	return st, err
}

// Stats returns a snapshot of the session statistics.
func (t *Tracer) Stats() Stats { return t.stats() }

// TelemetryRegistry returns the tracer's self-accounting registry (nil when
// DisableTelemetry is set). Attach it to a store.Server with
// ExposeTelemetry to surface the tracer's metrics on GET /metrics alongside
// the backend's own.
func (t *Tracer) TelemetryRegistry() *telemetry.Registry { return t.cfg.Telemetry }

// Telemetry snapshots the pipeline's self-accounting: counters, gauges,
// histograms, and windowed latency series from every stage the tracer owns
// (ebpf rings, drain workers, and the resilience ladder). Its counters read
// the same memory Stats does.
// Safe to call while tracing and after Stop.
func (t *Tracer) Telemetry() telemetry.Snapshot { return t.cfg.Telemetry.Snapshot() }

// Ledger derives the conservation ledger from the current telemetry
// snapshot. After Stop it must balance exactly:
//
//	Captured == Shipped + RingDropped + SpillDropped + ParseErrors
//
// Live, in-flight events appear in Ledger.Pending instead of vanishing.
func (t *Tracer) Ledger() telemetry.Ledger {
	return telemetry.LedgerFromSnapshot(t.Telemetry())
}

func (t *Tracer) stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statsLocked()
}

func (t *Tracer) statsLocked() Stats {
	st := Stats{Session: t.cfg.SessionName}
	for _, w := range t.workers {
		ws := WorkerStats{
			Worker:      w.id,
			Rings:       len(w.rings),
			Parsed:      w.parsed.Load(),
			ParseErrors: w.parseErrors.Load(),
			Shipped:     w.shipped.Load(),
			Requeued:    w.requeued.Load(),
			ShipErrors:  w.shipErrors.Load(),
			Flushes:     w.flushes.Load(),
		}
		for _, r := range w.rings {
			ws.Dropped += r.Drops()
		}
		st.Parsed += ws.Parsed
		st.ParseErrors += ws.ParseErrors
		st.Shipped += ws.Shipped
		st.ShipErrors += ws.ShipErrors
		st.Workers = append(st.Workers, ws)
	}
	if t.prog != nil {
		st.Captured = t.prog.Captured()
		st.Filtered = t.prog.Filtered()
		st.Dropped = t.prog.Drops()
	}
	rs := t.shipper.Stats()
	// Workers count only batches acked synchronously; replays are delivered
	// (and counted once) by the shipper.
	st.Shipped += rs.Replayed
	st.Retries = rs.Retries
	st.Requeued = rs.Requeued
	st.Replayed = rs.Replayed
	st.SpillDropped = rs.SpillDropped
	st.BreakerOpens = rs.BreakerOpens
	st.Resilience = &rs
	return st
}

// drain is one worker's loop: every FlushInterval it fetches binary records
// from its rings, parses them into typed events, and ships batches to the
// backend. Workers share nothing but the backend handle, so drain throughput
// scales with the number of rings when cores are available. Batch buffers
// come from a pool, the raw-record slice and the scratch Record are reused
// across reads, and no Document is materialized anywhere on this path —
// event batches flow straight into the backend's BulkEvents.
func (t *Tracer) drain(w *drainWorker) {
	defer t.wg.Done()
	ticker := time.NewTicker(t.cfg.FlushInterval)
	defer ticker.Stop()

	batchp := t.batchPool.Get().(*[]event.Event)
	batch := (*batchp)[:0]
	var raws [][]byte
	var rec ebpf.Record

	tmOn := t.cfg.Telemetry != nil

	flush := func() {
		if len(batch) == 0 {
			return
		}
		w.flushes.Add(1)
		var start time.Time
		if tmOn {
			start = time.Now()
		}
		err := t.shipper.BulkEvents(context.Background(), t.cfg.Index, batch)
		if tmOn {
			d := float64(time.Since(start))
			t.flushNS.Observe(d)
			t.flushWindow.Record(start.UnixNano(), d)
		}
		switch {
		case err == nil:
			w.shipped.Add(uint64(len(batch)))
		case errors.Is(err, resilience.ErrSpilled):
			// The resilience layer parked the batch and owns its accounting
			// from here (replay or counted drop).
			w.requeued.Add(uint64(len(batch)))
		default:
			// The shipper dropped the batch and counted it in SpillDropped;
			// the worker keeps the failed request and its error.
			w.shipErrors.Add(1)
			t.errs.add(fmt.Errorf("bulk ship: %w", err))
		}
		batch = batch[:0]
		w.batchLen.Store(0)
	}

	drainRings := func() {
		var drainStart time.Time
		if tmOn {
			drainStart = time.Now()
		}
		for _, ring := range w.rings {
			for {
				raws = ring.ReadBatchInto(raws[:0], t.cfg.BatchSize)
				if len(raws) == 0 {
					break
				}
				var parseStart time.Time
				if tmOn {
					parseStart = time.Now()
				}
				for _, raw := range raws {
					if err := ebpf.UnmarshalInto(raw, &rec); err != nil {
						// Corrupt record: nothing to recover, but the loss
						// is counted so the accounting stays exact.
						w.parseErrors.Add(1)
						continue
					}
					w.parsed.Add(1)
					batch = append(batch, t.recordToEvent(&rec))
					if len(batch) >= t.cfg.BatchSize {
						w.batchLen.Store(int64(len(batch)))
						flush()
					}
				}
				if tmOn {
					w.tmParseNS.Observe(float64(time.Since(parseStart)))
					w.batchLen.Store(int64(len(batch)))
				}
			}
		}
		if tmOn {
			w.tmDrainNS.Observe(float64(time.Since(drainStart)))
		}
	}

	for {
		select {
		case <-t.stop:
			// Final drain: the program is detached, so the rings are quiescent.
			drainRings()
			flush()
			*batchp = batch[:0]
			t.batchPool.Put(batchp)
			return
		case <-ticker.C:
			drainRings()
			flush()
		}
	}
}

// recordToEvent converts a kernel record into the enriched event model.
func (t *Tracer) recordToEvent(r *ebpf.Record) event.Event {
	nr := kernel.Syscall(r.NR)
	ev := event.Event{
		Session:     t.cfg.SessionName,
		Syscall:     nr.String(),
		Class:       nr.Class().String(),
		RetVal:      r.Ret,
		FD:          int(r.FD),
		ArgPath:     r.Path,
		ArgPath2:    r.Path2,
		Count:       int(r.Count),
		ArgOff:      r.ArgOff,
		Whence:      int(r.Whence),
		Flags:       int(r.Flags),
		Mode:        r.Mode,
		AttrName:    r.AttrName,
		PID:         int(r.PID),
		TID:         int(r.TID),
		ProcName:    r.Comm,
		ThreadName:  r.TaskComm,
		TimeEnterNS: r.EnterNS,
		TimeExitNS:  r.ExitNS,
	}
	if r.HaveFile() {
		ev.FileTag = event.FileTag{Dev: r.Dev, Ino: r.Ino, BirthNS: r.BirthNS}
	}
	if r.HaveOffset() {
		ev.HasOffset = true
		ev.Offset = r.Offset
	}
	if r.Path != "" {
		ev.KernelPath = r.Path
	}
	if r.HaveFile() && r.FType != 0 {
		ev.FileType = kernel.FileType(r.FType).String()
	}
	return ev
}
