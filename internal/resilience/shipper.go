package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Config tunes the fault-tolerant ship path.
type Config struct {
	// Policy is the retry → breaker policy of each batch's delivery.
	Policy
	// SpillEvents bounds the spill queue in events; overflowing events are
	// dropped oldest-first and counted (default 65536).
	SpillEvents int
	// Telemetry, when non-nil, receives the ship-path self-accounting
	// (attempts, retries, backoff delays, spill depth, breaker state). The
	// tracer wires its own registry through here automatically.
	Telemetry *telemetry.Registry
}

// Stats is a snapshot of the shipper's event accounting. Every event handed
// to BulkEvents ends up in exactly one of: Shipped (acked, possibly via replay) or
// SpillDropped (dropped with accounting).
type Stats struct {
	// Shipped is the number of events acknowledged by the backend, replays
	// included.
	Shipped uint64 `json:"shipped"`
	// Retries counts ship attempts beyond each batch's first.
	Retries uint64 `json:"retries"`
	// Requeued is the number of events parked in the spill queue.
	Requeued uint64 `json:"requeued"`
	// Replayed is the number of spilled events later acknowledged.
	Replayed uint64 `json:"replayed"`
	// SpillDropped is the number of events dropped with accounting: spill
	// overflow, permanently-failed batches, and batches the final flush
	// could not deliver.
	SpillDropped uint64 `json:"spill_dropped"`
	// SpillPending is the number of events currently parked.
	SpillPending uint64 `json:"spill_pending"`
	// BreakerOpens / BreakerCloses count breaker trips and recoveries.
	BreakerOpens  uint64 `json:"breaker_opens"`
	BreakerCloses uint64 `json:"breaker_closes"`
	// BreakerState is the breaker's position at snapshot time.
	BreakerState string `json:"breaker_state"`
}

// ErrSpilled reports that BulkEvents parked the batch in the spill queue for
// later replay instead of delivering it; the shipper owns its accounting from
// here on.
var ErrSpilled = errors.New("resilience: batch spilled for later replay")

// Shipper wraps a store.Backend with the retry → breaker → spill → counted
// drop ladder. It implements store.Backend, so the tracer's drain workers
// use it transparently; the read path (Search/Count/Correlate) is the
// embedded backend's, untouched — queries are interactive and their callers
// handle errors directly.
type Shipper struct {
	store.Backend
	// Ladder runs each batch's delivery attempts.
	*Ladder
	spill *spillQueue

	// replayMu serializes spill replay so recovered batches leave in FIFO
	// order; BulkEvents callers use TryLock and skip replay when another worker
	// already holds it.
	replayMu sync.Mutex

	shipped      atomic.Uint64
	requeued     atomic.Uint64
	replayed     atomic.Uint64
	spillDropped atomic.Uint64

	// Telemetry counters (nil-safe no-ops when unset).
	tmRequeued     *telemetry.Counter
	tmReplayed     *telemetry.Counter
	tmSpillDropped *telemetry.Counter
}

var _ store.Backend = (*Shipper)(nil)

// NewShipper wraps backend with cfg's resilience ladder.
func NewShipper(backend store.Backend, cfg Config) *Shipper {
	if cfg.SpillEvents <= 0 {
		cfg.SpillEvents = 65536
	}
	s := &Shipper{
		Backend: backend,
		Ladder:  NewLadder(cfg.Policy),
		spill:   newSpillQueue(cfg.SpillEvents),
	}
	if tm := cfg.Telemetry; tm != nil {
		s.Instrument(
			tm.Counter(telemetry.MetricShipAttempts, "delivery attempts, first tries included"),
			tm.Counter(telemetry.MetricRetries, "ship attempts beyond each batch's first"),
			tm.Histogram(telemetry.MetricBackoffNS, "backoff delays slept before retries", nil))
		s.tmRequeued = tm.Counter(telemetry.MetricRequeued, "events parked in the spill queue")
		s.tmReplayed = tm.Counter(telemetry.MetricReplayed, "spilled events later delivered")
		s.tmSpillDropped = tm.Counter(telemetry.MetricSpillDropped, "events dropped with accounting")
		spill, breaker := s.spill, s.breaker
		tm.GaugeFunc(telemetry.MetricSpillPending, "events currently parked in the spill queue",
			func() float64 { return float64(spill.size()) })
		tm.GaugeFunc(telemetry.MetricBreakerState, "circuit breaker position (0 closed, 1 open, 2 half-open)",
			func() float64 { return float64(breaker.State()) })
		breaker.setTelemetry(
			tm.Counter(telemetry.MetricBreakerOpens, "circuit breaker trips"),
			tm.Counter(telemetry.MetricBreakerCloses, "circuit breaker recoveries"))
	}
	return s
}

// BulkEvents ships events with retries; on exhaustion the batch spills
// (ErrSpilled) and on permanent failure it is dropped and counted. Every
// event is accounted for exactly once. ctx bounds the whole delivery
// (per-attempt deadlines layer AttemptTimeout on top of it).
func (s *Shipper) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	return s.deliver(ctx, spillBatch{index: index, events: events})
}

// deliver runs one batch through the ladder.
func (s *Shipper) deliver(ctx context.Context, b spillBatch) error {
	// Replay parked batches first so a recovered backend receives events in
	// the order they were drained.
	if s.spill.size() > 0 {
		s.tryReplay(ctx)
	}
	n := uint64(len(b.events))
	err := s.ship(ctx, &b, false)
	if err == nil {
		s.shipped.Add(n)
		return nil
	}
	if IsRetryable(err) {
		queued, evicted := s.spill.push(b)
		s.countSpillDropped(uint64(evicted))
		if !queued {
			s.countSpillDropped(n)
			return fmt.Errorf("resilience: batch of %d events exceeds spill capacity, dropped: %w", n, err)
		}
		s.requeued.Add(n)
		s.tmRequeued.Add(n)
		return fmt.Errorf("%w: %v", ErrSpilled, err)
	}
	// Permanent failure: the final rung of the ladder is a counted drop.
	s.countSpillDropped(n)
	return err
}

// countSpillDropped records an accounted drop in both the Stats counter and
// the telemetry registry.
func (s *Shipper) countSpillDropped(n uint64) {
	if n == 0 {
		return
	}
	s.spillDropped.Add(n)
	s.tmSpillDropped.Add(n)
}

// countReplayed records a successful replay in both accounting surfaces.
func (s *Shipper) countReplayed(n uint64) {
	s.replayed.Add(n)
	s.shipped.Add(n)
	s.tmReplayed.Add(n)
}

// ship runs one batch up the ladder; bypassBreaker is the final flush's
// last-chance mode.
func (s *Shipper) ship(ctx context.Context, b *spillBatch, bypassBreaker bool) error {
	return s.Run(ctx, bypassBreaker, func(ctx context.Context) error {
		return s.Backend.BulkEvents(ctx, b.index, b.events)
	})
}

// tryReplay replays parked batches opportunistically, unless another
// goroutine already is.
func (s *Shipper) tryReplay(ctx context.Context) {
	if s.replayMu.TryLock() {
		defer s.replayMu.Unlock()
		_ = s.replay(ctx, false)
	}
}

// Flush replays every parked batch, bypassing the breaker — this is the
// final drain's last chance before Stop returns. Batches that still fail are
// dropped and counted, so the accounting invariant holds even through a
// shutdown during an outage. The returned error joins the first few delivery
// failures.
func (s *Shipper) Flush() error {
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	return s.replay(context.Background(), true)
}

// replay drains the spill queue in FIFO order; the caller holds replayMu. A
// batch the backend permanently rejects is dropped and counted, and the rest
// replay. Opportunistic replay stops at a batch that still fails retryably,
// parking it back at the front; the final flush drops and counts it too.
func (s *Shipper) replay(ctx context.Context, final bool) error {
	var errs []error
	for {
		b, ok := s.spill.pop()
		if !ok {
			return errors.Join(errs...)
		}
		n := uint64(len(b.events))
		switch err := s.ship(ctx, &b, final); {
		case err == nil:
			s.countReplayed(n)
		case !final && IsRetryable(err):
			s.spill.unshift(b)
			return nil
		default:
			s.countSpillDropped(n)
			if final && len(errs) < 4 {
				errs = append(errs, fmt.Errorf("flush %d spilled events: %w", n, err))
			}
		}
	}
}

// Stats snapshots the shipper's accounting.
func (s *Shipper) Stats() Stats {
	return Stats{
		Shipped:       s.shipped.Load(),
		Retries:       s.Retries(),
		Requeued:      s.requeued.Load(),
		Replayed:      s.replayed.Load(),
		SpillDropped:  s.spillDropped.Load(),
		SpillPending:  uint64(s.spill.size()),
		BreakerOpens:  s.breaker.Opens(),
		BreakerCloses: s.breaker.Closes(),
		BreakerState:  s.breaker.State().String(),
	}
}
