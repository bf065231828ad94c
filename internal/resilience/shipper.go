package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Config tunes the fault-tolerant ship path.
type Config struct {
	// MaxAttempts is the per-batch ship attempt budget, first try included
	// (default 4).
	MaxAttempts int
	// BaseBackoff caps the first retry delay; subsequent delays double up to
	// MaxBackoff, with full jitter (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
	// AttemptTimeout is the per-attempt deadline, layered onto the caller's
	// context for each delivery attempt (default 5s).
	AttemptTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// recovery probe (default 500ms).
	BreakerCooldown time.Duration
	// SpillEvents bounds the spill queue in events; overflowing events are
	// dropped oldest-first and counted (default 65536).
	SpillEvents int
	// Clock drives backoff sleeps and breaker cooldowns; a virtual clock
	// makes retry tests deterministic and instant (default wall clock).
	Clock clock.Clock
	// Seed seeds the jitter source (0 selects a fixed default; jitter only
	// needs to decorrelate concurrent workers, not be unpredictable).
	Seed int64
	// Telemetry, when non-nil, receives the ship-path self-accounting
	// (attempts, retries, backoff delays, spill depth, breaker state). The
	// tracer wires its own registry through here automatically.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.SpillEvents <= 0 {
		c.SpillEvents = 65536
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
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

var (
	// ErrSpilled reports that BulkEvents parked the batch in the spill queue for
	// later replay instead of delivering it; the shipper owns its accounting
	// from here on.
	ErrSpilled = errors.New("resilience: batch spilled for later replay")
	// ErrBreakerOpen reports a call rejected by the open circuit breaker.
	ErrBreakerOpen = errors.New("resilience: circuit breaker open")
)

// Shipper wraps a store.Backend with the retry → breaker → spill → counted
// drop ladder. It implements store.Backend, so the tracer's drain workers
// use it transparently; the read path (Search/Count/Correlate) passes
// through untouched — queries are interactive and their callers handle
// errors directly.
type Shipper struct {
	backend store.Backend
	cfg     Config
	breaker *Breaker
	spill   *spillQueue

	// replayMu serializes spill replay so recovered batches leave in FIFO
	// order; BulkEvents callers use TryLock and skip replay when another worker
	// already holds it.
	replayMu sync.Mutex

	backoff *Backoff

	shipped      atomic.Uint64
	retries      atomic.Uint64
	requeued     atomic.Uint64
	replayed     atomic.Uint64
	spillDropped atomic.Uint64

	// Telemetry counters/histograms (nil-safe no-ops when unset).
	tmAttempts     *telemetry.Counter
	tmRetries      *telemetry.Counter
	tmBackoffNS    *telemetry.Histogram
	tmRequeued     *telemetry.Counter
	tmReplayed     *telemetry.Counter
	tmSpillDropped *telemetry.Counter
}

var _ store.Backend = (*Shipper)(nil)

// NewShipper wraps backend with cfg's resilience ladder.
func NewShipper(backend store.Backend, cfg Config) *Shipper {
	cfg = cfg.withDefaults()
	s := &Shipper{
		backend: backend,
		cfg:     cfg,
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		spill:   newSpillQueue(cfg.SpillEvents),
		backoff: NewBackoff(cfg.BaseBackoff, cfg.MaxBackoff, cfg.Seed),
	}
	if tm := cfg.Telemetry; tm != nil {
		s.tmAttempts = tm.Counter(telemetry.MetricShipAttempts, "delivery attempts, first tries included")
		s.tmRetries = tm.Counter(telemetry.MetricRetries, "ship attempts beyond each batch's first")
		s.tmBackoffNS = tm.Histogram(telemetry.MetricBackoffNS, "backoff delays slept before retries", nil)
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

// ship runs the retry loop for one batch. bypassBreaker is the final flush's
// last-chance mode: attempts proceed even while the breaker is open, and
// their outcome still feeds the breaker so recovery is observed.
func (s *Shipper) ship(ctx context.Context, b *spillBatch, bypassBreaker bool) error {
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			s.tmRetries.Inc()
			d := s.backoff.Delay(attempt, lastErr)
			s.tmBackoffNS.Observe(float64(d))
			s.cfg.Clock.Sleep(d)
		}
		if !bypassBreaker && !s.breaker.Allow() {
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", ErrBreakerOpen, lastErr)
			}
			return ErrBreakerOpen
		}
		err := s.attempt(ctx, b)
		if err == nil {
			s.breaker.RecordSuccess()
			return nil
		}
		s.breaker.RecordFailure()
		lastErr = err
		if !IsRetryable(err) {
			return err
		}
	}
	return lastErr
}

// attempt makes one delivery attempt under a per-attempt deadline layered
// onto the caller's context.
func (s *Shipper) attempt(ctx context.Context, b *spillBatch) error {
	s.tmAttempts.Inc()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.AttemptTimeout)
	defer cancel()
	return s.backend.BulkEvents(ctx, b.index, b.events)
}

// tryReplay drains the spill queue opportunistically: it backs off
// immediately if another goroutine is already replaying or the backend is
// still failing.
func (s *Shipper) tryReplay(ctx context.Context) {
	if !s.replayMu.TryLock() {
		return
	}
	defer s.replayMu.Unlock()
	for {
		b, ok := s.spill.pop()
		if !ok {
			return
		}
		err := s.ship(ctx, &b, false)
		if err == nil {
			s.countReplayed(uint64(len(b.events)))
			continue
		}
		if IsRetryable(err) {
			// Still down: park the batch back at the front and stop probing.
			s.spill.unshift(b)
			return
		}
		// The backend permanently rejected this batch: count the drop and
		// keep replaying the rest.
		s.countSpillDropped(uint64(len(b.events)))
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
	var errs []error
	for {
		b, ok := s.spill.pop()
		if !ok {
			break
		}
		err := s.ship(context.Background(), &b, true)
		if err == nil {
			s.countReplayed(uint64(len(b.events)))
			continue
		}
		s.countSpillDropped(uint64(len(b.events)))
		if len(errs) < 4 {
			errs = append(errs, fmt.Errorf("flush %d spilled events: %w", len(b.events), err))
		}
	}
	return errors.Join(errs...)
}

// Stats snapshots the shipper's accounting.
func (s *Shipper) Stats() Stats {
	return Stats{
		Shipped:       s.shipped.Load(),
		Retries:       s.retries.Load(),
		Requeued:      s.requeued.Load(),
		Replayed:      s.replayed.Load(),
		SpillDropped:  s.spillDropped.Load(),
		SpillPending:  uint64(s.spill.size()),
		BreakerOpens:  s.breaker.Opens(),
		BreakerCloses: s.breaker.Closes(),
		BreakerState:  s.breaker.State().String(),
	}
}

// Breaker exposes the underlying breaker (tests and health reporting).
func (s *Shipper) Breaker() *Breaker { return s.breaker }

// SearchEvents delegates to the wrapped backend.
func (s *Shipper) SearchEvents(ctx context.Context, index string, req store.SearchRequest) (store.EventsResult, error) {
	return s.backend.SearchEvents(ctx, index, req)
}

// Count delegates to the wrapped backend.
func (s *Shipper) Count(ctx context.Context, index string, q store.Query) (int, error) {
	return s.backend.Count(ctx, index, q)
}

// Correlate delegates to the wrapped backend.
func (s *Shipper) Correlate(ctx context.Context, index, session string) (store.CorrelationResult, error) {
	return s.backend.Correlate(ctx, index, session)
}
