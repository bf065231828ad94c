package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// recordingBackend is a scriptable backend: the first failFirst BulkEvents
// calls fail with retryable errors, later ones record the batch.
type recordingBackend struct {
	mu        sync.Mutex
	failFirst int
	permanent bool
	calls     int
	batches   [][]event.Event
}

func (r *recordingBackend) BulkEvents(_ context.Context, index string, events []event.Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.calls <= r.failFirst {
		err := fmt.Errorf("backend down (call %d)", r.calls)
		if r.permanent {
			return Permanent(err)
		}
		return Retryable(err)
	}
	r.batches = append(r.batches, append([]event.Event(nil), events...))
	return nil
}

func (r *recordingBackend) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func (r *recordingBackend) seqs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for _, b := range r.batches {
		for i := range b {
			out = append(out, b[i].TID)
		}
	}
	return out
}

func (r *recordingBackend) SearchEvents(context.Context, string, store.SearchRequest) (store.EventsResult, error) {
	return store.EventsResult{}, nil
}
func (r *recordingBackend) Count(context.Context, string, store.Query) (int, error) { return 0, nil }
func (r *recordingBackend) Correlate(context.Context, string, string) (store.CorrelationResult, error) {
	return store.CorrelationResult{}, nil
}

// batch builds n events numbered start.. in their TID.
func batch(start, n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{TID: start + i}
	}
	return evs
}

func testConfig(clk clock.Clock) Config {
	return Config{
		Policy: Policy{
			MaxAttempts:      3,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       8 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  time.Second,
			Clock:            clk,
		},
		SpillEvents: 1 << 20,
	}
}

func TestClassification(t *testing.T) {
	if IsRetryable(nil) {
		t.Fatal("nil is retryable")
	}
	base := errors.New("boom")
	if IsRetryable(Permanent(base)) {
		t.Fatal("Permanent classified retryable")
	}
	if !IsRetryable(Retryable(base)) {
		t.Fatal("Retryable classified permanent")
	}
	if !IsRetryable(base) {
		t.Fatal("unmarked error should default to retryable")
	}
	if !errors.Is(Permanent(base), base) {
		t.Fatal("Permanent breaks errors.Is")
	}
	// Wrapping preserves the class.
	wrapped := fmt.Errorf("ship: %w", Permanent(base))
	if IsRetryable(wrapped) {
		t.Fatal("wrapped Permanent classified retryable")
	}
}

func TestBreakerTransitions(t *testing.T) {
	clk := clock.NewVirtual(0)
	b := NewBreaker(2, time.Second, clk)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker should be closed and allowing")
	}
	b.RecordFailure()
	if b.State() != BreakerClosed {
		t.Fatal("one failure should not trip a threshold-2 breaker")
	}
	b.RecordFailure()
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state=%v opens=%d after threshold failures", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probe should be admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller should not get a probe slot")
	}
	b.RecordFailure()
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("probe failure should reopen: state=%v opens=%d", b.State(), b.Opens())
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	b.RecordSuccess()
	if b.State() != BreakerClosed || b.Closes() != 1 {
		t.Fatalf("probe success should close: state=%v closes=%d", b.State(), b.Closes())
	}
}

func TestShipperRetriesTransientFailures(t *testing.T) {
	clk := clock.NewVirtual(0)
	be := &recordingBackend{failFirst: 2}
	s := NewShipper(be, testConfig(clk))
	if err := s.BulkEvents(context.Background(), "ix", batch(0, 4)); err != nil {
		t.Fatalf("Bulk: %v", err)
	}
	st := s.Stats()
	if st.Shipped != 4 || st.Retries != 2 || st.Requeued != 0 || st.SpillDropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if clk.NowNS() == 0 {
		t.Fatal("retries should have slept on the clock")
	}
}

func TestShipperPermanentFailureDropsWithoutRetry(t *testing.T) {
	be := &recordingBackend{failFirst: 100, permanent: true}
	s := NewShipper(be, testConfig(clock.NewVirtual(0)))
	err := s.BulkEvents(context.Background(), "ix", batch(0, 4))
	if err == nil || errors.Is(err, ErrSpilled) {
		t.Fatalf("permanent failure should surface directly, got %v", err)
	}
	st := s.Stats()
	if be.Calls() != 1 {
		t.Fatalf("permanent error retried: %d calls", be.Calls())
	}
	if st.SpillDropped != 4 || st.Shipped != 0 || st.Requeued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShipperSpillsAndReplaysInOrder(t *testing.T) {
	clk := clock.NewVirtual(0)
	be := &recordingBackend{failFirst: 1 << 30} // down until told otherwise
	cfg := testConfig(clk)
	cfg.BreakerThreshold = 100 // isolate spill behavior from the breaker
	s := NewShipper(be, cfg)

	if err := s.BulkEvents(context.Background(), "ix", batch(0, 3)); !errors.Is(err, ErrSpilled) {
		t.Fatalf("outage Bulk = %v, want ErrSpilled", err)
	}
	if err := s.BulkEvents(context.Background(), "ix", batch(3, 3)); !errors.Is(err, ErrSpilled) {
		t.Fatalf("outage Bulk = %v, want ErrSpilled", err)
	}
	st := s.Stats()
	if st.Requeued != 6 || st.SpillPending != 6 || st.Shipped != 0 {
		t.Fatalf("stats during outage = %+v", st)
	}

	// Recovery: the next Bulk replays the parked batches before its own.
	be.mu.Lock()
	be.failFirst = 0
	be.mu.Unlock()
	if err := s.BulkEvents(context.Background(), "ix", batch(6, 3)); err != nil {
		t.Fatalf("post-recovery Bulk: %v", err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	got := be.seqs()
	if len(got) != len(want) {
		t.Fatalf("backend got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay order: backend got %v, want %v", got, want)
		}
	}
	st = s.Stats()
	if st.Replayed != 6 || st.Shipped != 9 || st.SpillPending != 0 || st.SpillDropped != 0 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

func TestShipperSpillOverflowDropsOldestCounted(t *testing.T) {
	clk := clock.NewVirtual(0)
	be := &recordingBackend{failFirst: 1 << 30}
	cfg := testConfig(clk)
	cfg.BreakerThreshold = 1000
	cfg.SpillEvents = 10
	s := NewShipper(be, cfg)

	for i := 0; i < 4; i++ {
		s.BulkEvents(context.Background(), "ix", batch(i*4, 4)) // each exhausts retries and spills
	}
	st := s.Stats()
	if st.Requeued != 16 || st.SpillDropped != 8 || st.SpillPending != 8 {
		t.Fatalf("stats after overflow = %+v", st)
	}

	be.mu.Lock()
	be.failFirst = 0
	be.mu.Unlock()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st = s.Stats()
	// Newest batches (seq 8..15) survived; everything is accounted for.
	if st.Shipped != 8 || st.Replayed != 8 || st.SpillDropped != 8 || st.SpillPending != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	got := be.seqs()
	if len(got) != 8 || got[0] != 8 || got[7] != 15 {
		t.Fatalf("flushed seqs = %v, want 8..15", got)
	}
	if st.Shipped+st.SpillDropped != 16 {
		t.Fatalf("accounting leak: shipped=%d dropped=%d of 16", st.Shipped, st.SpillDropped)
	}
}

func TestShipperBreakerStopsHammeringAndFlushRecovers(t *testing.T) {
	clk := clock.NewVirtual(0)
	be := &recordingBackend{failFirst: 5}
	cfg := testConfig(clk)
	cfg.MaxAttempts = 3
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Hour // stays open for the rest of the run
	s := NewShipper(be, cfg)

	// b1 exhausts its attempts (calls 1-3) and trips the breaker.
	if err := s.BulkEvents(context.Background(), "ix", batch(0, 2)); !errors.Is(err, ErrSpilled) {
		t.Fatalf("b1 = %v, want ErrSpilled", err)
	}
	if s.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker = %v, want open", s.Breaker().State())
	}
	calls := be.Calls()
	// b2 and b3 must spill without touching the dead backend.
	if err := s.BulkEvents(context.Background(), "ix", batch(2, 2)); !errors.Is(err, ErrSpilled) {
		t.Fatalf("b2 = %v, want ErrSpilled", err)
	}
	if err := s.BulkEvents(context.Background(), "ix", batch(4, 2)); !errors.Is(err, ErrSpilled) {
		t.Fatalf("b3 = %v, want ErrSpilled", err)
	}
	if got := be.Calls(); got != calls {
		t.Fatalf("open breaker still hammered the backend: %d -> %d calls", calls, got)
	}

	// Final flush bypasses the breaker, rides out the tail of the outage
	// (calls 4-5 fail, call 6 succeeds), and closes the breaker.
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := s.Stats()
	if st.Replayed != 6 || st.SpillDropped != 0 || st.SpillPending != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if st.BreakerOpens != 1 || st.BreakerCloses != 1 || st.BreakerState != "closed" {
		t.Fatalf("breaker lifecycle = %+v", st)
	}
	got := be.seqs()
	for i := 0; i < 6; i++ {
		if got[i] != i {
			t.Fatalf("flush order = %v", got)
		}
	}
}

func TestShipperFlushCountsUndeliverableBatches(t *testing.T) {
	be := &recordingBackend{failFirst: 1 << 30}
	cfg := testConfig(clock.NewVirtual(0))
	cfg.BreakerThreshold = 1000
	s := NewShipper(be, cfg)
	s.BulkEvents(context.Background(), "ix", batch(0, 5))
	if err := s.Flush(); err == nil {
		t.Fatal("Flush against a dead backend should report an error")
	}
	st := s.Stats()
	if st.SpillDropped != 5 || st.SpillPending != 0 || st.Shipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// hintedError carries a Retry-After hint like store.HTTPError.
type hintedError struct{ hint time.Duration }

func (e *hintedError) Error() string                 { return "throttled" }
func (e *hintedError) Temporary() bool               { return true }
func (e *hintedError) RetryAfterHint() time.Duration { return e.hint }

func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	clk := clock.NewVirtual(0)
	cfg := testConfig(clk)
	s := NewShipper(&recordingBackend{}, cfg)
	d := s.backoff.Delay(1, &hintedError{hint: 3 * time.Second})
	if d < 3*time.Second {
		t.Fatalf("delay %v ignores Retry-After hint", d)
	}
	// Without a hint the delay stays inside the jittered exponential cap.
	for attempt := 1; attempt < 10; attempt++ {
		if d := s.backoff.Delay(attempt, errors.New("x")); d < 0 || d > cfg.MaxBackoff {
			t.Fatalf("attempt %d delay %v outside [0, %v]", attempt, d, cfg.MaxBackoff)
		}
	}
}

func TestFaultyBackendScriptedOutageAndRates(t *testing.T) {
	inner := memStore(t)
	f := NewFaultyBackend(inner, 42)
	f.ScriptOutage(1, 3)
	docs := batch(0, 1)
	if err := f.BulkEvents(context.Background(), "ix", docs); err != nil {
		t.Fatalf("call 0 before outage: %v", err)
	}
	for i := 0; i < 2; i++ {
		err := f.BulkEvents(context.Background(), "ix", docs)
		if !errors.Is(err, ErrInjected) || !IsRetryable(err) {
			t.Fatalf("outage call %d = %v, want retryable injected", i, err)
		}
	}
	if err := f.BulkEvents(context.Background(), "ix", docs); err != nil {
		t.Fatalf("call after outage: %v", err)
	}
	if f.Calls() != 4 || f.Injected() != 2 {
		t.Fatalf("calls=%d injected=%d", f.Calls(), f.Injected())
	}

	// Error-rate injection is deterministic under a fixed seed and the
	// requested class.
	f2 := NewFaultyBackend(inner, 7)
	f2.SetErrorRate(0.5)
	f2.SetPermanent(true)
	var injected int
	for i := 0; i < 200; i++ {
		if err := f2.BulkEvents(context.Background(), "ix", docs); err != nil {
			if IsRetryable(err) {
				t.Fatalf("injected error should be permanent: %v", err)
			}
			injected++
		}
	}
	if injected < 60 || injected > 140 {
		t.Fatalf("injected %d/200 at rate 0.5", injected)
	}
}

func TestShipperConcurrentBulkRace(t *testing.T) {
	clk := clock.NewVirtual(0)
	be := NewFaultyBackend(memStore(t), 3)
	be.SetErrorRate(0.3)
	cfg := testConfig(clk)
	s := NewShipper(be, cfg)
	var wg sync.WaitGroup
	const workers, perWorker, n = 4, 25, 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.BulkEvents(context.Background(), "ix", batch((w*perWorker+i)*n, n))
			}
		}(w)
	}
	wg.Wait()
	// Flush may legitimately fail batches (and count them) when the random
	// faults line up; the invariant below is what must hold regardless.
	_ = s.Flush()
	st := s.Stats()
	total := uint64(workers * perWorker * n)
	if st.Shipped+st.SpillDropped != total {
		t.Fatalf("accounting leak: shipped=%d dropped=%d of %d (stats %+v)",
			st.Shipped, st.SpillDropped, total, st)
	}
}

// memStore opens an in-memory store.
func memStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
