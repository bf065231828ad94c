package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// FaultyBackend wraps a store.Backend and injects faults on the ship path
// (BulkEvents): a configurable transient-error rate, an error class toggle
// (retryable vs permanent), and scripted full-outage windows expressed in
// bulk-call counts, which keeps chaos tests deterministic under any
// scheduling. The read path is the embedded backend's, untouched.
type FaultyBackend struct {
	store.Backend

	mu         sync.Mutex
	rng        *rand.Rand
	errRate    float64
	permanent  bool
	outageFrom uint64
	outageTo   uint64
	calls      uint64
	injected   uint64
}

var _ store.Backend = (*FaultyBackend)(nil)

// NewFaultyBackend wraps inner with a deterministic (seeded) fault injector.
func NewFaultyBackend(inner store.Backend, seed int64) *FaultyBackend {
	return &FaultyBackend{
		Backend: inner,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// SetErrorRate makes each BulkEvents call outside an outage window fail with
// probability p.
func (f *FaultyBackend) SetErrorRate(p float64) {
	f.mu.Lock()
	f.errRate = p
	f.mu.Unlock()
}

// SetPermanent selects the class of injected errors: permanent (true) or
// retryable (false, the default).
func (f *FaultyBackend) SetPermanent(v bool) {
	f.mu.Lock()
	f.permanent = v
	f.mu.Unlock()
}

// ScriptOutage makes every BulkEvents call in the half-open call-count window
// [from, to) fail with a retryable error — a scripted full outage that ends
// only after to-from failing calls have been absorbed.
func (f *FaultyBackend) ScriptOutage(from, to uint64) {
	f.mu.Lock()
	f.outageFrom, f.outageTo = from, to
	f.mu.Unlock()
}

// Calls returns how many BulkEvents calls were observed.
func (f *FaultyBackend) Calls() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Injected returns how many BulkEvents calls failed by injection.
func (f *FaultyBackend) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// inject rolls the configured fault dice for one ship call and returns the
// injected error, or nil to let the call through.
func (f *FaultyBackend) inject() error {
	f.mu.Lock()
	call := f.calls
	f.calls++
	inOutage := call >= f.outageFrom && call < f.outageTo
	roll := !inOutage && f.errRate > 0 && f.rng.Float64() < f.errRate
	perm := f.permanent
	if inOutage || roll {
		f.injected++
	}
	f.mu.Unlock()

	switch {
	case inOutage:
		return Retryable(fmt.Errorf("%w: scripted outage (call %d)", ErrInjected, call))
	case roll && perm:
		return Permanent(fmt.Errorf("%w: permanent (call %d)", ErrInjected, call))
	case roll:
		return Retryable(fmt.Errorf("%w: transient (call %d)", ErrInjected, call))
	}
	return nil
}

// BulkEvents injects the configured faults, then delegates.
func (f *FaultyBackend) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.Backend.BulkEvents(ctx, index, events)
}
