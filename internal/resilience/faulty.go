package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// faults is the one fault model, rolled once per ship call: a seeded
// transient-error rate, an error class toggle (retryable vs permanent), and
// scripted full-outage windows expressed in ship-call counts, which keeps
// chaos tests deterministic under any scheduling. Two adapters roll it:
// FaultyBackend in process and FaultHandler on the wire.
type faults struct {
	mu         sync.Mutex
	rng        *rand.Rand
	errRate    float64
	permanent  bool
	outageFrom uint64
	outageTo   uint64
	calls      uint64
	injected   uint64
}

func newFaults(seed int64) *faults {
	return &faults{rng: rand.New(rand.NewSource(seed))}
}

// SetErrorRate makes each ship call outside an outage window fail with
// probability p.
func (f *faults) SetErrorRate(p float64) {
	f.mu.Lock()
	f.errRate = p
	f.mu.Unlock()
}

// SetPermanent selects the class of injected errors: permanent (true) or
// retryable (false, the default).
func (f *faults) SetPermanent(v bool) {
	f.mu.Lock()
	f.permanent = v
	f.mu.Unlock()
}

// ScriptOutage makes every ship call in the half-open call-count window
// [from, to) fail with a retryable error — a scripted full outage that ends
// only after to-from failing calls have been absorbed.
func (f *faults) ScriptOutage(from, to uint64) {
	f.mu.Lock()
	f.outageFrom, f.outageTo = from, to
	f.mu.Unlock()
}

// Calls returns how many ship calls were observed.
func (f *faults) Calls() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Injected returns how many ship calls failed by injection.
func (f *faults) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// roll rolls the dice for one ship call and returns the injected error, or
// nil to let the call through.
func (f *faults) roll() error {
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

// FaultyBackend wraps a store.Backend and injects faults on the ship path
// (BulkEvents). The read path is the embedded backend's, untouched.
type FaultyBackend struct {
	store.Backend
	*faults
}

var _ store.Backend = (*FaultyBackend)(nil)

// NewFaultyBackend wraps inner with a deterministic (seeded) fault injector.
func NewFaultyBackend(inner store.Backend, seed int64) *FaultyBackend {
	return &FaultyBackend{Backend: inner, faults: newFaults(seed)}
}

// BulkEvents injects the configured faults, then delegates.
func (f *FaultyBackend) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	if err := f.roll(); err != nil {
		return err
	}
	return f.Backend.BulkEvents(ctx, index, events)
}

// FaultHandler is the same fault model on the wire, for tests that need
// faults between a client and a server: it wraps a backend's HTTP handler
// and fails its ship calls — POST _bulk and the replication pushes
// (_repl/apply, _repl/bootstrap) — through store.WriteError, so a transient
// fault answers 503 and a permanent one 400. Every other request passes
// through.
type FaultHandler struct {
	next http.Handler
	*faults
}

// NewFaultHandler wraps next with a deterministic (seeded) fault injector;
// it injects nothing until a rate or an outage is set.
func NewFaultHandler(next http.Handler, seed int64) *FaultHandler {
	return &FaultHandler{next: next, faults: newFaults(seed)}
}

// ServeHTTP implements http.Handler.
func (h *FaultHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && isShipPath(r.URL.Path) {
		if err := h.roll(); err != nil {
			store.WriteError(w, err)
			return
		}
	}
	h.next.ServeHTTP(w, r)
}

// isShipPath reports whether path is one of the routes a ship call posts to.
func isShipPath(p string) bool {
	return strings.HasSuffix(p, "/_bulk") || strings.HasSuffix(p, "/_repl/apply") ||
		strings.HasSuffix(p, "/_repl/bootstrap")
}
