// Package resilience hardens the tracer→backend ship path (DESIGN.md §8).
//
// The paper's pipeline promises that only syscall interception is synchronous
// and that event loss happens exclusively at the ring buffers, where it is
// counted (§II-B, §III-D). That promise breaks the moment a bulk request
// fails: without this package a transient backend error silently discards a
// whole batch of already-drained events. The resilience layer restores exact
// accounting with a degradation ladder:
//
//	retry (backoff + jitter) → circuit breaker → spill queue → counted drop
//
// Every event handed to the Shipper is eventually either acknowledged by the
// backend (Shipped/Replayed) or counted in exactly one drop counter
// (SpillDropped), so "where did my events go" stays answerable end to end.
package resilience

import (
	"errors"
	"net/http"

	"github.com/dsrhaslab/dio-go/internal/store"
)

// ErrInjected is the base error returned by the fault-injection wrappers.
var ErrInjected = errors.New("resilience: injected fault")

// Permanent marks err as a 400: not store.Transient, so the shipper fails
// the batch immediately (counting its events as dropped) instead of
// retrying.
func Permanent(err error) error { return store.WithStatus(err, http.StatusBadRequest) }

// Retryable marks err as a 503: store.Transient, so the shipper retries
// with backoff and spills the batch if the attempts are exhausted.
func Retryable(err error) error { return store.WithStatus(err, http.StatusServiceUnavailable) }
