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
	"time"
)

// ErrInjected is the base error returned by the fault-injection wrappers.
var ErrInjected = errors.New("resilience: injected fault")

// temporary is the structural interface transport layers use to label their
// errors as transient; store.HTTPError implements it for 429/5xx responses.
type temporary interface {
	Temporary() bool
}

// retryHinted is implemented by errors that carry a server-provided backoff
// hint (an HTTP Retry-After header surfaced by store.Client).
type retryHinted interface {
	RetryAfterHint() time.Duration
}

// classifiedError wraps an error with the status its class answers: 503 for
// a transient failure, 400 for a permanent one. The class decides retries
// (Temporary) and, through store.StatusOf, whether the failure counts
// against the target — alike in process and over HTTP.
type classifiedError struct {
	err    error
	status int
}

func (e *classifiedError) Error() string   { return e.err.Error() }
func (e *classifiedError) Unwrap() error   { return e.err }
func (e *classifiedError) Temporary() bool { return e.status != http.StatusBadRequest }

// HTTPStatus implements store.StatusError.
func (e *classifiedError) HTTPStatus() int { return e.status }

// Permanent marks err as non-retryable (a 400): the shipper fails the batch
// immediately (counting its events as dropped) instead of retrying.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classifiedError{err, http.StatusBadRequest}
}

// Retryable marks err as transient (a 503): the shipper retries with backoff
// and spills the batch if the attempts are exhausted.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &classifiedError{err, http.StatusServiceUnavailable}
}

// IsRetryable classifies err. Errors exposing Temporary() bool (explicit
// marks, store.HTTPError) decide for themselves; everything else — transport
// failures, deadline expiries, unknown errors — defaults to retryable, the
// safe choice for a delivery pipeline (a wrongly-retried permanent error
// costs a few attempts; a wrongly-dropped transient error costs data).
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var t temporary
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return true
}

// retryAfter extracts a server-provided backoff hint, if any.
func retryAfter(err error) time.Duration {
	var h retryHinted
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0
}
