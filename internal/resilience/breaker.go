package resilience

import (
	"sync"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed lets requests through; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects requests until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe request to test recovery.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a classic closed/open/half-open circuit breaker: after
// `threshold` consecutive failures it opens and rejects calls outright, so a
// dead backend is not hammered with doomed retries; after `cooldown` it
// admits one probe, and a probe success closes it again. Time comes from the
// clock abstraction so tests drive transitions deterministically.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clk       clock.Clock

	mu       sync.Mutex
	state    BreakerState
	failures int   // consecutive failures while closed
	openedNS int64 // clock time of the last open transition
	probing  bool  // a half-open probe is in flight
	opens    uint64
	closes   uint64
}

// NewBreaker creates a breaker that opens after threshold consecutive
// failures and probes for recovery cooldown later.
func NewBreaker(threshold int, cooldown time.Duration, clk clock.Clock) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, clk: clk}
}

// Allow reports whether a call may proceed. In the half-open state only one
// caller wins the probe slot; the rest are rejected until the probe reports.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Duration(b.clk.NowNS()-b.openedNS) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// RecordSuccess reports a successful call: a half-open probe success closes
// the breaker; in the closed state the consecutive-failure count resets.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.closes++
	case BreakerOpen:
		// A bypassing caller (final flush) succeeded: the backend is back.
		b.state = BreakerClosed
		b.closes++
	}
	b.failures = 0
	b.probing = false
}

// RecordFailure reports a failed call: a half-open probe failure reopens the
// breaker; in the closed state the threshold check may trip it.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openLocked()
		}
	case BreakerHalfOpen:
		b.openLocked()
	case BreakerOpen:
		// Bypassing caller failed while open: refresh the cooldown window.
		b.openedNS = b.clk.NowNS()
	}
	b.probing = false
}

func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedNS = b.clk.NowNS()
	b.failures = 0
	b.opens++
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Closes returns how many times the breaker recovered to closed.
func (b *Breaker) Closes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closes
}
