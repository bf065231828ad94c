package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// ErrBreakerOpen reports a call rejected by the open circuit breaker.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// Policy is the retry → breaker policy of one Ladder: the tracer's shipper
// and the replicator each embed it in their Config.
type Policy struct {
	// MaxAttempts is the per-call attempt budget, first try included
	// (default 4).
	MaxAttempts int
	// BaseBackoff caps the first retry delay; subsequent delays double up to
	// MaxBackoff, with full jitter (default 10ms). A Retry-After hint on the
	// last error floors the delay.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
	// AttemptTimeout is the per-attempt deadline, layered onto the caller's
	// context for each attempt (default 5s).
	AttemptTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// recovery probe (default 500ms).
	BreakerCooldown time.Duration
	// Clock drives backoff sleeps and breaker cooldowns; a virtual clock
	// makes retry tests deterministic and instant (default wall clock).
	Clock clock.Clock
	// Seed seeds the jitter source (0 selects a fixed default; jitter only
	// needs to decorrelate concurrent workers, not be unpredictable).
	Seed int64
}

// WithDefaults fills in the default of every field left zero.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 5 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 500 * time.Millisecond
	}
	if p.Clock == nil {
		p.Clock = clock.NewReal(0)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// TargetFault is the one rule for what counts against a target's breaker: a
// failure does only while the caller's ctx is still live and the error's
// status (store.StatusOf) is 5xx or 429. A transport error, and a deadline
// the client or the ladder set itself, are 500s and count; any other answer
// — 400, 404, 409, 410 — is the target working, and so is every error once
// the caller has given up.
func TargetFault(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	code := store.StatusOf(err)
	return code >= 500 || code == http.StatusTooManyRequests
}

// Ladder runs calls to one target through the retry → breaker loop: jittered
// backoff between attempts, a per-attempt deadline, and a circuit breaker fed
// by TargetFault. It is safe for concurrent use.
type Ladder struct {
	policy  Policy
	backoff *Backoff
	breaker *Breaker
	retries atomic.Uint64

	// Telemetry instruments (nil-safe no-ops when unset).
	tmAttempts  *telemetry.Counter
	tmRetries   *telemetry.Counter
	tmBackoffNS *telemetry.Histogram
}

// NewLadder builds a ladder with p's defaults filled in.
func NewLadder(p Policy) *Ladder {
	p = p.WithDefaults()
	return &Ladder{
		policy:  p,
		backoff: NewBackoff(p.BaseBackoff, p.MaxBackoff, p.Seed),
		breaker: NewBreaker(p.BreakerThreshold, p.BreakerCooldown, p.Clock),
	}
}

// Instrument wires the ladder's telemetry: attempts made, retries, and the
// backoff delays slept. A nil instrument records nothing.
func (l *Ladder) Instrument(attempts, retries *telemetry.Counter, backoffNS *telemetry.Histogram) {
	l.tmAttempts, l.tmRetries, l.tmBackoffNS = attempts, retries, backoffNS
}

// Run calls attempt until it succeeds or the ladder gives up: the attempt
// budget is spent (the last error is returned), an error is not retryable
// (it is returned at once), or the breaker rejects the call (ErrBreakerOpen).
// bypassBreaker is the final flush's last-chance mode: attempts proceed even
// while the breaker is open, and their outcome still feeds it so recovery is
// observed. The caller's ctx is checked before each attempt and each
// backoff: once it is done, Run returns its error with no sleep and no
// breaker failure.
func (l *Ladder) Run(ctx context.Context, bypassBreaker bool, attempt func(context.Context) error) error {
	var lastErr error
	for n := 0; n < l.policy.MaxAttempts; n++ {
		if n > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			l.retries.Add(1)
			l.tmRetries.Inc()
			d := l.backoff.Delay(n, lastErr)
			l.tmBackoffNS.Observe(float64(d))
			l.policy.Clock.Sleep(d)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !bypassBreaker && !l.breaker.Allow() {
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", ErrBreakerOpen, lastErr)
			}
			return ErrBreakerOpen
		}
		l.tmAttempts.Inc()
		actx, cancel := context.WithTimeout(ctx, l.policy.AttemptTimeout)
		err := attempt(actx)
		cancel()
		if TargetFault(ctx, err) {
			l.breaker.RecordFailure()
		} else {
			l.breaker.RecordSuccess()
		}
		if err == nil || !IsRetryable(err) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// Retries counts attempts beyond each call's first.
func (l *Ladder) Retries() uint64 { return l.retries.Load() }

// Breaker exposes the breaker guarding the target (tests, health).
func (l *Ladder) Breaker() *Breaker { return l.breaker }

// Backoff computes retry delays: full jitter over an exponentially growing
// cap, floored by any server-provided Retry-After hint carried on the last
// error. It is the Ladder's delay policy, safe for concurrent use.
type Backoff struct {
	base time.Duration
	max  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a policy whose first-retry delay is capped at base and
// whose exponential growth is capped at max; seed seeds the jitter source. A
// zero argument takes its Policy default.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	p := Policy{BaseBackoff: base, MaxBackoff: max, Seed: seed}.WithDefaults()
	return &Backoff{base: p.BaseBackoff, max: p.MaxBackoff, rng: rand.New(rand.NewSource(p.Seed))}
}

// Delay computes the delay before the attempt'th retry (attempt >= 1 — the
// first try itself never waits). lastErr, when it carries a Retry-After hint
// (store.HTTPError does), floors the jittered delay so the server's explicit
// pacing is always honored.
func (b *Backoff) Delay(attempt int, lastErr error) time.Duration {
	cap := b.base << uint(attempt-1)
	if cap > b.max || cap <= 0 {
		cap = b.max
	}
	b.mu.Lock()
	d := time.Duration(b.rng.Int63n(int64(cap) + 1))
	b.mu.Unlock()
	if hint := retryAfter(lastErr); hint > d {
		d = hint
	}
	return d
}
