// Package repl ships a primary store's WAL to followers. The store exposes
// the replication data plane (sequenced WAL ranges, full-state bootstraps,
// follower apply — internal/store/repl.go); this package is the control
// plane: a Replicator per follower that tails the primary's records and
// pushes them over a Transport, up the same resilience.Ladder (full-jitter
// backoff honoring Retry-After hints, circuit breaker) that guards the
// tracer's ship path. A sequence mismatch from the follower is never
// retried blindly — the replicator resyncs from the follower's reported
// position, bootstrapping wholesale when the follower is too far behind for
// the primary to serve the gap as WAL records.
package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Transport moves replication calls to one follower. ClientTransport speaks
// HTTP through store.Client; tests swap in in-process fault-injecting fakes.
type Transport interface {
	// Target names the follower (health reporting, logs).
	Target() string
	// Status fetches the follower's applied positions (resync, reconnect).
	Status(ctx context.Context) (store.ReplState, error)
	// Apply pushes consecutive frames starting at from; returns the
	// follower's new applied sequence. A sequence mismatch surfaces as
	// *store.ReplSeqError (or an HTTP 409 carrying the same meaning).
	Apply(ctx context.Context, index string, from int64, frames []store.ReplFrame) (int64, error)
	// Bootstrap replaces the follower's index state wholesale, aligned to
	// the snapshot's primary sequence.
	Bootstrap(ctx context.Context, index string, snap store.ReplSnapshot) error
}

// Config tunes a Replicator.
type Config struct {
	// Interval is the steady-state poll period between sync passes
	// (default 50ms). Each pass drains the follower to the current head, so
	// the interval bounds added lag, not throughput.
	Interval time.Duration
	// MaxFrames / MaxBytes bound one push (defaults 256 frames / 4 MiB).
	MaxFrames int
	MaxBytes  int
	// Policy is the retry → breaker policy of each push; Retry-After hints
	// from the follower floor its backoff.
	resilience.Policy
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.MaxFrames <= 0 {
		c.MaxFrames = 256
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 4 << 20
	}
	c.Policy = c.Policy.WithDefaults()
	return c
}

// Stats is a snapshot of one replicator's shipping accounting.
type Stats struct {
	// ShippedRecords / ShippedBytes count acked frames and their payload
	// bytes, plus the segment image bytes of a bootstrap.
	ShippedRecords uint64 `json:"shipped_records"`
	ShippedBytes   uint64 `json:"shipped_bytes"`
	// Pushes counts Apply/Bootstrap calls that succeeded; Retries counts
	// attempts beyond each push's first.
	Pushes  uint64 `json:"pushes"`
	Retries uint64 `json:"retries"`
	// Bootstraps counts full-state transfers.
	Bootstraps uint64 `json:"bootstraps"`
	// SeqRejects counts out-of-sequence pushes the follower bounced; each
	// one forced a resync from the follower's reported position.
	SeqRejects uint64 `json:"seq_rejects"`
	// Lag is primary head minus follower acked, summed across indices, as of
	// the last completed pass.
	Lag int64 `json:"lag"`
	// LastSyncNS is when the last fully-acked pass finished (unix ns; 0
	// means never).
	LastSyncNS int64 `json:"last_sync_ns"`
}

// ErrFollowerDown reports a push abandoned after the retry budget (or a
// breaker rejection); the next sync pass will try again.
var ErrFollowerDown = errors.New("repl: follower unreachable")

// Replicator tails one primary store and pushes its WAL records to one
// follower. Run one per follower; each keeps its own cursor, breaker, and
// accounting.
type Replicator struct {
	// Ladder runs each push's attempts against the follower.
	*resilience.Ladder
	src *store.Store
	tr  Transport
	cfg Config

	// mu serializes sync passes: the background loop, explicit Sync calls,
	// and the final Stop drain never interleave.
	mu      sync.Mutex
	acked   map[string]int64             // follower's applied seq per index
	cursors map[string]*store.ReplCursor // WAL file cursors per index

	shippedRecs  atomic.Uint64
	shippedBytes atomic.Uint64
	pushes       atomic.Uint64
	bootstraps   atomic.Uint64
	seqRejects   atomic.Uint64
	lag          atomic.Int64
	lastSyncNS   atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// tmPushNS times each push; the counters' series read the atomics above.
	tmPushNS *telemetry.Histogram
}

// New builds a replicator shipping src's WAL to the follower behind tr. It
// arms src (each snapshot keeps the WAL it retires, so a follower lagging by
// less than one snapshot generation streams on), registers a per-target
// health source on src, so GET /_health reports this follower's lag, and
// registers its shipping series on src's registry, each labelled with the
// target, so /metrics reports every follower. Call Start to begin shipping.
func New(src *store.Store, tr Transport, cfg Config) *Replicator {
	cfg = cfg.withDefaults()
	r := &Replicator{
		Ladder:  resilience.NewLadder(cfg.Policy),
		src:     src,
		tr:      tr,
		cfg:     cfg,
		acked:   map[string]int64{},
		cursors: map[string]*store.ReplCursor{},
		stopCh:  make(chan struct{}),
	}
	src.ArmReplication()
	src.RegisterReplicaHealth(r.health)
	tm, target := src.Telemetry(), fmt.Sprintf("{target=%q}", tr.Target())
	tm.CounterFunc(telemetry.MetricReplShippedRecs+target, "replication records acked by followers", r.shippedRecs.Load)
	tm.CounterFunc(telemetry.MetricReplShippedBytes+target, "replication payload and bootstrap segment image bytes acked by followers", r.shippedBytes.Load)
	tm.CounterFunc(telemetry.MetricReplPushes+target, "successful replication pushes", r.pushes.Load)
	tm.CounterFunc(telemetry.MetricReplPushRetries+target, "replication push attempts beyond the first", r.Retries)
	tm.CounterFunc(telemetry.MetricReplBootstraps+target, "full-state transfers shipped", r.bootstraps.Load)
	r.tmPushNS = tm.Histogram(telemetry.MetricReplPushNS+target, "one replication push round-trip", nil)
	tm.GaugeFunc(telemetry.MetricReplLag+target, "primary head minus follower acked, summed across indices",
		func() float64 { return float64(r.lag.Load()) })
	return r
}

// health snapshots this target's shipping state for GET /_health.
func (r *Replicator) health() store.ReplHealth {
	last := r.lastSyncNS.Load()
	lastMS := int64(-1)
	if last != 0 {
		lastMS = (r.cfg.Clock.NowNS() - last) / int64(time.Millisecond)
		if lastMS < 0 {
			lastMS = 0
		}
	}
	return store.ReplHealth{
		Target:     r.tr.Target(),
		Lag:        r.lag.Load(),
		LastSyncMS: lastMS,
		Bootstraps: r.bootstraps.Load(),
		SeqRejects: r.seqRejects.Load(),
	}
}

// Stats snapshots the replicator's accounting.
func (r *Replicator) Stats() Stats {
	return Stats{
		ShippedRecords: r.shippedRecs.Load(),
		ShippedBytes:   r.shippedBytes.Load(),
		Pushes:         r.pushes.Load(),
		Retries:        r.Retries(),
		Bootstraps:     r.bootstraps.Load(),
		SeqRejects:     r.seqRejects.Load(),
		Lag:            r.lag.Load(),
		LastSyncNS:     r.lastSyncNS.Load(),
	}
}

// Target names the follower this replicator ships to.
func (r *Replicator) Target() string { return r.tr.Target() }

// Start launches the background shipping loop. The loop paces itself with a
// plain timer rather than Clock.Sleep: a wall Clock's Sleep yield-spins its
// final 2ms for sub-millisecond precision the loop does not need, and the
// timer lets Stop interrupt a sleeping loop immediately. The Clock still
// drives the retry backoff and the breaker cooldown, which is what the
// deterministic tests pace.
func (r *Replicator) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTimer(0)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
			}
			_ = r.Sync(context.Background())
			t.Reset(r.cfg.Interval)
		}
	}()
}

// Stop halts the loop, then runs one final drain pass so a graceful shutdown
// hands the follower everything journaled so far — the clean-handoff point a
// promoted follower resumes from. The drain's error (if the follower is down)
// is returned; the primary's durability is unaffected either way.
func (r *Replicator) Stop() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
	return r.Sync(context.Background())
}

// Sync runs one full pass: for every durable index on the primary, push
// frames until the follower is caught up to the pass's head. Returns the
// first error that ended an index's drain early (the next pass retries).
func (r *Replicator) Sync(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	var lag int64
	names, _ := r.src.ListIndices(ctx) // a store's list cannot fail
	for _, name := range names {
		left, err := r.syncIndex(ctx, name)
		lag += left
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repl: index %q: %w", name, err)
		}
	}
	r.lag.Store(lag)
	if firstErr == nil {
		r.lastSyncNS.Store(r.cfg.Clock.NowNS())
	}
	return firstErr
}

// syncIndex drains one index to the follower and reports the residual lag.
// Non-durable indices are skipped (no WAL, nothing to ship).
func (r *Replicator) syncIndex(ctx context.Context, name string) (lag int64, err error) {
	head, ok := r.src.ReplHeadSeq(name)
	if !ok {
		return 0, nil
	}
	acked, known := r.acked[name]
	if !known {
		if err := r.resync(ctx, name); err != nil {
			return head, err
		}
		acked = r.acked[name]
	}
	if acked > head {
		// The follower claims more records than this primary ever journaled:
		// divergent histories (it applied writes from another promoted node).
		// Only a full-state transfer reconciles that.
		if err := r.bootstrap(ctx, name); err != nil {
			return 0, err
		}
		acked = r.acked[name]
	}
	resyncs := 0
	for acked < head {
		cur := r.cursors[name]
		if cur == nil {
			cur = &store.ReplCursor{}
			r.cursors[name] = cur
		}
		frames, h, bootstrap, err := r.src.ReplRange(name, acked, cur, r.cfg.MaxFrames, r.cfg.MaxBytes)
		if err != nil {
			return h - acked, err
		}
		head = h
		if bootstrap {
			if err := r.bootstrap(ctx, name); err != nil {
				return head - acked, err
			}
			acked = r.acked[name]
			continue
		}
		if len(frames) == 0 {
			break // nothing readable below head; the next pass retries
		}
		applied, err := r.push(ctx, func(c context.Context) (int64, error) {
			return r.tr.Apply(c, name, acked, frames)
		})
		if err != nil {
			if store.StatusOf(err) != http.StatusConflict {
				return head - acked, err
			}
			// A sequence mismatch (409): the follower is elsewhere (restart,
			// duplicate, divergence). Resync from its reported position
			// instead of repushing.
			r.seqRejects.Add(1)
			if resyncs++; resyncs > 3 {
				return head - acked, fmt.Errorf("repl: index %q: resync loop: %w", name, err)
			}
			if err := r.resync(ctx, name); err != nil {
				return head - acked, err
			}
			acked = r.acked[name]
			continue
		}
		for _, f := range frames {
			r.shippedBytes.Add(uint64(len(f.Payload)))
		}
		r.shippedRecs.Add(uint64(len(frames)))
		r.acked[name] = applied
		acked = applied
	}
	return head - acked, nil
}

// resync reads the follower's applied position for one index (creating the
// entry at 0 for an index the follower has never seen) and drops the WAL
// cursor so the next range scan restarts cleanly.
func (r *Replicator) resync(ctx context.Context, name string) error {
	st, err := r.call(ctx, func(c context.Context) (int64, error) {
		s, e := r.tr.Status(c)
		if e != nil {
			return 0, e
		}
		return s.Indices[name], nil
	})
	if err != nil {
		return err
	}
	r.acked[name] = st
	delete(r.cursors, name)
	return nil
}

// bootstrap ships the index's files — manifest, segment images and live
// WAL records — and aligns the follower to the snapshot's head sequence.
func (r *Replicator) bootstrap(ctx context.Context, name string) error {
	snap, err := r.src.ReplBootstrapFrames(name)
	if err != nil {
		return err
	}
	_, err = r.push(ctx, func(c context.Context) (int64, error) {
		return snap.Seq, r.tr.Bootstrap(c, name, snap)
	})
	if err != nil {
		return err
	}
	r.bootstraps.Add(1)
	for _, img := range snap.Images {
		r.shippedBytes.Add(uint64(len(img)))
	}
	for _, f := range snap.Frames {
		r.shippedBytes.Add(uint64(len(f.Payload)))
	}
	r.shippedRecs.Add(uint64(len(snap.Frames)))
	r.acked[name] = snap.Seq
	delete(r.cursors, name)
	return nil
}

// push runs one Apply or Bootstrap call up the ladder and, when it
// succeeds, counts and times it as a push. A Status probe is no push: it
// goes through call alone.
func (r *Replicator) push(ctx context.Context, fn func(context.Context) (int64, error)) (int64, error) {
	start := r.cfg.Clock.NowNS()
	v, err := r.call(ctx, fn)
	if err == nil {
		r.pushes.Add(1)
		r.tmPushNS.Observe(float64(r.cfg.Clock.NowNS() - start))
	}
	return v, err
}

// call runs one transport call up the ladder. A call the ladder gave up on —
// its attempts spent or the breaker open — is ErrFollowerDown; any other
// failure, a sequence mismatch above all, returns as it is for the caller to
// handle.
func (r *Replicator) call(ctx context.Context, fn func(context.Context) (int64, error)) (int64, error) {
	var v int64
	err := r.Run(ctx, false, func(c context.Context) (err error) {
		v, err = fn(c)
		return err
	})
	switch {
	case err == nil:
		return v, nil
	case ctx.Err() != nil || !resilience.IsRetryable(err):
		return 0, err
	}
	return 0, fmt.Errorf("%w: %v", ErrFollowerDown, err)
}

// ClientTransport adapts a store.Client into a Transport: the HTTP path a
// real deployment ships over (POST /_repl/apply etc. on the follower).
type ClientTransport struct {
	C *store.Client
}

var _ Transport = ClientTransport{}

// Target implements Transport.
func (t ClientTransport) Target() string { return t.C.Base() }

// Status implements Transport.
func (t ClientTransport) Status(ctx context.Context) (store.ReplState, error) {
	return t.C.ReplStatus(ctx)
}

// Apply implements Transport.
func (t ClientTransport) Apply(ctx context.Context, index string, from int64, frames []store.ReplFrame) (int64, error) {
	return t.C.ReplApply(ctx, index, from, frames)
}

// Bootstrap implements Transport.
func (t ClientTransport) Bootstrap(ctx context.Context, index string, snap store.ReplSnapshot) error {
	return t.C.ReplBootstrap(ctx, index, snap)
}
