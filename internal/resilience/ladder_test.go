package resilience

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// statusErr is an in-process error that names its status, as a cluster
// coordinator's partition failures do.
type statusErr int

func (e statusErr) Error() string   { return "status " + strconv.Itoa(int(e)) }
func (e statusErr) HTTPStatus() int { return int(e) }

// TestTargetFault is the one rule for what counts against a target, read
// twice: on the error in process, and on the error a client surfaces when a
// server answers that error through store.WriteError (or when the wire
// itself fails). The two arms must agree row for row.
func TestTargetFault(t *testing.T) {
	rows := []struct {
		name string
		err  error
		// done cancels the caller's context before the call.
		done bool
		// hung makes the server never answer; closed points the client at a
		// server that is gone.
		hung, closed bool
		want         bool
	}{
		{name: "transport", err: &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}, closed: true, want: true},
		{name: "500", err: statusErr(500), want: true},
		{name: "502", err: statusErr(502), want: true},
		{name: "503", err: statusErr(503), want: true},
		{name: "429", err: statusErr(429), want: true},
		{name: "client deadline", err: fmt.Errorf("GET /x: %w", context.DeadlineExceeded), hung: true, want: true},
		{name: "plain", err: errors.New("boom"), want: true},
		{name: "400", err: store.BadRequest(errors.New("bad cursor"))},
		{name: "404", err: fmt.Errorf("%w: %q", store.ErrIndexNotFound, "ix")},
		{name: "409", err: &store.ReplSeqError{Want: 3, Got: 5}},
		{name: "403", err: store.ErrNotFollower},
		{name: "410", err: store.ErrCursorExpired},
		{name: "caller done", err: statusErr(503), done: true},
	}

	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		if rows[i].hung {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		store.WriteError(w, rows[i].err)
	}))
	defer srv.Close()
	defer close(release)
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()

	for i, row := range rows {
		ctx, cancel := context.WithCancel(context.Background())
		if row.done {
			cancel()
		}
		base := srv.URL
		if row.closed {
			base = gone.URL
		}
		c := store.NewClient(base)
		c.SetRequestTimeout(50 * time.Millisecond)
		wireErr := c.DoJSON(ctx, http.MethodGet, "/"+strconv.Itoa(i), nil, nil)

		inproc, wire := TargetFault(ctx, row.err), TargetFault(ctx, wireErr)
		if inproc != row.want || wire != row.want {
			t.Errorf("%s: TargetFault in process %v (%v), over HTTP %v (%v); want %v",
				row.name, inproc, row.err, wire, wireErr, row.want)
		}
		if !row.done && !row.hung && !row.closed {
			if got, want := store.StatusOf(wireErr), store.StatusOf(row.err); got != want {
				t.Errorf("%s: status over HTTP %d, in process %d", row.name, got, want)
			}
		}
		cancel()
	}
	if TargetFault(context.Background(), nil) {
		t.Error("a success counted against the target")
	}
}

// cancelingBackend is a backend whose caller gives up mid-attempt: each call
// cancels the caller's context and answers its error.
type cancelingBackend struct {
	store.Backend
	cancel context.CancelFunc
	calls  int
}

func (b *cancelingBackend) BulkEvents(ctx context.Context, _ string, _ []event.Event) error {
	b.calls++
	b.cancel()
	return ctx.Err()
}

// TestLadderCallerCancelShipper: a caller's cancellation ends the ladder at
// once — one call per batch, no backoff slept, and no breaker failure, so the
// breaker is still closed after more batches than its threshold.
func TestLadderCallerCancelShipper(t *testing.T) {
	clk := clock.NewVirtual(0)
	be := &cancelingBackend{}
	s := NewShipper(be, Config{Policy: Policy{Clock: clk}})
	threshold := Policy{}.WithDefaults().BreakerThreshold
	for i := 1; i <= threshold+1; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		be.cancel = cancel
		if err := s.BulkEvents(ctx, "ix", batch(i, 2)); !errors.Is(err, ErrSpilled) {
			t.Fatalf("batch %d = %v, want the batch spilled for replay", i, err)
		}
		if be.calls != i {
			t.Fatalf("after batch %d the backend saw %d calls, want one per batch", i, be.calls)
		}
	}
	if slept := clk.NowNS(); slept != 0 {
		t.Fatalf("slept %v after the caller gave up", time.Duration(slept))
	}
	st := s.Stats()
	if st.BreakerState != "closed" || st.BreakerOpens != 0 || st.Retries != 0 {
		t.Fatalf("a caller's cancellation fed the ladder: %+v", st)
	}
}

// nopBackend accepts every batch and keeps nothing.
type nopBackend struct{ store.Backend }

func (nopBackend) BulkEvents(context.Context, string, []event.Event) error { return nil }

// TestShipperBulkAllocs bars the happy path: one batch into a backend that
// accepts it allocates no more than before the retry loop moved into the
// Ladder (4: the per-attempt deadline's context and timer among them). The
// ladder's closure must not add one.
func TestShipperBulkAllocs(t *testing.T) {
	s := NewShipper(nopBackend{}, Config{})
	evs := batch(0, 64)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.BulkEvents(ctx, "ix", evs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Shipper.BulkEvents allocates %v per batch, want <= 4", allocs)
	}
}

// TestFaultyBackendHandler: FaultyBackend's fault model on the wire, through
// its handler adapter — a transient fault answers 503 and a permanent one
// 400, only ship calls roll the dice, and the scripted outage window counts
// ship calls.
func TestFaultyBackendHandler(t *testing.T) {
	st := memStore(t)
	h := NewFaultHandler(store.NewServer(st), 1)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := store.NewClient(srv.URL, store.WithAPIPrefix("/v1"))
	ctx := context.Background()
	docs := batch(0, 1)

	h.ScriptOutage(1, 3)
	if err := c.BulkEvents(ctx, "ix", docs); err != nil {
		t.Fatalf("ship call 0 (before the outage): %v", err)
	}
	for i := 0; i < 2; i++ {
		err := c.BulkEvents(ctx, "ix", docs)
		if store.StatusOf(err) != http.StatusServiceUnavailable || !IsRetryable(err) || !TargetFault(ctx, err) {
			t.Fatalf("outage call %d = %v, want a retryable 503", i, err)
		}
	}
	if _, err := c.Count(ctx, "ix", store.Query{}); err != nil {
		t.Fatalf("a read rolled the dice: %v", err)
	}
	if err := c.BulkEvents(ctx, "ix", docs); err != nil {
		t.Fatalf("ship call after the outage: %v", err)
	}
	if h.Calls() != 4 || h.Injected() != 2 {
		t.Fatalf("calls=%d injected=%d, want 4 and 2", h.Calls(), h.Injected())
	}

	// A permanent fault answers 400 on the wire as in process; the client
	// resends a refused binary frame as NDJSON, which rolls again.
	h.SetErrorRate(1)
	h.SetPermanent(true)
	err := c.BulkEvents(ctx, "ix", docs)
	if store.StatusOf(err) != http.StatusBadRequest || IsRetryable(err) || TargetFault(ctx, err) {
		t.Fatalf("permanent fault over HTTP = %v, want a permanent 400", err)
	}
	f := NewFaultyBackend(st, 1)
	f.SetErrorRate(1)
	f.SetPermanent(true)
	inproc := f.BulkEvents(ctx, "ix", docs)
	if store.StatusOf(inproc) != http.StatusBadRequest || IsRetryable(inproc) {
		t.Fatalf("permanent fault in process = %v, want a permanent 400", inproc)
	}
}
