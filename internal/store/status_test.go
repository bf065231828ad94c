package store_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/cluster"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// classes is what every decision reads of one error: its status, whether it
// is worth another try, whether it counts against its target with the
// caller's ctx live and cancelled, and whether the failover client switches
// primaries on it with the caller's ctx live and cancelled.
type classes struct {
	status                 int
	transient              bool
	fault, faultDone       bool
	failover, failoverDone bool
}

func classify(err error) classes {
	live, done := context.Background(), canceled()
	return classes{
		status:       store.StatusOf(err),
		transient:    store.Transient(err),
		fault:        resilience.TargetFault(live, err),
		faultDone:    resilience.TargetFault(done, err),
		failover:     store.FailoverWorthy(live, err),
		failoverDone: store.FailoverWorthy(done, err),
	}
}

func canceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// partitionFailure is a coordinator's failure of a partition it cannot
// reach: its node is a server that is gone.
func partitionFailure(t *testing.T) error {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	fc, err := store.NewFailoverClient(store.NewClient(gone.URL))
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.New(cluster.Config{Clock: clock.NewVirtual(0)}, fc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.Count(context.Background(), "ix", store.MatchAll())
	if err == nil || !strings.Contains(err.Error(), "partition 0") {
		t.Fatalf("count over a gone partition = %v, want a partition failure", err)
	}
	return err
}

// TestStatusTableAlikeInProcessAndOverHTTP: StatusOf is the one classifier.
// Every error the ship path, the replicator, the coordinator and the
// failover client can meet gets its status, Transient, TargetFault and the
// failover rule from it, and a Server→Client round trip through WriteError
// and HTTPError classifies it the same on every count.
func TestStatusTableAlikeInProcessAndOverHTTP(t *testing.T) {
	refused := fmt.Errorf("POST /ix/_bulk: %w", &url.Error{Op: "Post", URL: "http://127.0.0.1:1/ix/_bulk",
		Err: &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}})
	transient := func(code int) classes { return classes{code, true, true, false, true, false} }
	permanent := func(code int) classes { return classes{status: code} }
	role := func(code int) classes { return classes{status: code, failover: true} }
	rows := []struct {
		name string
		err  error
		want classes
	}{
		{"ErrIndexNotFound", fmt.Errorf("%w: %q", store.ErrIndexNotFound, "ix"), permanent(http.StatusNotFound)},
		{"ErrCursorExpired", store.ErrCursorExpired, permanent(http.StatusGone)},
		{"ErrReadOnlyFollower", store.ErrReadOnlyFollower, role(http.StatusConflict)},
		{"ErrNotFollower", store.ErrNotFollower, role(http.StatusForbidden)},
		{"ReplSeqError", &store.ReplSeqError{Want: 3, Got: 5}, role(http.StatusConflict)},
		{"BadRequest", store.BadRequest(errors.New("bad cursor")), permanent(http.StatusBadRequest)},
		{"Permanent", resilience.Permanent(errors.New("rejected")), permanent(http.StatusBadRequest)},
		{"Retryable", resilience.Retryable(errors.New("overloaded")), transient(http.StatusServiceUnavailable)},
		{"partition failure", partitionFailure(t), transient(http.StatusBadGateway)},
		{"ErrBreakerOpen", resilience.ErrBreakerOpen, transient(http.StatusInternalServerError)},
		{"context.Canceled", context.Canceled, transient(http.StatusInternalServerError)},
		{"refused connection", refused, transient(http.StatusInternalServerError)},
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		store.WriteError(w, rows[i].err)
	}))
	defer srv.Close()
	c := store.NewClient(srv.URL)
	for i, row := range rows {
		inproc := classify(row.err)
		if inproc != row.want {
			t.Errorf("%s in process: %+v, want %+v", row.name, inproc, row.want)
		}
		wireErr := c.DoJSON(context.Background(), http.MethodGet, "/"+strconv.Itoa(i), nil, nil)
		if wire := classify(wireErr); wire != inproc {
			t.Errorf("%s over HTTP (%v): %+v, in process %+v", row.name, wireErr, wire, inproc)
		}
	}
	if got := classify(nil); got != (classes{status: http.StatusOK}) {
		t.Errorf("nil: %+v, want a 200 that nothing acts on", got)
	}
}
