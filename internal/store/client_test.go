package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
)

func TestHealthEndpoint(t *testing.T) {
	st, c := newTestServerClient(t)
	if err := c.Health(); err != nil {
		t.Fatalf("Health: %v", err)
	}
	st.BulkEvents(context.Background(), "run1", docFixture())
	if err := c.Health(); err != nil {
		t.Fatalf("Health after writes: %v", err)
	}
}

func TestHTTPErrorClassification(t *testing.T) {
	cases := []struct {
		status    int
		transient bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusBadGateway, true},
		{http.StatusInternalServerError, true},
		{http.StatusNotImplemented, true},
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
	}
	for _, tc := range cases {
		e := &HTTPError{Status: tc.status}
		if Transient(e) != tc.transient {
			t.Errorf("status %d: Transient = %v, want %v", tc.status, Transient(e), tc.transient)
		}
	}
}

// TestClientTermPastTwoTo53MatchesAsInProcess: a float64 term value past
// 2^53 matches over HTTP the row it matches in process, in a count, a search
// and a terms list. A Client sends the integer the store reads it as (its
// shortest decimal would spell another integer, or none an int64 holds), and
// a server reads a decimal no int64 holds as the float64 it spells.
func TestClientTermPastTwoTo53MatchesAsInProcess(t *testing.T) {
	st, c := newTestServerClient(t)
	ctx := context.Background()
	rows := []event.Event{
		{Session: "s", Syscall: "lseek", RetVal: math.MinInt64, TimeEnterNS: 1},
		{Session: "s", Syscall: "lseek", RetVal: math.MinInt64 + 1, TimeEnterNS: 2},
		{Session: "s", Syscall: "lseek", RetVal: 1 << 62, TimeEnterNS: 3},
	}
	if err := st.BulkEvents(ctx, "ix", rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		Term(FieldRetVal, float64(math.MinInt64)),
		Term(FieldRetVal, float64(1<<62)),
		Terms(FieldRetVal, float64(math.MinInt64), "x"),
	} {
		for name, b := range map[string]interface {
			Count(context.Context, string, Query) (int, error)
			Search(context.Context, string, SearchRequest) (SearchResponse, error)
		}{"in process": st, "client": c} {
			n, err := b.Count(ctx, "ix", q)
			res, serr := b.Search(ctx, "ix", SearchRequest{Query: q, Size: 10})
			if err != nil || serr != nil || n != 1 || res.Total != 1 || len(res.Hits) != 1 {
				t.Errorf("%s %s: count %d (%v), search total %d hits %d (%v); want the one row",
					name, jsonOf(q), n, err, res.Total, len(res.Hits), serr)
			}
		}
	}
	var out struct{ Count int }
	body := json.RawMessage(`{"term":{"field":"ret_val","value":-9223372036854776000}}`)
	if err := c.DoJSON(ctx, http.MethodPost, "/ix/_count", body, &out); err != nil || out.Count != 1 {
		t.Errorf("count of %s over HTTP = %d (%v), want the MinInt64 row", body, out.Count, err)
	}
}

func TestClientSurfacesRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "overloaded"})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	err := c.BulkEvents(context.Background(), "ix", docFixture())
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v (%T), want *HTTPError", err, err)
	}
	if !Transient(he) || he.RetryAfterHint() != 7*time.Second || he.Status != 503 {
		t.Fatalf("HTTPError = %+v", he)
	}
}

func TestClientCapsErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write(bytes.Repeat([]byte("x"), 1<<20)) // 1 MiB of garbage
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	err := c.BulkEvents(context.Background(), "ix", docFixture())
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HTTPError", err)
	}
	if len(he.Message) > maxErrorBody {
		t.Fatalf("error message length %d exceeds cap", len(he.Message))
	}
	if Transient(he) {
		t.Fatal("400 classified transient")
	}
}

func TestClientRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)
	c := NewClient(srv.URL)
	c.SetRequestTimeout(30 * time.Millisecond)
	start := time.Now()
	err := c.Health()
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
