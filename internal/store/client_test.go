package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
		temporary bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusBadGateway, true},
		{http.StatusInternalServerError, true},
		{http.StatusNotImplemented, false},
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
	}
	for _, tc := range cases {
		e := &HTTPError{Status: tc.status}
		if e.Temporary() != tc.temporary {
			t.Errorf("status %d: Temporary() = %v, want %v", tc.status, e.Temporary(), tc.temporary)
		}
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
	if !he.Temporary() || he.RetryAfterHint() != 7*time.Second || he.Status != 503 {
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
	if he.Temporary() {
		t.Fatal("400 classified temporary")
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
