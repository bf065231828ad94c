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

func TestChaosHandlerScriptedOutage(t *testing.T) {
	st := memStore(t)
	chaos := NewChaosHandler(NewServer(st), 1)
	chaos.SetConfig(ChaosConfig{OutageFrom: 1, OutageTo: 3, RetryAfterSec: 2})
	srv := httptest.NewServer(chaos)
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.BulkEvents(context.Background(), "ix", docFixture()); err != nil {
		t.Fatalf("bulk call 0 (before outage): %v", err)
	}
	for i := 0; i < 2; i++ {
		err := c.BulkEvents(context.Background(), "ix", docFixture())
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
			t.Fatalf("outage bulk %d = %v, want 503", i, err)
		}
		if he.RetryAfterHint() != 2*time.Second {
			t.Fatalf("outage bulk %d retry-after = %v", i, he.RetryAfterHint())
		}
	}
	if err := c.BulkEvents(context.Background(), "ix", docFixture()); err != nil {
		t.Fatalf("bulk after outage: %v", err)
	}
	if chaos.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", chaos.Injected())
	}
	// Queries were never chaos targets outside outages.
	if _, err := c.Count(context.Background(), "ix", Query{}); err != nil {
		t.Fatalf("count: %v", err)
	}
}

func TestChaosHandlerControlEndpoint(t *testing.T) {
	st := memStore(t)
	chaos := NewChaosHandler(NewServer(st), 1)
	srv := httptest.NewServer(chaos)
	defer srv.Close()

	cfg, _ := json.Marshal(ChaosConfig{Rate: 1, Status: http.StatusTooManyRequests})
	resp, err := http.Post(srv.URL+"/_chaos", "application/json", bytes.NewReader(cfg))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /_chaos = %v (%v)", resp.Status, err)
	}
	resp.Body.Close()

	c := NewClient(srv.URL)
	err = c.BulkEvents(context.Background(), "ix", docFixture())
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
		t.Fatalf("bulk under rate-1 chaos = %v, want 429", err)
	}
	if !he.Temporary() {
		t.Fatal("429 should classify temporary")
	}

	// Disarm and verify the report endpoint.
	http.Post(srv.URL+"/_chaos", "application/json", bytes.NewReader([]byte("{}")))
	if err := c.BulkEvents(context.Background(), "ix", docFixture()); err != nil {
		t.Fatalf("bulk after disarm: %v", err)
	}
	get, err := http.Get(srv.URL + "/_chaos")
	if err != nil {
		t.Fatalf("GET /_chaos: %v", err)
	}
	defer get.Body.Close()
	var report struct {
		Injected  uint64 `json:"injected"`
		BulkCalls uint64 `json:"bulk_calls"`
	}
	if err := json.NewDecoder(get.Body).Decode(&report); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if report.Injected != 1 || report.BulkCalls != 2 {
		t.Fatalf("report = %+v", report)
	}
}
