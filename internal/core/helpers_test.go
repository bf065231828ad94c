package core

import (
	"net/http/httptest"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/store"
)

// newHTTPServer starts a backend HTTP server for tests and returns its URL.
func newHTTPServer(t *testing.T, st *store.Store) string {
	t.Helper()
	srv := httptest.NewServer(store.NewServer(st))
	t.Cleanup(srv.Close)
	return srv.URL
}

// memStore opens an in-memory store.
func memStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
