package store

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestV1AndLegacyRoutesServeSameStore checks the versioned API surface: a
// client pinned to /v1 and a legacy unprefixed client must observe one
// store — writes through either prefix are readable through the other, for
// every operation the server exposes.
func TestV1AndLegacyRoutesServeSameStore(t *testing.T) {
	st := memStore(t)
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	v1 := NewClient(srv.URL, WithAPIPrefix("/v1"))
	legacy := NewClient(srv.URL)
	ctx := context.Background()

	// Write binary frames through /v1, NDJSON through the legacy paths.
	if err := v1.BulkEvents(ctx, "compat", eventFixture()); err != nil {
		t.Fatalf("v1 bulk events: %v", err)
	}
	if err := legacy.bulkEventsNDJSON(ctx, "compat", docFixture()); err != nil {
		t.Fatalf("legacy bulk: %v", err)
	}

	want := len(eventFixture()) + len(docFixture())
	for name, c := range map[string]*Client{"v1": v1, "legacy": legacy} {
		n, err := c.Count(ctx, "compat", MatchAll())
		if err != nil || n != want {
			t.Fatalf("%s count = (%d, %v), want %d", name, n, err, want)
		}
		resp, err := c.Search(ctx, "compat", SearchRequest{Query: MatchAll(), Size: -1})
		if err != nil || resp.Total != want {
			t.Fatalf("%s search total = (%d, %v), want %d", name, resp.Total, err, want)
		}
		evs, err := c.SearchEvents(ctx, "compat", SearchRequest{Query: Term(FieldSyscall, "read"), Size: -1})
		if err != nil || len(evs.Hits) == 0 {
			t.Fatalf("%s typed search = (%d hits, %v)", name, len(evs.Hits), err)
		}
		if _, err := c.Correlate(ctx, "compat", "s1"); err != nil {
			t.Fatalf("%s correlate: %v", name, err)
		}
		names, err := c.ListIndices(context.Background())
		if err != nil || len(names) != 1 || names[0] != "compat" {
			t.Fatalf("%s indices = (%v, %v)", name, names, err)
		}
		if err := c.Health(); err != nil {
			t.Fatalf("%s health: %v", name, err)
		}
	}

	// The prefix is literal, not recursive: /v1/v1/... must miss.
	resp, err := http.Get(srv.URL + "/v1/v1/_health")
	if err != nil {
		t.Fatalf("double-prefix probe: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("/v1/v1/_health served OK; the version prefix must not nest")
	}
}
