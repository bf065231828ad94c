package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// cursorFixture builds n typed events with deliberate sort-key collisions:
// four events share each time_enter_ns value and the syscall set is small,
// so every paged sort exercises the gid tie-break, not just the key order.
func cursorFixture(n int) []event.Event {
	syscalls := []string{"read", "write", "openat", "close", "fsync", "lseek"}
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Session:     fmt.Sprintf("s%d", i%4),
			Syscall:     syscalls[i%len(syscalls)],
			Class:       "io",
			RetVal:      int64(i % 8192),
			FD:          3 + i%5,
			PID:         100,
			TID:         101 + i%3,
			ProcName:    "app",
			ThreadName:  fmt.Sprintf("w%d", i%2),
			TimeEnterNS: 1_000_000_000 + int64(i/4)*1_000,
			TimeExitNS:  1_000_000_000 + int64(i/4)*1_000 + 700,
		}
	}
	return evs
}

// withTags gives every event one of three file tags and the openat rows the
// kernel path of theirs, so a correlation pass over the batch names rows both
// from the row itself and through the dictionary.
func withTags(evs []event.Event) []event.Event {
	for i := range evs {
		evs[i].FileTag = event.FileTag{Dev: 9, Ino: uint64(1 + i%3), BirthNS: 77}
		if evs[i].Syscall == "openat" {
			evs[i].KernelPath = fmt.Sprintf("/data/f%d", i%3)
		}
	}
	return evs
}

func ingestCursorFixture(t *testing.T, st *Store, index string, evs []event.Event) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < len(evs); i += 4096 {
		j := i + 4096
		if j > len(evs) {
			j = len(evs)
		}
		if err := st.BulkEvents(ctx, index, evs[i:j]); err != nil {
			t.Fatalf("ingest [%d:%d): %v", i, j, err)
		}
	}
}

// pageAll walks req through the search_after cursor in pageSize steps and
// returns the concatenated hits.
func pageAll(t *testing.T, st *Store, index string, req SearchRequest, pageSize int) []Document {
	t.Helper()
	ctx := context.Background()
	req.From, req.Size, req.SearchAfter = 0, pageSize, nil
	var out []Document
	for pages := 0; ; pages++ {
		if pages > 1_000 {
			t.Fatal("cursor failed to terminate")
		}
		resp, err := st.Search(ctx, index, req)
		if err != nil {
			t.Fatalf("paged search: %v", err)
		}
		out = append(out, resp.Hits...)
		if len(resp.Hits) < pageSize || resp.NextAfter == nil {
			return out
		}
		req.SearchAfter = resp.NextAfter
	}
}

// TestCursorPagingDifferential is the paging correctness oracle: over a
// 120k-doc index, walking any query with the search_after cursor must
// reproduce the monolithic sorted response byte-for-byte — on the sharded
// typed path, through the brute-force oracle's own cursor, and on a store
// recovered from its WAL (where gids are reassigned by replay order, which
// equals ingest order).
func TestCursorPagingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("120k-doc differential; skipped in -short")
	}
	const n = 120_000
	const pageSize = 4_999
	evs := cursorFixture(n)

	shapes := []SearchRequest{
		{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter, Desc: true}}},
		{Query: Term(FieldSession, "s1"), Sort: []SortField{{Field: FieldSyscall}, {Field: FieldTimeEnter}}},
		{Query: MatchAll()},
		{Query: Term(FieldSyscall, "read")},
	}

	mem, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	ingestCursorFixture(t, mem, "cur", evs)

	dir := t.TempDir()
	dur, err := Open(WithDataDir(dir), WithFsyncPolicy(FsyncOff), WithSnapshotInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	ingestCursorFixture(t, dur, "cur", evs)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(WithDataDir(dir), WithFsyncPolicy(FsyncOff), WithSnapshotInterval(0))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()

	ix, ok := mem.GetIndex("cur")
	if !ok {
		t.Fatal("index missing")
	}

	for si, shape := range shapes {
		mono := shape
		mono.Size = n
		want, err := mem.Search(context.Background(), "cur", mono)
		if err != nil {
			t.Fatalf("shape %d monolithic: %v", si, err)
		}
		if want.Total != n {
			// Filtered shapes match a subset; just sanity-check non-empty.
			if want.Total == 0 {
				t.Fatalf("shape %d matched nothing", si)
			}
		}
		// The oracle re-sorts the full matched set on every page, so it pages
		// coarsely (still several pages) to stay fast.
		modes := map[string]func() []Document{
			"typed": func() []Document { return pageAll(t, mem, "cur", shape, pageSize) },
			"oracle": func() []Document {
				req := shape
				req.Size = n/3 + 7
				var out []Document
				for {
					resp := oracleSearch(ix, req)
					out = append(out, resp.Hits...)
					if resp.NextAfter == nil {
						return out
					}
					req.SearchAfter = resp.NextAfter
				}
			},
			"recovered": func() []Document { return pageAll(t, rec, "cur", shape, pageSize) },
		}
		for name, page := range modes {
			got := page()
			if len(got) != len(want.Hits) {
				t.Errorf("shape %d %s: paged %d hits, monolithic %d", si, name, len(got), len(want.Hits))
				continue
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want.Hits[i]) {
					a, _ := json.Marshal(got[i])
					b, _ := json.Marshal(want.Hits[i])
					t.Errorf("shape %d %s: first divergence at hit %d:\n got %s\nwant %s", si, name, i, a, b)
					break
				}
			}
		}
	}
}

// TestCursorHTTPPaging drives the cursor over the wire: paging through the
// /v1 client and the legacy unprefixed alias must both reproduce the
// in-process monolithic response, proving NextAfter survives the JSON
// round-trip (keys and gids ride as JSON integers and re-parse exactly).
func TestCursorHTTPPaging(t *testing.T) {
	st := memStore(t)
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	evs := cursorFixture(6_000)
	ingestCursorFixture(t, st, "cur", evs)

	shape := SearchRequest{
		Query: Term(FieldSession, "s0"),
		Sort:  []SortField{{Field: FieldTimeEnter, Desc: true}},
	}
	mono := shape
	mono.Size = len(evs)
	want, err := st.Search(context.Background(), "cur", mono)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Hits)

	for name, c := range map[string]*Client{
		"v1":     NewClient(srv.URL, WithAPIPrefix("/v1")),
		"legacy": NewClient(srv.URL),
	} {
		req := shape
		req.Size = 700
		var got []Document
		for {
			resp, err := c.Search(context.Background(), "cur", req)
			if err != nil {
				t.Fatalf("%s paged search: %v", name, err)
			}
			got = append(got, resp.Hits...)
			if len(resp.Hits) < req.Size || resp.NextAfter == nil {
				break
			}
			req.SearchAfter = resp.NextAfter
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: paged hits diverge from monolithic (%d vs %d)", name, len(got), len(want.Hits))
		}

		// Typed paging through the same client must agree on count and order.
		var typed int
		err := EachEventPage(context.Background(), c, "cur", shape, 700, func(page EventsResult) error {
			typed += len(page.Hits)
			return nil
		})
		if err != nil {
			t.Fatalf("%s EachEventPage: %v", name, err)
		}
		if typed != len(want.Hits) {
			t.Errorf("%s: typed pager saw %d events, want %d", name, typed, len(want.Hits))
		}
	}
}

// TestCursorBadRequest maps every malformed cursor to HTTP 400 — not a 500,
// not a silent empty page.
func TestCursorBadRequest(t *testing.T) {
	st := memStore(t)
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	if err := st.BulkEvents(context.Background(), "cur", cursorFixture(16)); err != nil {
		t.Fatal(err)
	}

	bad := []string{
		`{"size":5,"sort":[{"field":"time_enter_ns"}],"search_after":[12345]}`,        // missing gid element
		`{"size":5,"search_after":[1,2]}`,                                             // no sort: want exactly [gid]
		`{"size":5,"from":3,"search_after":[7]}`,                                      // from + cursor conflict
		`{"size":5,"search_after":["x"]}`,                                             // gid not numeric
		`{"size":5,"search_after":[-1]}`,                                              // gid negative
		`{"size":5,"search_after":[1.5]}`,                                             // gid not integral
		`{"size":5,"sort":[{"field":"time_enter_ns"}],"search_after":[12345,"7"]}`,    // gid as string
		`{"size":5,"sort":[{"field":"time_enter_ns"}],"search_after":[12345,9.1e17]}`, // gid not an integer literal
		`{"size":5,"search_after":[9223372036854775808]}`,                             // gid past int64
	}
	for _, body := range bad {
		for _, path := range []string{"/cur/_search", "/v1/cur/_search"} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %s: status %d, want 400", path, body, resp.StatusCode)
			}
		}
	}

	// A well-formed cursor on the same routes still answers 200.
	ok := `{"size":5,"sort":[{"field":"time_enter_ns"}],"search_after":[1000000000,3]}`
	resp, err := http.Post(srv.URL+"/cur/_search", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid cursor: status %d, want 200", resp.StatusCode)
	}
}

// TestCursor19DigitTime: a search_after on time_enter_ns carries a 19-digit
// integer, past float64's exact range, and resumes exactly there. Five rows
// 1 ns apart, stored newest first, share one float64; paged one hit at a
// time, each JSON response's next_after is its row's time to the nanosecond
// and its gid, and resuming from it returns the row 1 ns later, through a raw
// body and through a Client.
func TestCursor19DigitTime(t *testing.T) {
	const ns = int64(1687859999123456789)
	st := memStore(t, WithShards(4))
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	evs := make([]event.Event, 5)
	for i := range evs {
		ts := ns + int64(len(evs)-1-i)
		evs[i] = event.Event{Session: "big", Syscall: "read", TimeEnterNS: ts, TimeExitNS: ts + 1}
	}
	if err := st.BulkEvents(context.Background(), "big", evs); err != nil {
		t.Fatal(err)
	}
	after := ""
	for k := int64(0); k < int64(len(evs)); k++ {
		body := `{"query":{"term":{"field":"session","value":"big"}},"sort":[{"field":"time_enter_ns"}],"size":1` + after + `}`
		resp, err := http.Post(srv.URL+"/big/_search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Hits      []map[string]json.RawMessage `json:"hits"`
			NextAfter json.RawMessage              `json:"next_after"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		next := fmt.Sprintf("[%d,%d]", ns+k, len(evs)-1-int(k))
		if err != nil || len(page.Hits) != 1 || string(page.Hits[0][FieldTimeEnter]) != fmt.Sprint(ns+k) || string(page.NextAfter) != next {
			t.Fatalf("page %d after %q: %d hits, time %s, next_after %s (%v); want time %d, next_after %s",
				k, after, len(page.Hits), page.Hits[0][FieldTimeEnter], page.NextAfter, err, ns+k, next)
		}
		after = `,"search_after":` + next
	}

	req := SearchRequest{Query: Term(FieldSession, "big"), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 1}
	for k := int64(0); k < int64(len(evs)); k++ {
		res, err := NewClient(srv.URL).SearchEvents(context.Background(), "big", req)
		if err != nil || len(res.Hits) != 1 || res.Hits[0].TimeEnterNS != ns+k {
			t.Fatalf("client page %d after %v: %+v (%v), want time %d", k, req.SearchAfter, res.Hits, err, ns+k)
		}
		req.SearchAfter = res.NextAfter
	}
}

// TestCursorPastEveryRow: an unsorted cursor whose gid lies past every row
// resumes nowhere, however wide the gid: a page past 2^31, 2^40 or
// 2^63-1 is empty, on hot stripes and on a cold segment, where a gid that
// wrapped the shard's int32 ids (or the +1 of a search) would restart the
// walk from the first row.
func TestCursorPastEveryRow(t *testing.T) {
	ctx := context.Background()
	mem := memStore(t, WithShards(4))
	dur := openDurable(t, t.TempDir(), WithShards(4), WithFsyncPolicy(FsyncOff))
	t.Cleanup(func() { mem.Close(); dur.Close() })
	for _, st := range []*Store{mem, dur} {
		if err := st.BulkEvents(ctx, "cur", cursorFixture(64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dur.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"hot": mem, "cold": dur} {
		for _, gid := range []int64{1 << 31, 1 << 40, math.MaxInt64} {
			for _, q := range []Query{MatchAll(), Term(FieldSession, "s1")} {
				res, err := st.SearchEvents(ctx, "cur", SearchRequest{Query: q, Size: 5, SearchAfter: []any{gid}})
				if err != nil || len(res.Hits) != 0 {
					t.Fatalf("%s %s after gid %d: %d hits (%v), want none", name, jsonOf(q), gid, len(res.Hits), err)
				}
			}
		}
	}
}
