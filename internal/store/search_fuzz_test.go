package store

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

const fuzzIndex = "fuzz"

// fuzzStores builds the pair FuzzSearchRequest compares, once: an in-memory
// store and a durable one holding the same generated rows (genBatches), fed
// in four chunks. The durable store snapshots after each of the first three
// and runs one correlation pass between the second and third, so it answers from
// three cold segments, a hot tail and a path book; the in-memory store runs
// the same pass at the same point.
func fuzzStores(f *testing.F) (mem, dur http.Handler) {
	f.Helper()
	ctx := context.Background()
	ms := memStore(f, WithShards(4))
	ds := openDurable(f, f.TempDir(), WithShards(4))
	f.Cleanup(func() { ms.Close(); ds.Close() })
	evs := slices.Concat(genBatches(rand.New(rand.NewSource(800)), 800)...)
	for c := 0; c < 4; c++ {
		for _, st := range []*Store{ms, ds} {
			if err := st.BulkEvents(ctx, fuzzIndex, evs[c*len(evs)/4:(c+1)*len(evs)/4]); err != nil {
				f.Fatal(err)
			}
		}
		if c == 3 {
			break
		}
		if err := ds.Snapshot(); err != nil {
			f.Fatal(err)
		}
		if c == 1 {
			a, errA := ms.Correlate(ctx, fuzzIndex, "")
			b, errB := ds.Correlate(ctx, fuzzIndex, "")
			if errA != nil || errB != nil || a != b || a.EventsUpdated == 0 {
				f.Fatalf("fixture correlate: memory %+v (%v), durable %+v (%v)", a, errA, b, errB)
			}
		}
	}
	return NewServer(ms), NewServer(ds)
}

// wideIntBodies are search bodies whose integers need all 64 bits: 19-digit
// range bounds and search_after keys, and ±(2^63−1), which a float64 would
// round. Each decodes exactly and answers 200.
var wideIntBodies = []string{
	`{"query":{"range":{"field":"time_enter_ns","gte":1687859999123456789,"lte":9223372036854775807}},"size":5,"sort":[{"field":"time_enter_ns"}]}`,
	`{"query":{"range":{"field":"time_enter_ns","gt":-9223372036854775807,"lt":1687859999123456790}},"size":5,"sort":[{"field":"time_enter_ns","desc":true}]}`,
	`{"size":5,"sort":[{"field":"time_enter_ns"}],"search_after":[1687859999123456789,3]}`,
	`{"size":5,"sort":[{"field":"time_enter_ns","desc":true}],"search_after":[9223372036854775807,9223372036854775807]}`,
	`{"size":5,"sort":[{"field":"ret_val"}],"search_after":[-9223372036854775807,0]}`,
	`{"query":{"term":{"field":"time_enter_ns","value":1687859999123456789}},"size":5}`,
}

// nonIntBounds are search bodies whose range bound is not an integer
// literal: a fraction or an exponent. Each is a 400.
var nonIntBounds = []string{
	`{"query":{"range":{"field":"duration_ns","gte":1.5}},"size":5}`,
	`{"query":{"range":{"field":"time_enter_ns","lte":1e18}},"size":5}`,
	`{"query":{"bool":{"must":[{"range":{"field":"time_enter_ns","gt":1687859999123456789.5}}]}},"size":5}`,
}

// seedWide adds wideIntBodies and nonIntBounds, each wrapped by wrap, to f,
// and checks the status each one must get on both stores.
func seedWide(f *testing.F, mem, dur http.Handler, route string, wrap func(string) string) {
	for _, c := range []struct {
		bodies []string
		code   int
	}{{wideIntBodies, http.StatusOK}, {nonIntBounds, http.StatusBadRequest}} {
		for _, b := range c.bodies {
			body := []byte(wrap(b))
			f.Add(body)
			for _, h := range []http.Handler{mem, dur} {
				if code, resp := fuzzPost(h, route, body); code != c.code {
					f.Fatalf("seed %s: %d %s, want %d", body, code, resp, c.code)
				}
			}
		}
	}
}

// fuzzRequests are the generated requests (genRequest) both fuzzers seed
// their corpus with, drawn from a fixed seed.
func fuzzRequests() []SearchRequest {
	rng := rand.New(rand.NewSource(113))
	reqs := make([]SearchRequest, 130)
	for i := range reqs {
		reqs[i] = genRequest(rng)
	}
	return reqs
}

// fuzzSearch posts body to a server.s _search and returns the status and
// the response body.
func fuzzSearch(h http.Handler, body []byte) (int, string) {
	return fuzzPost(h, "_search", body)
}

// fuzzPost posts body to one of a server's index routes and returns the
// status and the response body.
func fuzzPost(h http.Handler, route string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+fuzzIndex+"/"+route, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// FuzzSearchRequest is a differential fuzzer over the query DSL and the
// search_after cursor token: arbitrary bytes go to /_search — decoded into a
// SearchRequest, query, sort, cursor and nested aggregations, exactly as a
// client's body is — on an in-memory store and on a durable one with the same
// rows in cold segments, a hot tail and a path book. Both must fail with the
// same status, or answer byte-equal JSON (total, hits, aggs, next_after). The
// seeds are generated requests (fuzzRequests), a search_after continuation
// of each sorted one, 64-bit integers in bounds, terms and cursors, and
// non-integer bounds.
func FuzzSearchRequest(f *testing.F) {
	mem, dur := fuzzStores(f)
	seedWide(f, mem, dur, "_search", func(b string) string { return b })
	for _, req := range fuzzRequests() {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		if len(req.Sort) == 0 {
			continue
		}
		var page SearchResponse
		if code, resp := fuzzSearch(mem, body); code != http.StatusOK || decodeJSON(strings.NewReader(resp), &page) != nil {
			f.Fatalf("seed %s: %d %s", body, code, resp)
		}
		if page.NextAfter != nil {
			req.From, req.SearchAfter = 0, page.NextAfter
			if body, err = json.Marshal(req); err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		mc, mb := fuzzSearch(mem, body)
		dc, db := fuzzSearch(dur, body)
		if mc != dc || (mc == http.StatusOK && mb != db) {
			t.Fatalf("request %q:\n memory  %d %.600s\n durable %d %.600s", body, mc, mb, dc, db)
		}
	})
}

// FuzzScatterRequest posts arbitrary bytes to /_scatter, the per-partition
// half of a cluster search, on the FuzzSearchRequest pair. Nothing may panic;
// a body that does not decode as a ScatterRequest is a 400 on both stores;
// and both stores must fail with the same status or answer the same typed
// hits body, byte for byte, that decodeHitsBody accepts. The seeds wrap the
// generated requests (fuzzRequests) at P = 1 and P = 3, a search_after
// continuation of each sorted one, and FuzzSearchRequest's 64-bit and
// non-integer bodies.
func FuzzScatterRequest(f *testing.F) {
	mem, dur := fuzzStores(f)
	seedWide(f, mem, dur, "_scatter", func(b string) string { return `{"req":` + b + `,"partition":1,"partitions":3}` })
	add := func(sreq ScatterRequest) {
		body, err := json.Marshal(sreq)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, req := range fuzzRequests() {
		for _, P := range []int{1, 3} {
			add(ScatterRequest{Req: req, Partition: P - 1, Partitions: P})
		}
		if len(req.Sort) == 0 || req.Size <= 0 {
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		var page SearchResponse
		if code, resp := fuzzSearch(mem, body); code != http.StatusOK || decodeJSON(strings.NewReader(resp), &page) != nil {
			f.Fatalf("seed %s: %d %s", body, code, resp)
		}
		if page.NextAfter != nil {
			req.From, req.SearchAfter = 0, page.NextAfter
			add(ScatterRequest{Req: req, Partition: 1, Partitions: 3})
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		mc, mb := fuzzPost(mem, "_scatter", body)
		dc, db := fuzzPost(dur, "_scatter", body)
		if mc != dc || (mc == http.StatusOK && mb != db) {
			t.Fatalf("request %q:\n memory  %d %.600q\n durable %d %.600q", body, mc, mb, dc, db)
		}
		var sreq ScatterRequest
		if decodeJSON(bytes.NewReader(body), &sreq) != nil && mc != http.StatusBadRequest {
			t.Fatalf("malformed request %q: status %d, want 400", body, mc)
		}
		if mc != http.StatusOK {
			return
		}
		if _, err := decodeHitsBody([]byte(mb)); err != nil {
			t.Fatalf("request %q: %v", body, err)
		}
	})
}
