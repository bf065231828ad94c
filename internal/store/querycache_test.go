package store

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// TestCacheKeyKeepsNamesApart pins the key's one duty: requests that can
// answer differently never share an entry, even when a client chooses a field
// name that spells out another request's clauses.
func TestCacheKeyKeepsNamesApart(t *testing.T) {
	st, err := Open(WithQueryCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	evs := cursorFixture(192)
	for i := range evs {
		evs[i].ProcName = "p"
	}
	if err := st.BulkEvents(ctx, "run", evs); err != nil {
		t.Fatal(err)
	}
	// The crafted name closes its clause and opens another, so joined
	// without quoting it reads as the plain request's first two terms.
	crafted := SearchRequest{Query: Must(Term(FieldProcName+`="p");t(`+FieldSession, "s0"), Term(FieldSyscall, "read")), Size: 1}
	plain := SearchRequest{Query: Must(Term(FieldSession, "s0"), Term(FieldSyscall, "read"), Term(FieldProcName, "p")), Size: 1}
	if _, err := st.Search(ctx, "run", crafted); err != nil {
		t.Fatal(err)
	}
	got, err := st.Search(ctx, "run", plain)
	if err != nil {
		t.Fatal(err)
	}
	uncached := plain
	uncached.Size = -1
	want, err := st.Search(ctx, "run", uncached)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total == 0 || got.Total != want.Total {
		t.Errorf("after the crafted request, the plain one answered %d hits; uncached %d", got.Total, want.Total)
	}

	diff := []struct {
		name string
		a, b SearchRequest
	}{
		{
			"a sort name that spells two sort fields",
			SearchRequest{Sort: []SortField{{Field: FieldTimeEnter + "+," + FieldPID}}, Size: 10},
			SearchRequest{Sort: []SortField{{Field: FieldTimeEnter}, {Field: FieldPID}}, Size: 10},
		},
		{
			"gt vs gte at the same bound",
			SearchRequest{Query: rangeGT(FieldDuration, 500), Size: 10},
			SearchRequest{Query: RangeGTE(FieldDuration, 500), Size: 10},
		},
		{
			"window position",
			SearchRequest{Query: MatchAll(), Size: 10},
			SearchRequest{Query: MatchAll(), From: 10, Size: 10},
		},
		{
			"sort direction",
			SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 10},
			SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter, Desc: true}}, Size: 10},
		},
		{
			"cursor position",
			SearchRequest{Query: MatchAll(), Size: 10},
			SearchRequest{Query: MatchAll(), Size: 10, SearchAfter: []any{float64(7)}},
		},
	}
	for _, tc := range diff {
		ka, kb := cacheKey(tc.a), cacheKey(tc.b)
		if ka == kb {
			t.Errorf("%s: keys collide: %q", tc.name, ka)
		}
	}
}

// TestCacheKeyWireOrderInvariance decodes the same query JSON with its
// object keys in two different orders: the cache keys must match, so a
// dashboard re-render that serializes its request differently still hits.
func TestCacheKeyWireOrderInvariance(t *testing.T) {
	a := `{"size":5,"query":{"bool":{"must":[{"term":{"field":"syscall","value":"read"}},{"range":{"field":"duration_ns","gte":100,"lte":900}}]}},"aggs":{"h":{"date_histogram":{"field":"time_enter_ns","interval_ns":1000}},"t":{"terms":{"field":"syscall"}}}}`
	b := `{"aggs":{"t":{"terms":{"field":"syscall"}},"h":{"date_histogram":{"interval_ns":1000,"field":"time_enter_ns"}}},"query":{"bool":{"must":[{"term":{"value":"read","field":"syscall"}},{"range":{"lte":900,"gte":100,"field":"duration_ns"}}]}},"size":5}`
	var ra, rb SearchRequest
	if err := json.Unmarshal([]byte(a), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &rb); err != nil {
		t.Fatal(err)
	}
	ka, kb := cacheKey(ra), cacheKey(rb)
	if ka != kb {
		t.Errorf("wire key order changed the cache key:\n a %q\n b %q", ka, kb)
	}
}

func counterDelta(t *testing.T, reg *telemetry.Registry, name string, base uint64) uint64 {
	t.Helper()
	return reg.Snapshot().Counters[name] - base
}

// TestQueryCacheHoldsOneEntryPerRequest pins the single entry kind: a
// document search and a typed search of one bounded request share a cache
// line, and since documents are rendered per call, editing a handed-out
// document reaches neither the cache nor the next caller.
func TestQueryCacheHoldsOneEntryPerRequest(t *testing.T) {
	st, err := Open(WithQueryCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	reg := st.Telemetry()
	if err := st.BulkEvents(ctx, "run", cursorFixture(64)); err != nil {
		t.Fatal(err)
	}
	req := SearchRequest{Query: Term(FieldSession, "s1"), Size: 3, Sort: []SortField{{Field: FieldTimeEnter}}}
	c0 := reg.Snapshot().Counters
	docs, err := st.Search(ctx, "run", req)
	if err != nil {
		t.Fatal(err)
	}
	typed, err := st.SearchEvents(ctx, "run", req)
	if err != nil {
		t.Fatal(err)
	}
	hits := counterDelta(t, reg, telemetry.MetricQueryCacheHits, c0[telemetry.MetricQueryCacheHits])
	misses := counterDelta(t, reg, telemetry.MetricQueryCacheMisses, c0[telemetry.MetricQueryCacheMisses])
	if hits != 1 || misses != 1 {
		t.Fatalf("Search then SearchEvents: %d hits, %d misses; want 1 and 1", hits, misses)
	}
	if !reflect.DeepEqual(docs, typed.Documents()) {
		t.Fatalf("the two renderings disagree:\n docs  %+v\n typed %+v", docs, typed)
	}
	docs.Hits[0][FieldSyscall] = "scribbled"
	delete(docs.Hits[1], FieldSession)
	again, err := st.Search(ctx, "run", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, typed.Documents()) {
		t.Fatalf("a handed-out document was edited into the cache: %+v", again.Hits)
	}
}

// TestQueryCacheServesAndInvalidates walks the cache through its life
// cycle against the public Store API: miss on first sight, hit on repeat,
// invalidated by every mutation kind, LRU-bounded, and bypassed for
// uncacheable (size<=0) requests.
func TestQueryCacheServesAndInvalidates(t *testing.T) {
	st, err := Open(WithQueryCache(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	reg := st.Telemetry()
	if err := st.BulkEvents(ctx, "run", cursorFixture(600)); err != nil {
		t.Fatal(err)
	}

	req := SearchRequest{
		Query: Term(FieldSession, "s1"),
		Size:  1,
		Aggs:  map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}},
	}
	hits0 := reg.Snapshot().Counters[telemetry.MetricQueryCacheHits]
	first, err := st.Search(ctx, "run", req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := st.Search(ctx, "run", req)
	if err != nil {
		t.Fatal(err)
	}
	if d := counterDelta(t, reg, telemetry.MetricQueryCacheHits, hits0); d != 1 {
		t.Fatalf("repeat search: %d cache hits, want 1", d)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached response differs from computed response")
	}

	// Each mutation kind must invalidate: the next search recomputes.
	mutate := []struct {
		name string
		do   func() error
	}{
		{"BulkEvents", func() error { return st.BulkEvents(ctx, "run", withTags(cursorFixture(8))) }},
		{"Correlate", func() error {
			res, err := st.Correlate(ctx, "run", "")
			if err == nil && res.EventsUpdated == 0 {
				err = fmt.Errorf("the pass named no row: %+v", res)
			}
			return err
		}},
	}
	for _, m := range mutate {
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		h0 := reg.Snapshot().Counters[telemetry.MetricQueryCacheHits]
		m0 := reg.Snapshot().Counters[telemetry.MetricQueryCacheMisses]
		if _, err := st.Search(ctx, "run", req); err != nil {
			t.Fatal(err)
		}
		if d := counterDelta(t, reg, telemetry.MetricQueryCacheHits, h0); d != 0 {
			t.Errorf("after %s: search hit the cache (%d hits); mutation did not invalidate", m.name, d)
		}
		if d := counterDelta(t, reg, telemetry.MetricQueryCacheMisses, m0); d != 1 {
			t.Errorf("after %s: %d misses, want 1", m.name, d)
		}
	}

	// Capacity 2: three distinct queries evict the oldest line.
	ev0 := reg.Snapshot().Counters[telemetry.MetricQueryCacheEvictions]
	for i := 0; i < 3; i++ {
		r := req
		r.Size = i + 2
		if _, err := st.Search(ctx, "run", r); err != nil {
			t.Fatal(err)
		}
	}
	if d := counterDelta(t, reg, telemetry.MetricQueryCacheEvictions, ev0); d == 0 {
		t.Error("three distinct queries in a 2-entry cache evicted nothing")
	}
	if got := reg.Snapshot().Gauges[telemetry.MetricQueryCacheEntries]; got > 2 {
		t.Errorf("cache entries gauge = %v, want <= 2", got)
	}

	// size<=0 requests bypass the cache entirely.
	h0 := reg.Snapshot().Counters[telemetry.MetricQueryCacheHits]
	m0 := reg.Snapshot().Counters[telemetry.MetricQueryCacheMisses]
	all := SearchRequest{Query: MatchAll(), Size: -1}
	for i := 0; i < 2; i++ {
		if _, err := st.Search(ctx, "run", all); err != nil {
			t.Fatal(err)
		}
	}
	if counterDelta(t, reg, telemetry.MetricQueryCacheHits, h0) != 0 || counterDelta(t, reg, telemetry.MetricQueryCacheMisses, m0) != 0 {
		t.Error("size=-1 search touched the cache")
	}
}

// TestCacheInvalidationStress races cached readers against writers under
// the race detector: every response a reader observes must be at least as
// fresh as the writer progress it already knew (no stale read escapes the
// epoch check), and when the dust settles the ledger closes — the bulk-docs
// counter, the index length, and an uncached recount all agree.
func TestCacheInvalidationStress(t *testing.T) {
	st, err := Open(WithQueryCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	const batches = 40
	const perBatch = 64

	if err := st.BulkEvents(ctx, "run", cursorFixture(perBatch)); err != nil {
		t.Fatal(err)
	}
	var written atomic.Int64 // events acked so far, the reader's freshness floor
	written.Store(perBatch)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < batches; i++ {
			if err := st.BulkEvents(ctx, "run", withTags(cursorFixture(perBatch))); err != nil {
				t.Error(err)
				return
			}
			written.Add(perBatch)
			if i%8 == 7 {
				if _, err := st.Correlate(ctx, "run", ""); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	reqs := []SearchRequest{
		{Query: MatchAll(), Size: 1},
		{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}}},
		{Query: Term(FieldSession, "s0"), Size: 4, Sort: []SortField{{Field: FieldTimeEnter, Desc: true}}},
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := written.Load()
				resp, err := st.Search(ctx, "run", reqs[r%len(reqs)])
				if err != nil {
					t.Error(err)
					return
				}
				if r%len(reqs) != 2 && int64(resp.Total) < floor {
					t.Errorf("stale read escaped: total %d < %d events already acked", resp.Total, floor)
					return
				}
				ev, err := st.SearchEvents(ctx, "run", SearchRequest{Query: MatchAll(), Size: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if int64(ev.Total) < floor {
					t.Errorf("stale typed read escaped: total %d < %d", ev.Total, floor)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// Conservation: counter, index length, cached recount, and an uncached
	// (size=-1, cache-bypassing) recount all see every event written.
	want := int((batches + 1) * perBatch)
	if got := st.Telemetry().Snapshot().Counters[telemetry.MetricBulkDocs]; got != uint64(want) {
		t.Errorf("bulk-docs counter = %d, want %d", got, want)
	}
	cached, err := st.Search(ctx, "run", SearchRequest{Query: MatchAll(), Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := st.Search(ctx, "run", SearchRequest{Query: MatchAll(), Size: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Total != want || uncached.Total != want || len(uncached.Hits) != want {
		t.Errorf("ledger open: cached %d, uncached %d (%d hits), want %d",
			cached.Total, uncached.Total, len(uncached.Hits), want)
	}
	n, err := st.Count(ctx, "run", MatchAll())
	if err != nil || n != want {
		t.Errorf("count = (%d, %v), want %d", n, err, want)
	}
}

// rangeGT builds a strict lower-bound range query (no public helper
// exists; strict bounds normally arrive over the wire).
func rangeGT(field string, gt int64) Query {
	return Query{Range: &RangeQuery{Field: field, GT: &gt}}
}
