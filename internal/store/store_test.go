package store

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// docEvents turns Document-literal fixtures into the events the store
// ingests, through the door a JSON document really comes in by: the NDJSON
// edge decoder (a duration_ns stands in for the exit time a literal leaves
// out).
func docEvents(docs ...Document) []event.Event {
	var body bytes.Buffer
	for _, d := range docs {
		line, err := json.Marshal(d)
		if err != nil {
			panic(err)
		}
		body.WriteString("{\"index\":{}}\n")
		body.Write(append(line, '\n'))
	}
	events, err := DecodeBulkNDJSON(&body)
	if err != nil {
		panic(err)
	}
	return events
}

func docFixture() []event.Event {
	return docEvents([]Document{
		{"session": "s1", "syscall": "openat", "proc_name": "app", "thread_name": "app", "ret_val": int64(3), "time_enter_ns": int64(100), "duration_ns": int64(10), "kernel_path": "/tmp/a", "file_tag": "1 12 5"},
		{"session": "s1", "syscall": "write", "proc_name": "app", "thread_name": "app", "ret_val": int64(26), "time_enter_ns": int64(200), "duration_ns": int64(20), "file_tag": "1 12 5", "offset": int64(0), "has_offset": true},
		{"session": "s1", "syscall": "read", "proc_name": "fluent-bit", "thread_name": "flb-pipeline", "ret_val": int64(26), "time_enter_ns": int64(300), "duration_ns": int64(30), "file_tag": "1 12 5", "offset": int64(0), "has_offset": true},
		{"session": "s1", "syscall": "read", "proc_name": "fluent-bit", "thread_name": "flb-pipeline", "ret_val": int64(0), "time_enter_ns": int64(400), "duration_ns": int64(40), "file_tag": "1 12 5", "offset": int64(26), "has_offset": true},
		{"session": "s2", "syscall": "unlink", "proc_name": "app", "thread_name": "app", "ret_val": int64(0), "time_enter_ns": int64(500), "duration_ns": int64(50), "arg_path": "/tmp/a"},
	}...)
}

func newFixtureIndex() *Index {
	ix := NewIndex("events")
	ix.AddEvents(docFixture())
	return ix
}

func TestTermQueryUsesPostings(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{Query: Term("syscall", "read")})
	if resp.Total != 2 {
		t.Fatalf("total = %d, want 2", resp.Total)
	}
	for _, h := range resp.Hits {
		if h["syscall"] != "read" {
			t.Fatalf("hit = %v", h)
		}
	}
}

func TestTermQueryNumericField(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{Query: Term("ret_val", 26)})
	if resp.Total != 2 {
		t.Fatalf("total = %d, want 2", resp.Total)
	}
}

func TestTermsQuery(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{Query: Terms("syscall", "openat", "unlink")})
	if resp.Total != 2 {
		t.Fatalf("total = %d, want 2", resp.Total)
	}
}

func TestRangeQuery(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{Query: RangeBetween("time_enter_ns", 200, 400)})
	if resp.Total != 3 {
		t.Fatalf("total = %d, want 3", resp.Total)
	}
	gt := int64(200)
	lt := int64(400)
	resp = ix.Search(SearchRequest{Query: Query{Range: &RangeQuery{Field: "time_enter_ns", GT: &gt, LT: &lt}}})
	if resp.Total != 1 {
		t.Fatalf("exclusive total = %d, want 1", resp.Total)
	}
}

func TestPrefixAndExists(t *testing.T) {
	ix := newFixtureIndex()
	if got := ix.Count(Prefix("kernel_path", "/tmp")); got != 1 {
		t.Fatalf("prefix count = %d", got)
	}
	if got := ix.Count(Exists("file_tag")); got != 4 {
		t.Fatalf("exists count = %d", got)
	}
	if got := ix.Count(Exists("no_such_field")); got != 0 {
		t.Fatalf("exists missing field count = %d", got)
	}
}

func TestBoolQuery(t *testing.T) {
	ix := newFixtureIndex()
	q := Must(Term("session", "s1"), Term("proc_name", "fluent-bit"))
	if got := ix.Count(q); got != 2 {
		t.Fatalf("must count = %d", got)
	}
	q = Query{Bool: &BoolQuery{
		Must:    []Query{Term("session", "s1")},
		MustNot: []Query{Term("syscall", "read")},
	}}
	if got := ix.Count(q); got != 2 {
		t.Fatalf("must_not count = %d", got)
	}
	q = Query{Bool: &BoolQuery{
		Should: []Query{Term("syscall", "openat"), Term("syscall", "unlink")},
	}}
	if got := ix.Count(q); got != 2 {
		t.Fatalf("should count = %d", got)
	}
}

func TestMatchAllAndZeroQuery(t *testing.T) {
	ix := newFixtureIndex()
	if got := ix.Count(MatchAll()); got != 5 {
		t.Fatalf("match_all = %d", got)
	}
	if got := ix.Count(Query{}); got != 5 {
		t.Fatalf("zero query = %d", got)
	}
}

func TestSortAndPagination(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{
		Query: MatchAll(),
		Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
		Size:  2,
	})
	if len(resp.Hits) != 2 || resp.Total != 5 {
		t.Fatalf("hits=%d total=%d", len(resp.Hits), resp.Total)
	}
	if resp.Hits[0]["time_enter_ns"] != int64(500) {
		t.Fatalf("first hit ts = %v", resp.Hits[0]["time_enter_ns"])
	}
	resp = ix.Search(SearchRequest{
		Query: MatchAll(),
		Sort:  []SortField{{Field: "time_enter_ns"}},
		From:  3,
	})
	if len(resp.Hits) != 2 || resp.Hits[0]["time_enter_ns"] != int64(400) {
		t.Fatalf("from=3 hits=%v", resp.Hits)
	}
	resp = ix.Search(SearchRequest{Query: MatchAll(), From: 99})
	if len(resp.Hits) != 0 {
		t.Fatalf("past-end from returned %d hits", len(resp.Hits))
	}
}

func TestSortByStringField(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{
		Query: MatchAll(),
		Sort:  []SortField{{Field: "syscall"}, {Field: "time_enter_ns"}},
	})
	want := []string{"openat", "read", "read", "unlink", "write"}
	for i, h := range resp.Hits {
		if h["syscall"] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %s", i, h["syscall"], want[i])
		}
	}
}

func TestTermsAggregation(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{
		Query: MatchAll(),
		Aggs:  map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: "syscall"}}},
	})
	buckets := resp.Aggs["by_syscall"].Buckets
	if len(buckets) != 4 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].Key != "read" || buckets[0].Count != 2 {
		t.Fatalf("top bucket = %+v", buckets[0])
	}
}

func TestTermsAggregationSize(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{
		Query: MatchAll(),
		Aggs:  map[string]Agg{"top": {Terms: &TermsAgg{Field: "syscall", Size: 2}}},
	})
	if got := len(resp.Aggs["top"].Buckets); got != 2 {
		t.Fatalf("buckets = %d, want 2", got)
	}
}

func TestDateHistogramWithSubAgg(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{
		Query: MatchAll(),
		Aggs: map[string]Agg{
			"over_time": {
				DateHistogram: &DateHistogramAgg{Field: "time_enter_ns", IntervalNS: 200},
				Aggs: map[string]Agg{
					"by_proc": {Terms: &TermsAgg{Field: "proc_name"}},
				},
			},
		},
	})
	buckets := resp.Aggs["over_time"].Buckets
	// ts 100 -> bucket 0; 200,300 -> 200; 400,500 -> 400
	if len(buckets) != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].KeyNum != 0 || buckets[0].Count != 1 {
		t.Fatalf("bucket[0] = %+v", buckets[0])
	}
	if buckets[1].KeyNum != 200 || buckets[1].Count != 2 {
		t.Fatalf("bucket[1] = %+v", buckets[1])
	}
	sub := buckets[1].Sub["by_proc"].Buckets
	if len(sub) != 2 {
		t.Fatalf("sub buckets = %+v", sub)
	}
}

func TestPercentilesAggregation(t *testing.T) {
	ix := NewIndex("lat")
	for i := 1; i <= 100; i++ {
		ix.AddEvents(docEvents(Document{"duration_ns": int64(i)}))
	}
	resp := ix.Search(SearchRequest{
		Query: MatchAll(),
		Aggs: map[string]Agg{
			"lat": {Percentiles: &PercentilesAgg{Field: "duration_ns", Percents: []float64{50, 99}}},
		},
	})
	p := resp.Aggs["lat"].Percentiles
	if p["50"] != 50 || p["99"] != 99 {
		t.Fatalf("percentiles = %v", p)
	}
}

func TestStatsAggregation(t *testing.T) {
	ix := newFixtureIndex()
	resp := ix.Search(SearchRequest{
		Query: Term("session", "s1"),
		Aggs:  map[string]Agg{"d": {Stats: &StatsAgg{Field: "duration_ns"}}},
	})
	st := resp.Aggs["d"].Stats
	if st == nil || st.Count != 4 || st.Min != 10 || st.Max != 40 || st.Sum != 100 || st.Avg != 25 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreIndexLifecycle(t *testing.T) {
	s := memStore(t)
	if err := s.BulkEvents(context.Background(), "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	if got, _ := s.ListIndices(context.Background()); len(got) != 1 || got[0] != "run1" {
		t.Fatalf("indices = %v", got)
	}
	n, err := s.Count(context.Background(), "run1", MatchAll())
	if err != nil || n != 5 {
		t.Fatalf("count = (%d, %v)", n, err)
	}
	if _, err := s.Search(context.Background(), "missing", SearchRequest{}); err == nil {
		t.Fatal("search on missing index succeeded")
	}
	if _, err := s.Count(context.Background(), "missing", MatchAll()); err == nil {
		t.Fatal("count on missing index succeeded")
	}
	if err := s.DeleteIndex(context.Background(), "run1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got, _ := s.ListIndices(context.Background()); len(got) != 0 {
		t.Fatalf("indices after delete = %v", got)
	}
}

func TestEventDocRoundTrip(t *testing.T) {
	in := event.Event{
		Session:     "s1",
		Syscall:     "read",
		Class:       "data",
		RetVal:      26,
		FD:          23,
		Count:       26,
		PID:         101,
		TID:         102,
		ProcName:    "fluent-bit",
		ThreadName:  "flb-pipeline",
		TimeEnterNS: 100,
		TimeExitNS:  150,
		FileTag:     event.FileTag{Dev: 7340032, Ino: 12, BirthNS: 99},
		FileType:    "regular",
		HasOffset:   true,
		Offset:      26,
	}
	out := docEvents(EventToDoc(&in))[0]
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEventDocOmitsZeroFields(t *testing.T) {
	e := event.Event{Session: "s", Syscall: "close", PID: 1, TID: 1}
	d := EventToDoc(&e)
	for _, f := range []string{FieldFD, FieldArgPath, FieldFileTag, FieldOffset, FieldFilePath} {
		if _, ok := d[f]; ok {
			t.Errorf("zero field %q present in doc", f)
		}
	}
}

func TestCorrelateFilePaths(t *testing.T) {
	st, ix := storeIndex(t, "events")
	ix.AddEvents(docFixture())
	// Add a tagged event whose open was never captured (unresolvable tag).
	ix.AddEvents(docEvents(Document{"session": "s1", "syscall": "read", "file_tag": "1 99 1", "ret_val": int64(5)}))

	searches := st.tm.searches.Value()
	res := correlate(t, st, "events", "s1")
	if n := st.tm.searches.Value() - searches; n != 1 {
		t.Fatalf("one pass ran %d searches, want the one harvest", n)
	}
	if res.TagsResolved != 1 {
		t.Fatalf("tags resolved = %d, want 1", res.TagsResolved)
	}
	// Tagged docs in s1: openat(anchor, has kernel_path), write, read, read, orphan read = 5
	if res.EventsWithTag != 5 {
		t.Fatalf("events with tag = %d, want 5", res.EventsWithTag)
	}
	if res.EventsUpdated != 4 { // openat gets path from kernel_path; 3 others via tag... orphan unresolved
		t.Fatalf("events updated = %d, want 4", res.EventsUpdated)
	}
	if res.EventsUnresolved != 1 {
		t.Fatalf("unresolved = %d, want 1", res.EventsUnresolved)
	}
	if f := res.UnresolvedFraction(); f != 0.2 {
		t.Fatalf("unresolved fraction = %v, want 0.2", f)
	}
	// The write event now has the resolved path.
	resp := ix.Search(SearchRequest{Query: Term("syscall", "write")})
	if resp.Hits[0][FieldFilePath] != "/tmp/a" {
		t.Fatalf("write file_path = %v", resp.Hits[0][FieldFilePath])
	}
	// Idempotent: re-running updates nothing more.
	res2 := correlate(t, st, "events", "s1")
	if res2.EventsUpdated != 0 || res2.EventsUnresolved != 1 {
		t.Fatalf("second run = %+v", res2)
	}
}

func TestCorrelateAllSessions(t *testing.T) {
	st, ix := storeIndex(t, "events")
	ix.AddEvents(docFixture())
	res := correlate(t, st, "events", "")
	if res.TagsResolved != 1 || res.EventsUpdated != 4 {
		t.Fatalf("res = %+v", res)
	}
}

// storeIndex opens an in-memory store holding one empty index and returns
// both: the test drives the index directly and correlates through the store.
func storeIndex(tb testing.TB, name string, opts ...Option) (*Store, *Index) {
	tb.Helper()
	st := memStore(tb, opts...)
	if err := st.BulkEvents(context.Background(), name, nil); err != nil {
		tb.Fatal(err)
	}
	ix, _ := st.GetIndex(name)
	return st, ix
}

// correlate runs one correlation pass through st, failing the test on error.
func correlate(tb testing.TB, st *Store, index, session string) CorrelationResult {
	tb.Helper()
	res, err := st.Correlate(context.Background(), index, session)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// memStore opens an in-memory store.
func memStore(tb testing.TB, opts ...Option) *Store {
	tb.Helper()
	st, err := Open(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
