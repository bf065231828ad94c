package store

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// eventFixture mirrors docFixture as event literals (DurationNS is derived
// from the timestamps rather than stored, so exit = enter + duration).
func eventFixture() []event.Event {
	return []event.Event{
		{Session: "s1", Syscall: "openat", ProcName: "app", ThreadName: "app", RetVal: 3,
			TimeEnterNS: 100, TimeExitNS: 110, KernelPath: "/tmp/a",
			FileTag: event.FileTag{Dev: 1, Ino: 12, BirthNS: 5}},
		{Session: "s1", Syscall: "write", ProcName: "app", ThreadName: "app", RetVal: 26,
			TimeEnterNS: 200, TimeExitNS: 220,
			FileTag: event.FileTag{Dev: 1, Ino: 12, BirthNS: 5}, Offset: 0, HasOffset: true},
		{Session: "s1", Syscall: "read", ProcName: "fluent-bit", ThreadName: "flb-pipeline", RetVal: 26,
			TimeEnterNS: 300, TimeExitNS: 330,
			FileTag: event.FileTag{Dev: 1, Ino: 12, BirthNS: 5}, Offset: 0, HasOffset: true},
		{Session: "s1", Syscall: "read", ProcName: "fluent-bit", ThreadName: "flb-pipeline", RetVal: 0,
			TimeEnterNS: 400, TimeExitNS: 440,
			FileTag: event.FileTag{Dev: 1, Ino: 12, BirthNS: 5}, Offset: 26, HasOffset: true},
		{Session: "s2", Syscall: "unlink", ProcName: "app", ThreadName: "app", RetVal: 0,
			TimeEnterNS: 500, TimeExitNS: 550, ArgPath: "/tmp/a"},
	}
}

// TestBulkEventsEarlyResponseNoRace hammers concurrent BulkEvents calls at a
// server that answers before reading the request body — the path where
// http.Client.Do returns while the transport's write goroutine may still be
// reading the frame. Under -race this catches recycling the frame buffer
// into the shared pool while an aborted write still reads it; bodies are
// kept larger than the server's post-handler drain limit so the write really
// is in flight when the response lands.
func TestBulkEventsEarlyResponseNoRace(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// 429 replies without touching r.Body.
		httpError(w, http.StatusTooManyRequests, "rejected without reading the body")
	}))
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	// Frames past the server's 256KB post-handler drain limit, so the
	// connection is torn down while part of the frame is still unwritten.
	batch := make([]event.Event, 4096)
	for i := range batch {
		batch[i] = event.Event{
			Session: "s", Syscall: "write", Class: "data", ProcName: "proc",
			ThreadName: "thread", PID: 1, TID: i, RetVal: 512,
			TimeEnterNS: int64(i), TimeExitNS: int64(i) + 1,
			ArgPath: strings.Repeat("x", 512),
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Every call fails with 429; the point is frame-buffer
				// lifetime across aborted writes, not delivery.
				_ = c.BulkEvents(context.Background(), "run1", batch)
			}
		}()
	}
	wg.Wait()
}

// TestEmptyStringPresenceParity pins the document-view presence contract on
// the always-stored string fields: EventToDoc writes session, syscall,
// class, proc_name, and thread_name even when empty, so a Term query for ""
// (and Exists) must answer over the stored events — through the postings
// fast path, the scan, and the brute-force oracle — exactly as the query
// evaluates over the document views themselves.
func TestEmptyStringPresenceParity(t *testing.T) {
	events := eventFixture() // Class is empty on every fixture event
	events[2].ThreadName = ""
	docs := make([]Document, len(events))
	for i := range events {
		docs[i] = EventToDoc(&events[i])
	}
	typed := NewIndex("typed")
	typed.AddEvents(events)

	queries := map[string]Query{
		"empty class term":  Term("class", ""),
		"empty thread term": Term("thread_name", ""),
		"empty syscall":     Term("syscall", ""),
		"class exists":      Exists("class"),
		// Omitted-when-empty fields must keep matching nothing.
		"empty arg_path term": Term("arg_path", ""),
	}
	for name, q := range queries {
		want := 0
		for _, d := range docs {
			if q.Matches(d) {
				want++
			}
		}
		if got := typed.Count(q); got != want {
			t.Errorf("%s: index %d, document views %d", name, got, want)
		}
		if got := oracleCount(typed, q); got != want {
			t.Errorf("%s: oracle %d, document views %d", name, got, want)
		}
	}
}

// TestBinaryPathLandsTyped checks the happy path: a binary BulkEvents call
// against a current server ingests typed rows and they are queryable both
// ways.
func TestBinaryPathLandsTyped(t *testing.T) {
	st, c := newTestServerClient(t)
	if err := c.BulkEvents(context.Background(), "run1", eventFixture()); err != nil {
		t.Fatalf("BulkEvents: %v", err)
	}
	res, err := st.SearchEvents(context.Background(), "run1", SearchRequest{
		Query: Term("session", "s1"), Sort: []SortField{{Field: "time_enter_ns"}}})
	if err != nil {
		t.Fatalf("SearchEvents: %v", err)
	}
	if res.Total != 4 || res.Hits[0].Syscall != "openat" {
		t.Fatalf("typed search after binary ingest: total=%d hits=%+v", res.Total, res.Hits)
	}
	resp, err := c.Search(context.Background(), "run1", SearchRequest{Query: Term("syscall", "read")})
	if err != nil || resp.Total != 2 {
		t.Fatalf("doc search after binary ingest = (%+v, %v)", resp, err)
	}
}

// TestRangeEdgeDifferential cross-checks every range evaluation path on
// GT/LT/GTE/LTE edge equality: the oracle's contains (document matching),
// a compiled range clause's row scan, the window of a field's all-rows run
// (alone and seeding a bool), the posting-list path, and the brute-force
// oracle must agree for every combination of bounds anchored on stored
// values. On count and offset, which some rows lack, stats and percentiles
// over each range's matches must also equal the oracle's.
func TestRangeEdgeDifferential(t *testing.T) {
	vals := []int64{-5, 0, 10, 20, 20, 30, 40}
	var docs []Document
	var events []event.Event
	for i, v := range vals {
		events = append(events, event.Event{
			Session: "s", Syscall: "read", ProcName: "p", ThreadName: "t",
			RetVal: v, TimeEnterNS: int64(i), TimeExitNS: int64(i) + 1,
		})
		if i%2 == 0 {
			events[i].Count = int(v)
		}
		if i%3 != 0 {
			events[i].Offset, events[i].HasOffset = v, true
		}
		docs = append(docs, EventToDoc(&events[i]))
	}
	typedIx := NewIndex("typed")
	typedIx.AddEvents(events)

	// eachRange calls fn with every single bound on field and every pair of a
	// lower and an upper bound, anchored on bounds.
	eachRange := func(field string, bounds []int64, fn func(name string, q Query)) {
		mk := func(gt, gte, lt, lte *int64) Query {
			return Query{Range: &RangeQuery{Field: field, GT: gt, GTE: gte, LT: lt, LTE: lte}}
		}
		for _, b := range bounds {
			b := b
			fn(fmt.Sprintf("gt %v", b), mk(&b, nil, nil, nil))
			fn(fmt.Sprintf("gte %v", b), mk(nil, &b, nil, nil))
			fn(fmt.Sprintf("lt %v", b), mk(nil, nil, &b, nil))
			fn(fmt.Sprintf("lte %v", b), mk(nil, nil, nil, &b))
			for _, hi := range bounds {
				hi := hi
				fn(fmt.Sprintf("gt %v lt %v", b, hi), mk(&b, nil, &hi, nil))
				fn(fmt.Sprintf("gte %v lte %v", b, hi), mk(nil, &b, nil, &hi))
				fn(fmt.Sprintf("gt %v lte %v", b, hi), mk(&b, nil, nil, &hi))
				fn(fmt.Sprintf("gte %v lt %v", b, hi), mk(nil, &b, &hi, nil))
			}
		}
	}
	// bruteForce is the ground truth: the shared helper over every document.
	bruteForce := func(docs []Document, q Query) int {
		want := 0
		for _, d := range docs {
			if q.Matches(d) {
				want++
			}
		}
		return want
	}
	// matched counts q's matches shard by shard through matchIDs alone, over
	// the runs as they stand, and fails unless every shard's ids ascend.
	matched := func(name string, ix *Index, q Query) int {
		t.Helper()
		n := 0
		for _, sh := range ix.shards {
			sh.mu.RLock()
			ids := sh.matchIDs(compileQuery(q))
			sh.mu.RUnlock()
			if !slices.IsSorted(ids) {
				t.Fatalf("%s: match ids out of order: %v", name, ids)
			}
			n += len(ids)
		}
		return n
	}
	check := func(name string, ix *Index, docs []Document, q Query) {
		t.Helper()
		want := bruteForce(docs, q)
		if got := ix.Count(q); got != want {
			t.Errorf("%s: count %d, brute force %d", name, got, want)
		}
		if got := matched(name, ix, q); got != want {
			t.Errorf("%s: match ids %d, brute force %d", name, got, want)
		}
		if got := oracleCount(ix, q); got != want {
			t.Errorf("%s: oracle %d, brute force %d", name, got, want)
		}
	}
	bounds := []int64{-6, -5, 0, 9, 10, 20, 21, 30, 40, 41}
	eachRange(FieldRetVal, bounds, func(name string, q Query) { check(name, typedIx, docs, q) })
	for _, f := range []string{FieldCount, FieldOffset} {
		aggs := map[string]Agg{"stats": {Stats: &StatsAgg{Field: f}}, "pct": {Percentiles: &PercentilesAgg{Field: f}}}
		eachRange(f, bounds, func(name string, q Query) {
			check(f+" "+name, typedIx, docs, q)
			check(f+" session ∧ "+name, typedIx, docs, Must(Term(FieldSession, "s"), q))
			req := SearchRequest{Query: q, Size: 1, Aggs: aggs}
			if got, want := typedIx.Search(req).Aggs, oracleSearch(typedIx, req).Aggs; !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: aggs %v, oracle %v", f, name, got, want)
			}
		})
	}

	// A sorted page builds ret_val's order; a range then reads its run of the
	// order, alone and seeding a bool whose session term holds every row.
	typedIx.Search(SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldRetVal}}, Size: 1})
	if !orderCovers(typedIx, FieldRetVal) {
		t.Fatal("the sorted page built no ret_val order")
	}
	eachRange(FieldRetVal, bounds, func(name string, q Query) {
		check("ordered "+name, typedIx, docs, q)
		check("ordered session ∧ "+name, typedIx, docs, Must(Term(FieldSession, "s"), q))
	})

	// Two sessions interleaved in time at epoch scale, where float64's ulp is
	// 256 ns, so stamps a few ns apart would tie as floats; through the order
	// they compare exactly: bounds on and one ns beside every stored stamp, over a session term that is half of
	// the rows, so some windows seed and the rest intersect the posting list.
	steps := []int64{0, 60, 60, 130, 255, 256, 257, 400, 512, 513, 900, 1000, 1300, 1300, 1500, 2000}
	stamped := func(from int, steps []int64) []event.Event {
		evs := make([]event.Event, len(steps))
		for i, d := range steps {
			ts := int64(orderBase) + d
			evs[i] = event.Event{Session: []string{"a", "b"}[(from+i)%2], Syscall: "read", ProcName: "p", ThreadName: "t", TimeEnterNS: ts, TimeExitNS: ts + 10}
		}
		return evs
	}
	var stampBounds []int64
	for _, d := range append([]int64{-1000, 5000}, steps...) {
		for _, ns := range []int64{d - 1, d, d + 1} {
			if b := int64(orderBase) + ns; !slices.Contains(stampBounds, b) {
				stampBounds = append(stampBounds, b)
			}
		}
	}
	later := []int64{-300, 100, 700, 2500, 2500, 90}
	for _, shards := range []int{1, 3} {
		ix := NewIndexWithShards("time", shards)
		evs := stamped(0, steps)
		ix.AddEvents(evs)
		var tdocs []Document
		for i := range evs {
			tdocs = append(tdocs, EventToDoc(&evs[i]))
		}
		ix.Search(SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 1})
		if !orderCovers(ix, FieldTimeEnter) {
			t.Fatal("the sorted page built no time order")
		}
		eachRange(FieldTimeEnter, stampBounds, func(name string, q Query) {
			for _, s := range []string{"a", "b"} {
				check(fmt.Sprintf("shards=%d session %s ∧ %s", shards, s, name), ix, tdocs, Must(Term(FieldSession, s), q))
			}
		})

		// A batch appended after the order was built leaves it shorter than
		// the rows, so a bool falls back to its posting list and a range to
		// the row scan.
		more := stamped(len(steps), later)
		ix.AddEvents(more)
		for i := range more {
			tdocs = append(tdocs, EventToDoc(&more[i]))
		}
		if orderCovers(ix, FieldTimeEnter) {
			t.Fatal("the appended batch is covered by the order")
		}
		eachRange(FieldTimeEnter, stampBounds, func(name string, q Query) {
			for i, q := range []Query{q, Must(Term(FieldSession, "a"), q)} {
				name := fmt.Sprintf("shards=%d appended %s%s", shards, []string{"", "session a ∧ "}[i], name)
				if got, want := matched(name, ix, q), bruteForce(tdocs, q); got != want {
					t.Errorf("%s: match ids %d, brute force %d", name, got, want)
				}
			}
		})
		// A range then extends the order over the appended rows, and every
		// range reads it again.
		eachRange(FieldTimeEnter, stampBounds, func(name string, q Query) {
			check(fmt.Sprintf("shards=%d extended %s", shards, name), ix, tdocs, q)
		})
		if !orderCovers(ix, FieldTimeEnter) {
			t.Fatal("a range did not extend the time order over the appended batch")
		}
	}
}

// TestAddEventsAllocs pins the typed ingest path's allocation budget:
// adding a warm batch of events (terms already in the dictionaries) must
// stay under 3 allocations per event amortized.
func TestAddEventsAllocs(t *testing.T) {
	base := make([]event.Event, 512)
	for i := range base {
		base[i] = event.Event{
			Session: "s", Syscall: "read", Class: "data", ProcName: "proc",
			ThreadName: "thread", PID: 1, TID: 2, RetVal: 4096,
			TimeEnterNS: int64(i) * 10, TimeExitNS: int64(i)*10 + 5,
		}
	}
	ix := NewIndex("bench")
	ix.AddEvents(base) // warm term dictionaries and shard slices
	allocs := testing.AllocsPerRun(10, func() {
		ix.AddEvents(base)
	})
	if perEvent := allocs / float64(len(base)); perEvent > 3 {
		t.Fatalf("typed ingest allocates %.2f allocs/event (total %.0f), budget is 3", perEvent, allocs)
	}
}
