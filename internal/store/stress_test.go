package store

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentStress hammers one sharded index with concurrent bulk
// writers, single-doc writers, searchers, aggregators, counters, and a
// correlation loop — the contention pattern of the real pipeline, where
// drain workers bulk-index while dashboards query and the correlation
// algorithm names files. Run under -race; the invariants are:
// no lost documents and consistent totals.
func TestConcurrentStress(t *testing.T) {
	const (
		writers       = 4
		docsPerWriter = 1500
		batch         = 64
	)
	st, ix := storeIndex(t, "stress", WithShards(8))

	syscalls := []string{"read", "write", "openat", "close", "fsync"}
	// Each writer's opens and fsyncs share one file tag, which its opens name.
	mkdoc := func(writer, i int) Document {
		d := Document{
			"session":       "stress",
			"thread_name":   fmt.Sprintf("w%d", writer),
			"syscall":       syscalls[i%len(syscalls)],
			"time_enter_ns": int64(i) * 1000,
			"duration_ns":   float64(i%97) + 1,
		}
		switch d["syscall"] {
		case "openat":
			d["kernel_path"] = fmt.Sprintf("/data/w%d", writer)
			fallthrough
		case "fsync":
			d["file_tag"] = fmt.Sprintf("1 %d 7", writer+1)
		}
		return d
	}

	var (
		writeWG, readWG sync.WaitGroup
		done            atomic.Bool
	)

	// Half the writers index one event at a time; the other half batch like
	// the tracer does.
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			if w%2 == 0 {
				for i := 0; i < docsPerWriter; i++ {
					ix.AddEvents(docEvents(mkdoc(w, i)))
				}
				return
			}
			for i := 0; i < docsPerWriter; i += batch {
				end := i + batch
				if end > docsPerWriter {
					end = docsPerWriter
				}
				docs := make([]Document, 0, end-i)
				for j := i; j < end; j++ {
					docs = append(docs, mkdoc(w, j))
				}
				ix.AddEvents(docEvents(docs...))
			}
		}(w)
	}

	// Readers: searches with sorting, pagination, and aggregations. Totals
	// are racy snapshots while writers run, so only structural invariants
	// are asserted here.
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for !done.Load() {
				resp := ix.Search(SearchRequest{
					Query: Term("syscall", "write"),
					Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
					Size:  10,
					Aggs: map[string]Agg{
						"by_writer": {Terms: &TermsAgg{Field: "thread_name"}},
						"lat":       {Stats: &StatsAgg{Field: "duration_ns"}},
					},
				})
				if len(resp.Hits) > 10 {
					panic("size cap violated")
				}
				sum := 0
				for _, b := range resp.Aggs["by_writer"].Buckets {
					sum += b.Count
				}
				if sum != resp.Total {
					panic(fmt.Sprintf("terms agg counted %d docs, total %d", sum, resp.Total))
				}
				if n := ix.Count(Term("syscall", "write")); n < 0 {
					panic("negative count")
				}
			}
		}()
	}

	// Correlation names tagged rows in place while writes and reads are in
	// flight, and its accounting closes on whatever rows each pass saw.
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for !done.Load() {
			r, err := st.Correlate(context.Background(), "stress", "stress")
			if err != nil {
				panic(err)
			}
			if r.EventsUpdated+r.EventsUnresolved+r.EventsAlreadyResolved != r.EventsWithTag {
				panic(fmt.Sprintf("correlation accounting does not close: %+v", r))
			}
		}
	}()

	writeWG.Wait()
	done.Store(true)
	readWG.Wait()

	total := writers * docsPerWriter
	if got := ix.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	resp := ix.Search(SearchRequest{Query: MatchAll(), Size: -1})
	if resp.Total != total || len(resp.Hits) != total {
		t.Fatalf("match_all total=%d hits=%d, want %d", resp.Total, len(resp.Hits), total)
	}

	// No lost docs: every writer's documents are all present.
	for w := 0; w < writers; w++ {
		if n := ix.Count(Term("thread_name", fmt.Sprintf("w%d", w))); n != docsPerWriter {
			t.Fatalf("writer %d count = %d, want %d", w, n, docsPerWriter)
		}
	}

	// A final quiescent pass names whatever the racing ones left; afterwards
	// every tagged row — each writer's opens and fsyncs — has its path.
	correlate(t, st, "stress", "stress")
	nf, ns := ix.Count(Exists(FieldFilePath)), ix.Count(Terms("syscall", "fsync", "openat"))
	if nf != ns || ns != ix.Count(Exists(FieldFileTag)) {
		t.Fatalf("named %d docs, tagged population %d", nf, ns)
	}
	for w := 0; w < writers; w++ {
		named := Must(Term("thread_name", fmt.Sprintf("w%d", w)), Exists(FieldFilePath))
		if n, m := ix.Count(named), ix.Count(Must(named, Term(FieldFilePath, fmt.Sprintf("/data/w%d", w)))); n == 0 || n != m {
			t.Fatalf("writer %d: %d rows named, %d with its own path", w, n, m)
		}
	}
}

// TestShardedMatchesOracle cross-checks the sharded parallel execution
// against the brute-force oracle (oracle_test.go) on randomized documents
// and a spread of query shapes: both must produce byte-identical responses
// (totals, hit order, aggregation results).
func TestShardedMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { shardedMatchesOracle(t, shards, 4000) })
	}
	// The same matrix with at least three storage blocks in every shard, so
	// scans, correlation passes and cursors all cross block boundaries.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d,blocks=3", shards), func(t *testing.T) {
			shardedMatchesOracle(t, shards, shards*(2*blockRows+37))
		})
	}
}

func shardedMatchesOracle(t *testing.T, shards, n int) {
	st, ix := storeIndex(t, "diff", WithShards(shards))
	ix.AddEvents(docEvents(oracleDocs(n)...))
	reqs := oracleRequests()

	check := func(i int, req SearchRequest) {
		t.Helper()
		want := oracleSearch(ix, req)
		wantCount := oracleCount(ix, req.Query)
		got := ix.Search(req)
		gotCount := ix.Count(req.Query)

		if got.Total != want.Total {
			t.Errorf("req %d: total = %d, oracle %d", i, got.Total, want.Total)
		}
		if gotCount != wantCount {
			t.Errorf("req %d: count = %d, oracle %d", i, gotCount, wantCount)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("req %d: hits diverge (%d vs %d docs)", i, len(got.Hits), len(want.Hits))
		}
		if !reflect.DeepEqual(got.Aggs, want.Aggs) {
			t.Errorf("req %d: aggs diverge\n got %+v\nwant %+v", i, got.Aggs, want.Aggs)
		}
		if !reflect.DeepEqual(got.NextAfter, want.NextAfter) {
			t.Errorf("req %d: next_after = %v, oracle %v", i, got.NextAfter, want.NextAfter)
		}
	}
	reqs = append(reqs, nestedAggShapes()...)
	for i, req := range reqs {
		check(i, req)
	}

	// Correlation — the store's one update — must agree too: one session, then
	// all of them, each pass naming exactly the rows the oracle's brute-force
	// rule names, with the same accounting, and the named state searching
	// identically (the nested matrix included: no bucket may move).
	for _, session := range []string{"s1", ""} {
		want, _ := oracleRows(ix)
		wantRes := oracleCorrelate(want, session)
		// (Within one session some tags have no anchor; across all, none.)
		if gotRes := correlate(t, st, "diff", session); gotRes != wantRes || gotRes.EventsUpdated == 0 || (session != "" && gotRes.EventsUnresolved == 0) {
			t.Fatalf("correlate %q: sharded %+v, oracle %+v", session, gotRes, wantRes)
		}
		if got, _ := oracleRows(ix); !reflect.DeepEqual(got, want) {
			t.Fatalf("correlate %q: rows diverge from the oracle's", session)
		}
		resolved := SearchRequest{Query: Exists(FieldFilePath), Size: -1}
		if a, b := ix.Search(resolved), oracleSearch(ix, resolved); a.Total == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("correlate %q: post-pass responses diverge: %d vs %d hits", session, len(a.Hits), len(b.Hits))
		}
	}
	for i, req := range nestedAggShapes() {
		check(1000+i, req)
	}

	// A sorted cursor paged to exhaustion over the named rows: every page,
	// and the token it hands on, is the oracle's. count ties heavily, so the
	// resume point falls inside runs of equal keys.
	page := SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: "count", Desc: true}}, Size: 701}
	for p, seen := 0, 0; ; p++ {
		check(2000+p, page)
		got := ix.Search(page)
		seen += len(got.Hits)
		if got.NextAfter == nil {
			if seen != n+1 {
				t.Fatalf("cursor saw %d rows of %d", seen, n+1)
			}
			break
		}
		page.SearchAfter = got.NextAfter
	}
}

// oracleDocs is the differential fixture: n seeded rows over three sessions,
// six syscalls and three processes, with an optional numeric field, file tags
// on about a quarter (anchored by opens and some stats), seven pids, an
// optional non-indexed string and an offset on a third, plus one row whose
// syscall no other row carries — its terms bucket lives on exactly one shard
// and, lacking count, its percentiles have no values.
func oracleDocs(n int) []Document {
	rng := rand.New(rand.NewSource(7))
	syscalls := []string{"read", "write", "openat", "close", "fsync", "stat"}
	procs := []string{"fluent-bit", "rocksdb", "dbbench"}

	docs := make([]Document, 0, n)
	for i := 0; i < n; i++ {
		d := Document{
			"session":       fmt.Sprintf("s%d", rng.Intn(3)),
			"syscall":       syscalls[rng.Intn(len(syscalls))],
			"proc_name":     procs[rng.Intn(len(procs))],
			"time_enter_ns": int64(rng.Intn(5_000_000)),
			"pid":           int64(i % 7),
		}
		// By position, drawing nothing from rng: a non-indexed string absent
		// from every fourth row, and an offset on every third.
		if i%4 != 3 {
			d["arg_path2"] = []string{"s1", "5", "<nil>"}[i%4]
		}
		if i%3 == 0 {
			d["offset"], d["has_offset"] = int64(i), true
		}
		if rng.Intn(10) > 0 { // ~10% of rows miss the optional numeric field
			d["count"] = float64(rng.Intn(100_000))
		}
		if rng.Intn(4) == 0 {
			ino := rng.Intn(50)
			d["file_tag"] = fmt.Sprintf("1 %d 7", ino)
			// Anchors for the correlation step: opens name their file, and so
			// — weaker evidence, and not always agreeing — does every other stat.
			switch d["syscall"] {
			case "openat":
				d["kernel_path"] = fmt.Sprintf("/data/f%d", ino)
			case "stat":
				if ino%2 == 0 {
					d["kernel_path"] = fmt.Sprintf("/stat/f%d.%d", ino, i%2)
				}
			}
		}
		docs = append(docs, d)
	}
	return append(docs, Document{"session": "s1", "syscall": "rare", "proc_name": "dbbench", "time_enter_ns": int64(42)})
}

// domainValues are a term value of every kind: a string, a JSON integer, a
// JSON fraction, a bool, nil, a decimal string, and the string "<nil>".
var domainValues = []any{"s1", json.Number("5"), json.Number("1.5"), true, nil, "5", "<nil>"}

// domainQueries are the shapes term equality and the clause precedence rule
// turn on: a term of every domainValues value, and a terms of all of them,
// on every kind of field (an indexed slot, a slot absent where "", file_tag,
// an integer every row holds, one some rows lack, has_offset, an unknown
// name); must, should and must_not nested two deep; a term beside the bool
// it ignores; an empty bool; and match_all beside a clause.
func domainQueries() []Query {
	var out []Query
	for _, f := range []string{FieldSession, FieldArgPath2, FieldFileTag, FieldPID, FieldCount, FieldHasOffset, "no_such_field"} {
		for _, v := range domainValues {
			out = append(out, Term(f, v))
		}
		out = append(out, Terms(f, domainValues...))
	}
	should := func(qs ...Query) Query { return Query{Bool: &BoolQuery{Should: qs}} }
	nested := Must(
		should(Term(FieldSession, "s1"), Must(Term(FieldSyscall, "read"), Exists(FieldCount))),
		MustNot(should(Term(FieldPID, "5"), Term(FieldArgPath2, nil))),
	)
	return append(out,
		nested,
		Query{Bool: &BoolQuery{
			Should:  []Query{nested, MustNot(Term(FieldProcName, "rocksdb"))},
			MustNot: []Query{Must(Term(FieldHasOffset, "true"), Terms(FieldCount, nil, json.Number("1.5")))},
		}},
		Query{Term: Term(FieldSyscall, "write").Term, Bool: MustNot(Term(FieldSyscall, "write")).Bool},
		Query{Bool: &BoolQuery{}},
		Query{MatchAll: true, Term: Term(FieldSession, "s2").Term},
		Query{MatchAll: true, Range: RangeGTE(FieldTimeEnter, 2_500_000).Range},
	)
}

// oracleRequests is the flat half of the differential matrix over the
// oracleDocs fixture; nestedAggShapes is the nested half. The domainQueries
// close it, each a page of ten: the bool and precedence shapes sorted by
// time, the terms in gid order.
func oracleRequests() []SearchRequest {
	var domain []SearchRequest
	for _, q := range domainQueries() {
		req := SearchRequest{Query: q, Size: 10}
		if q.Term == nil && q.Terms == nil {
			req.Sort = []SortField{{Field: FieldTimeEnter, Desc: len(domain)%2 == 1}}
		}
		domain = append(domain, req)
	}
	return append(append([]SearchRequest{
		{Query: MatchAll(), Size: -1},
		{Query: Term("syscall", "write"), Size: -1},
		{Query: Terms("syscall", "read", "write"), Size: 25, From: 10},
		{Query: RangeBetween("count", 1000, 60000), Size: -1},
		{Query: Prefix("file_tag", "1 1"), Size: -1},
		{Query: Exists("file_tag"), Size: 50},
		{Query: Must(Term("session", "s1"), Term("syscall", "read"), RangeGTE("time_enter_ns", 1_000_000)), Size: -1},
		{Query: MustNot(Term("proc_name", "rocksdb")), Size: 40, From: 5},
		{
			Query: Term("session", "s2"),
			Sort:  []SortField{{Field: "count", Desc: true}, {Field: "time_enter_ns"}},
			Size:  17,
		},
		{
			Query: Term("session", "s0"),
			Sort:  []SortField{{Field: "count"}}, // ties resolve by insertion order
			Size:  -1,
		},
		{
			Query: MatchAll(),
			Sort:  []SortField{{Field: "time_enter_ns"}},
			From:  100,
			Size:  33,
		},
		// One of three sessions, newest first: the live dashboard's latest
		// panel and, ascending, the diagnosis pass, read as the session's term
		// run. FuzzSearchRequest seeds its search_after continuation too.
		{
			Query: Term("session", "s1"),
			Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
			Size:  40,
		},
		// The shapes the Fig. 2 table and the file-pattern detectors page a
		// session by: a term beside clauses the walk of its run tests per row.
		{
			Query: Must(Term("session", "s1"), Terms("syscall", "read", "write")),
			Sort:  []SortField{{Field: "time_enter_ns"}},
			Size:  25,
		},
		{
			Query: Must(Term("session", "s0"), Exists("file_tag"), Terms("syscall", "read", "write", "openat", "stat")),
			Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
			Size:  20,
		},
		// Walked pages the merge must window: from rows skipped in the merge,
		// a session ∧ syscall page that tests each row of the run, and a page
		// whose one row sits on one shard, every other entry empty.
		{
			Query: Term("session", "s1"),
			Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
			From:  7,
			Size:  20,
		},
		{
			Query: Must(Term("session", "s2"), Term("syscall", "write")),
			Sort:  []SortField{{Field: "time_enter_ns"}},
			From:  3,
			Size:  15,
		},
		{
			Query: Term("syscall", "rare"),
			Sort:  []SortField{{Field: "time_enter_ns"}},
			Size:  5,
		},
		// Two clauses set: the evaluator reads the first, in the order Term,
		// Terms, Range, Prefix, Exists, Bool, and ignores the bool beside it.
		{
			Query: Query{Term: Term("session", "s1").Term, Bool: Must(Term("syscall", "read")).Bool},
			Sort:  []SortField{{Field: "time_enter_ns"}},
			Size:  30,
		},
		{
			Query: Query{Range: RangeGTE("time_enter_ns", 2_000_000).Range, Bool: Must(Term("session", "s2"), RangeBetween("time_enter_ns", 0, 1_000_000)).Bool},
			Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
			Size:  30,
		},
		{
			Query: Query{Terms: Terms("syscall", "read", "write").Terms, Bool: Must(Term("session", "s0")).Bool},
			Size:  -1,
		},
		{
			Query: Query{Term: Term("file_tag", "1 3 7").Term, Range: RangeGTE("count", 50_000).Range},
			Size:  -1,
		},
		{
			Query: Term("syscall", "read"),
			Size:  1,
			Aggs: map[string]Agg{
				"by_proc": {Terms: &TermsAgg{Field: "proc_name", Size: 2}},
				"hist": {
					DateHistogram: &DateHistogramAgg{Field: "time_enter_ns", IntervalNS: 500_000},
					Aggs:          map[string]Agg{"lat": {Stats: &StatsAgg{Field: "count"}}},
				},
				"pcts":  {Percentiles: &PercentilesAgg{Field: "count", Percents: []float64{50, 90, 99}}},
				"stats": {Stats: &StatsAgg{Field: "count"}},
			},
		},
		{
			Query: Exists("count"),
			Aggs: map[string]Agg{
				"by_sys": {
					Terms: &TermsAgg{Field: "syscall"},
					Aggs:  map[string]Agg{"p": {Percentiles: &PercentilesAgg{Field: "count"}}},
				},
			},
			Size: -1,
		},
		// The two dashboard windows, after the time-sorted page above built the
		// time order, so each range seeds its bool from the order's run:
		// cold_history's (a session's window, time-sorted, by syscall) and
		// live_dashboard's (a session's tail, one hit, by thread).
		{
			Query: Must(Term("session", "s1"), RangeBetween("time_enter_ns", 1_000_000, 1_400_000)),
			Sort:  []SortField{{Field: "time_enter_ns"}},
			Size:  10,
			Aggs:  map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: "syscall"}}},
		},
		{
			Query: Must(Term("session", "s2"), RangeGTE("time_enter_ns", 4_600_000)),
			Size:  1,
			Aggs:  map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: "thread_name"}}},
		},
	}, dashboardAggShapes()...), domain...)
}

// dashboardAggShapes are the single aggregations a dashboard panel asks of a
// whole index or of one session: terms over every indexed field (counted from
// posting-list lengths when the match is the whole shard, from codes
// otherwise) and over a field no row holds, flat date histograms at several
// intervals, a numeric session term (which no string matches), an absent
// session, and a terms aggregation beside a stats one.
func dashboardAggShapes() []SearchRequest {
	terms := func(f string) map[string]Agg {
		return map[string]Agg{"t": {Terms: &TermsAgg{Field: f}}}
	}
	hist := func(interval int64) map[string]Agg {
		return map[string]Agg{"h": {DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: interval}}}
	}
	return []SearchRequest{
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldSession)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldSyscall)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldProcName)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldThreadName)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldClass)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldRetVal)},
		{Query: MatchAll(), Size: 1, Aggs: hist(100_000)},
		{Query: MatchAll(), Size: 1, Aggs: hist(300_000)},
		{Query: MatchAll(), Size: 1, Aggs: hist(150_000)},
		{Query: Term(FieldSession, "s2"), Size: 1, Aggs: terms(FieldSyscall)},
		{Query: Term(FieldSession, "s2"), Size: 1, Aggs: hist(1_000_000)},
		{Query: Term(FieldSession, 5), Size: 1, Aggs: terms(FieldSyscall)},
		{Query: Term(FieldSession, "nope"), Size: 1, Aggs: terms(FieldSyscall)},
		{Query: Term(FieldSyscall, "read"), Size: 1, Aggs: terms(FieldSession)},
		{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{
			"t": {Terms: &TermsAgg{Field: FieldSyscall}},
			"s": {Stats: &StatsAgg{Field: FieldCount}},
		}},
	}
}

// nestedAggShapes is the nested half of the differential matrix over the
// shardedMatchesOracle fixture (count is absent from ~10% of rows, file_tag
// from ~75%, syscall "rare" lives on one shard).
func nestedAggShapes() []SearchRequest {
	terms := func(field string, size int, subs map[string]Agg) Agg {
		return Agg{Terms: &TermsAgg{Field: field, Size: size}, Aggs: subs}
	}
	hist := func(field string, interval int64, subs map[string]Agg) Agg {
		return Agg{DateHistogram: &DateHistogramAgg{Field: field, IntervalNS: interval}, Aggs: subs}
	}
	stats := Agg{Stats: &StatsAgg{Field: "count"}}
	pcts := Agg{Percentiles: &PercentilesAgg{Field: "count", Percents: []float64{0, 50, 99, 100}}}
	return []SearchRequest{
		// The Fig. 4 shape: a session's timeline split by a keyword.
		{Query: Term("session", "s1"), Size: 1, Aggs: map[string]Agg{
			"timeline": hist("time_enter_ns", 500_000, map[string]Agg{"by": terms("proc_name", 0, nil)}),
		}},
		// Two levels, two sub-aggregations on the inner one.
		{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{
			"by_sys": terms("syscall", 0, map[string]Agg{
				"over_time": hist("time_enter_ns", 1_000_000, map[string]Agg{"lat": stats, "p": pcts}),
			}),
		}},
		// Percentiles under terms, over a field some rows (and every row of
		// the "rare" bucket) lack.
		{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{"by_sys": terms("syscall", 0, map[string]Agg{"p": pcts})}},
		// Size truncation on the parent and on the sub, after the merge.
		{Query: MustNot(Term("session", "s0")), Size: 1, Aggs: map[string]Agg{
			"top_sys": terms("syscall", 3, map[string]Agg{"top_proc": terms("proc_name", 2, nil)}),
		}},
		// Sub-aggregation fields absent from some rows: a keyword (missing
		// rows bucket under ""), a histogram and stats over an optional number.
		{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{
			"by_session": terms("session", 0, map[string]Agg{
				"tags":   terms("file_tag", 5, nil),
				"sizes":  hist("count", 10_000, nil),
				"counts": stats,
			}),
		}},
	}
}
