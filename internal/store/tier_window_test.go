package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Differential tests for the cold path's row-level time selection: a durable
// store whose rows sit in several compacted segments must answer every time
// window exactly like an in-memory control holding the same rows, and like
// the brute-force oracle over that control — whatever the window's shape, and
// whatever a retention gap did to the segments.

const windowIndex = "win"

// windowBase puts stamps where float64 has a 256 ns ulp, so rows a few ns
// apart would collapse onto one float; the store compares them as integers,
// and every bound a few ns off a stamp is an edge case.
const windowBase = int64(1<<60) + 256000

// windowRound builds one round of events: 1 ms of trace per round, stamps
// drawn at random inside it (so a segment's rows are not in time order).
func windowRound(rng *rand.Rand, round, rows int) []event.Event {
	evs := make([]event.Event, rows)
	for i := range evs {
		enter := windowBase + int64(round)*1_000_000 + int64(rng.Intn(900_000))
		evs[i] = event.Event{
			Session: "win", Syscall: []string{"read", "write", "openat"}[rng.Intn(3)],
			Class: "file", ProcName: "app", ThreadName: fmt.Sprintf("w%d", i%3),
			PID: 7, TID: 10 + i%3, RetVal: int64(round*1000 + i), Count: 512,
			TimeEnterNS: enter, TimeExitNS: enter + int64(rng.Intn(5000)),
		}
	}
	return evs
}

// windowStores builds the pair under test: a durable store whose first cold
// rounds are snapshotted (one level-0 segment each) and then compacted, with
// the remaining rounds hot, and the in-memory control.
func windowStores(t *testing.T, seed int64, rounds, cold, rows int) (tiered, mem *Store, times []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tiered = openDurable(t, t.TempDir(), WithQueryCache(0))
	mem = memStore(t)
	t.Cleanup(func() { tiered.Close(); mem.Close() })
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		evs := windowRound(rng, r, rows)
		for _, e := range evs {
			times = append(times, e.TimeEnterNS)
		}
		for _, st := range []*Store{tiered, mem} {
			if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
				t.Fatalf("round %d: bulk: %v", r, err)
			}
		}
		if r < cold {
			if err := tiered.Snapshot(); err != nil {
				t.Fatalf("round %d: snapshot: %v", r, err)
			}
		}
	}
	if err := tiered.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return tiered, mem, times
}

// timeRange is the inclusive time_enter_ns window [lo, hi] with exact
// bounds: RangeBetween takes floats, which round at epoch scale.
func timeRange(lo, hi int64) Query {
	return Query{Range: &RangeQuery{Field: FieldTimeEnter, GTE: &lo, LTE: &hi}}
}

// jsonOf renders v the way a response goes out, for byte-for-byte comparison.
func jsonOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// randomWindow draws one time window over the fixture's stamps. Bounds sit
// on, or a few ns either side of, a row's stamp, so most of them are edges.
func randomWindow(rng *rand.Rand, times []int64) (string, Query) {
	pick := func() int64 {
		return times[rng.Intn(len(times))] + []int64{0, 0, 1, -1, 100, -100, 300, -300}[rng.Intn(8)]
	}
	lo, hi := pick(), pick()
	if lo > hi {
		lo, hi = hi, lo
	}
	r := &RangeQuery{Field: FieldTimeEnter}
	kind := []string{"closed", "open", "from", "until", "unbounded", "empty", "point", "everything"}[rng.Intn(8)]
	switch kind {
	case "closed":
		r.GTE, r.LTE = &lo, &hi
	case "open":
		r.GT, r.LT = &lo, &hi
	case "from":
		r.GTE = &lo
	case "until":
		r.LT = &hi
	case "unbounded":
		return kind, Term(FieldSession, "win")
	case "empty":
		hi += 512
		r.GTE, r.LTE = &hi, &lo
	case "point":
		r.GTE, r.LTE = &lo, &lo
	case "everything":
		lo, hi = windowBase-1, windowBase+1_000_000_000
		r.GT, r.LTE = &lo, &hi
	}
	return kind, Must(Term(FieldSession, "win"), Query{Range: r})
}

// TestColdWindowMatchesOracle asks random windows of a tiered store, an
// in-memory control and the oracle — sorted with aggregations, paged, counted
// and walked — and requires one answer. Nine cold rounds compact to two
// level-1 segments and leave one level-0; the tenth round stays hot. In the
// resident arm each segment is decoded whole once. In the over-budget arm
// (a budget of one byte) every query decodes only the 512-row blocks whose
// zone map meets its window, over segments of up to three blocks.
func TestColdWindowMatchesOracle(t *testing.T) {
	for _, arm := range []struct {
		name              string
		rows              int   // per round
		budget            int64 // resident bytes; 0 keeps the default
		windows, walkPage int
	}{
		{"resident", 60, 0, 80, 16},
		// Every query and every page of a walk decodes again, so fewer
		// windows and longer pages.
		{"over-budget", 320, 1, 24, 64},
	} {
		t.Run(arm.name, func(t *testing.T) {
			tiered, mem, times := windowStores(t, 20230627, 10, 9, arm.rows)
			segs := coldSegmentRows(t, tiered, windowIndex)
			if len(segs) != 3 {
				t.Fatalf("fixture has %d cold segments, want 3", len(segs))
			}
			if arm.budget != 0 {
				if slices.Max(segs) <= 2*512 {
					t.Fatalf("fixture's largest cold segment holds %d rows, fewer than three blocks", slices.Max(segs))
				}
				ix, _ := tiered.GetIndex(windowIndex)
				ix.dur.resident.budget = arm.budget
			}
			fix, _ := mem.GetIndex(windowIndex)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(7))
			aggs := map[string]Agg{
				"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}, Aggs: map[string]Agg{"ret": {Stats: &StatsAgg{Field: FieldRetVal}}}},
				"per_ms":     {DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 1_000_000}},
			}
			for w := 0; w < arm.windows; w++ {
				kind, q := randomWindow(rng, times)
				// same asks both stores and the oracle and requires one answer.
				same := func(what string, req SearchRequest) SearchResponse {
					t.Helper()
					want := oracleSearch(fix, req)
					for name, st := range map[string]*Store{"durable": tiered, "memory": mem} {
						got, err := st.Search(ctx, windowIndex, req)
						if err != nil {
							t.Fatalf("window %d (%s) %s: %s: %v", w, kind, what, name, err)
						}
						if g, o := jsonOf(got), jsonOf(want); g != o {
							t.Fatalf("window %d (%s) %s: %s store\n got %s\nwant %s", w, kind, what, name, g, o)
						}
					}
					return want
				}
				sorted := SearchRequest{Query: q, Sort: []SortField{{Field: FieldTimeEnter, Desc: w%2 == 1}}, Size: 10, Aggs: aggs}
				same("sorted+aggs", sorted)

				page := SearchRequest{Query: q, Size: 7}
				for p := 0; p < 6; p++ {
					resp := same(fmt.Sprintf("unsorted page %d", p), page)
					if resp.NextAfter == nil {
						break
					}
					page.SearchAfter = resp.NextAfter
				}

				want := oracleCount(fix, q)
				for name, st := range map[string]*Store{"durable": tiered, "memory": mem} {
					if n, err := st.Count(ctx, windowIndex, q); err != nil || n != want {
						t.Fatalf("window %d (%s) count: %s store %d (%v), oracle %d", w, kind, name, n, err, want)
					}
				}

				all := oracleSearch(fix, SearchRequest{Query: q, Sort: sorted.Sort, Size: -1})
				for name, st := range map[string]*Store{"durable": tiered, "memory": mem} {
					var walked []Document
					err := EachEventPage(ctx, st, windowIndex, SearchRequest{Query: q, Sort: sorted.Sort}, arm.walkPage, func(p EventsResult) error {
						for i := range p.Hits {
							walked = append(walked, EventToDoc(&p.Hits[i]))
						}
						return nil
					})
					if err != nil {
						t.Fatalf("window %d (%s) paged walk: %s: %v", w, kind, name, err)
					}
					if len(walked) != len(all.Hits) || (len(walked) > 0 && !reflect.DeepEqual(walked, all.Hits)) {
						t.Fatalf("window %d (%s) paged walk: %s store walked %d rows, oracle %d", w, kind, name, len(walked), len(all.Hits))
					}
				}
			}
		})
	}
}

// coldSegmentRows returns the row count of each committed segment of one
// index of st.
func coldSegmentRows(t *testing.T, st *Store, index string) []int64 {
	t.Helper()
	ix, ok := st.GetIndex(index)
	if !ok {
		t.Fatalf("no index %q", index)
	}
	var rows []int64
	for _, sm := range *ix.dur.segs.Load() {
		rows = append(rows, sm.Rows)
	}
	return rows
}

// TestSegmentPruneNotStricterThanEvaluator is the window-edge regression: a
// row 100 ns before a bound B, less than float64's 256 ns ulp at this scale,
// is before B, for the evaluator and the segment prune alike. A window
// starting at B counts exactly the rows at B and past it and prunes the
// segment that ends at B-100; a window ending at B-100 counts exactly that
// segment's rows and prunes the other.
func TestSegmentPruneNotStricterThanEvaluator(t *testing.T) {
	const B = windowBase
	at := func(ts ...int64) []event.Event {
		evs := make([]event.Event, len(ts))
		for i, ts := range ts {
			evs[i] = event.Event{Session: "edge", Syscall: "read", TimeEnterNS: ts, TimeExitNS: ts + 1}
		}
		return evs
	}
	tiered := openDurable(t, t.TempDir(), WithQueryCache(0))
	defer tiered.Close()
	mem := memStore(t)
	defer mem.Close()
	ctx := context.Background()
	for _, evs := range [][]event.Event{at(B-5000, B-100), at(B, B+1000)} {
		for _, st := range []*Store{tiered, mem} {
			if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
				t.Fatal(err)
			}
		}
		if err := tiered.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if float64(B-100) != float64(B) {
		t.Fatal("fixture: B-100 must share B's float64")
	}
	pruned := tiered.Telemetry().Counter(telemetry.MetricSegmentsPruned, "")
	for _, c := range []struct {
		q     Query
		times []int64
	}{
		{Must(Term(FieldSession, "edge"), timeRange(B, B+2000)), []int64{B, B + 1000}},
		{Must(Term(FieldSession, "edge"), timeRange(B-6000, B-100)), []int64{B - 5000, B - 100}},
	} {
		for name, st := range map[string]*Store{"durable": tiered, "memory": mem} {
			if n, err := st.Count(ctx, windowIndex, c.q); err != nil || n != len(c.times) {
				t.Fatalf("count(%s) = %d (%v) on the %s store, want %d", jsonOf(c.q), n, err, name, len(c.times))
			}
		}
		p0 := pruned.Value()
		resp, err := tiered.SearchEvents(ctx, windowIndex, SearchRequest{Query: c.q, Sort: []SortField{{Field: FieldTimeEnter}}, Size: -1})
		if err != nil || resp.Total != len(c.times) || len(resp.Hits) != len(c.times) {
			t.Fatalf("search(%s): total %d, %d hits (%v), want %d", jsonOf(c.q), resp.Total, len(resp.Hits), err, len(c.times))
		}
		for i, e := range resp.Hits {
			if e.TimeEnterNS != c.times[i] {
				t.Fatalf("search(%s): hit %d at %d, want %d", jsonOf(c.q), i, e.TimeEnterNS, c.times[i])
			}
		}
		if d := pruned.Value() - p0; d != 1 {
			t.Fatalf("search(%s) pruned %d segments, want 1", jsonOf(c.q), d)
		}
	}
}

// TestColdWindowCursorAcrossRetentionGap: retention drops a stale segment
// from the middle of the history and compaction then merges across the hole,
// leaving one segment with sparse row ids. Window queries select a subset of
// those rows, so the unsorted cursor's resume point is found among ids that
// are sparse twice over; every page must still continue exactly where the
// last ended.
func TestColdWindowCursorAcrossRetentionGap(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithRetention(time.Hour), WithQueryCache(0))
	defer st.Close()
	mem := memStore(t)
	defer mem.Close()
	now := time.Now().UnixNano()
	const rows = 30
	round := func(r int, at int64) []event.Event {
		evs := make([]event.Event, rows)
		for i := range evs {
			ts := at + int64(r)*1_000_000 + int64((i*7919)%rows)*1000 // a permutation: unsorted
			evs[i] = event.Event{Session: "win", Syscall: "read", RetVal: int64(r*100 + i), TimeEnterNS: ts, TimeExitNS: ts + 1}
		}
		return evs
	}
	ingest := func(r int, at int64, keep bool) {
		evs := round(r, at)
		if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
			t.Fatal(err)
		}
		if keep {
			if err := mem.BulkEvents(ctx, windowIndex, evs); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	recent := now - int64(time.Minute)
	ingest(0, recent, true)
	ingest(1, recent, true)
	ingest(2, now-3*int64(time.Hour), false) // stale: the sweep drops it
	if err := st.Compact(); err != nil {     // three segments: no merge, one drop
		t.Fatal(err)
	}
	ingest(3, recent, true)
	ingest(4, recent, true)
	if err := st.Compact(); err != nil { // rounds 0, 1, 3, 4 merge across the hole
		t.Fatal(err)
	}
	if segs := coldSegmentRows(t, st, windowIndex); len(segs) != 1 || segs[0] != 4*rows {
		t.Fatalf("fixture: segments %v, want one of %d rows", segs, 4*rows)
	}
	// Windows over the later part of rounds 3 and 4, beyond the hole. (An
	// unsorted cursor below the retention floor expires by design, so the
	// walk starts past it.)
	for _, q := range []Query{
		Must(Term(FieldSession, "win"), timeRange(recent+3*1_000_000+10_000, math.MaxInt64)),
		Must(Term(FieldSession, "win"), timeRange(recent+3*1_000_000+5_000, recent+4*1_000_000+20_000)),
	} {
		want, err := mem.Search(ctx, windowIndex, SearchRequest{Query: q, Size: -1})
		if err != nil || want.Total < 20 {
			t.Fatalf("control: %d rows (%v)", want.Total, err)
		}
		var walked []Document
		req := SearchRequest{Query: q, Size: 4}
		for {
			page, err := st.Search(ctx, windowIndex, req)
			if err != nil {
				t.Fatalf("page after %v: %v", req.SearchAfter, err)
			}
			if page.Total != want.Total {
				t.Fatalf("page after %v: total %d, want %d", req.SearchAfter, page.Total, want.Total)
			}
			walked = append(walked, page.Hits...)
			if page.NextAfter == nil {
				break
			}
			// The cursor names the last hit's absolute row id: the hole shifts
			// rounds 3 and 4 up by one round of ids.
			last := page.Hits[len(page.Hits)-1]
			rv := int(last[FieldRetVal].(int64))
			if gid, _ := intOf(page.NextAfter[0]); int(gid) != (rv/100)*rows+rv%100 {
				t.Fatalf("cursor %v after row ret_val=%d, want gid %d", page.NextAfter, rv, (rv/100)*rows+rv%100)
			}
			req.SearchAfter = page.NextAfter
		}
		if !reflect.DeepEqual(walked, want.Hits) {
			t.Fatalf("paged walk over sparse ids returned %d rows, control %d", len(walked), len(want.Hits))
		}
	}
}

// TestColdWindowConcurrentSearches runs many cold window searches at once:
// segment opens share the shard worker pool, and every response must still be
// the oracle's. Run under -race.
func TestColdWindowConcurrentSearches(t *testing.T) {
	tiered, mem, times := windowStores(t, 11, 9, 8, 80)
	fix, _ := mem.GetIndex(windowIndex)
	rng := rand.New(rand.NewSource(13))
	type ask struct {
		req  SearchRequest
		want string
	}
	asks := make([]ask, 24)
	for i := range asks {
		_, q := randomWindow(rng, times)
		req := SearchRequest{
			Query: q, Size: 5, Sort: []SortField{{Field: FieldTimeEnter}},
			Aggs: map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}},
		}
		asks[i] = ask{req, jsonOf(oracleSearch(fix, req))}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range asks {
				a := asks[(i+g*3)%len(asks)]
				got, err := tiered.Search(context.Background(), windowIndex, a.req)
				if err == nil && jsonOf(got) != a.want {
					err = errors.New("response diverged from the oracle")
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, ask %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
