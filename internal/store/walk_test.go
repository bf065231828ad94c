package store

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// walkShapes is the sorted shapes a walk reads the orderedBatches fixture
// by, query and sort alone (a walk sets its own From, Size and SearchAfter):
// exact walks (match-all, a term, a term in a time window, a term absent from
// all shards but one, a term holding every row), non-exact ones (a terms
// list, term ∧ terms ∧ window, session ∧ syscall, a must_not, a term beside
// the bool it ignores), asc and desc on time; and the candidate path, under a
// session term: a sort on a field some rows lack, multi-key sorts, a string
// slot, file_tag, has_offset, dev_no and a field the schema lacks.
func walkShapes() []SearchRequest {
	var out []SearchRequest
	for _, q := range []Query{
		MatchAll(),
		Term(FieldSession, "s1"),
		Must(Term(FieldSyscall, "read"), RangeBetween(FieldTimeEnter, orderBase+20_000, orderBase+90_000)),
		Term(FieldProcName, "rare"),
		Term(FieldClass, "io"),
		Terms(FieldSyscall, "write", "fsync"),
		Must(Term(FieldSession, "s1"), Terms(FieldSyscall, "read", "write"), RangeBetween(FieldTimeEnter, orderBase+20_000, orderBase+90_000)),
		Must(Term(FieldSession, "s0"), Term(FieldSyscall, "write")),
		MustNot(Term(FieldSyscall, "read")),
		{Term: Term(FieldSession, "s1").Term, Bool: MustNot(Term(FieldSession, "s1")).Bool},
	} {
		for _, desc := range []bool{false, true} {
			out = append(out, SearchRequest{Query: q, Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}})
		}
	}
	for _, desc := range []bool{false, true} {
		for _, sorts := range [][]SortField{
			{{Field: FieldCount, Desc: desc}},
			{{Field: FieldCount, Desc: desc}, {Field: FieldTimeEnter, Desc: !desc}},
			{{Field: FieldSyscall, Desc: desc}, {Field: FieldTimeEnter}},
			{{Field: FieldFileTag, Desc: desc}},
			{{Field: FieldHasOffset, Desc: desc}},
			{{Field: FieldDevNo, Desc: desc}, {Field: FieldTimeEnter, Desc: desc}},
			{{Field: "no_such_field", Desc: desc}},
		} {
			out = append(out, SearchRequest{Query: Term(FieldSession, "s1"), Sort: sorts})
		}
	}
	return out
}

// collect walks req through walk and returns a copy of every event it yields.
func collect(t *testing.T, walk func(fn func(*event.Event)) error) []event.Event {
	t.Helper()
	var out []event.Event
	if err := walk(func(e *event.Event) { out = append(out, *e) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// eachRowEvents is EachRow yielding each row unpacked, for collect.
func eachRowEvents(ctx context.Context, b Backend, index string, req SearchRequest, size int) func(fn func(*event.Event)) error {
	return func(fn func(*event.Event)) error {
		var e event.Event
		return EachRow(ctx, b, index, req, size, func(r Row) {
			r.Event(&e)
			fn(&e)
		})
	}
}

// TestEachRowMatchesPagedWalk: on a *Store, EachRow reads each page in
// place, and must yield exactly the events EachEventPage yields through the
// same store's SearchEvents and through a Client over HTTP, for every sorted
// shape, asc and desc, at page sizes 1, 7 and 1000, on 1, 4 and 16 shards:
// over hot rows alone, and over a durable store whose first half is a
// resident cold segment. It must count one search per page and put no page
// in the query cache. Beside the ordered batches the fixture holds sub-ulp
// rows, 3 ns apart and shuffled, one half cold and the other hot, and a time
// sorted walk over HTTP must come out in exact (time, gid) order.
func TestEachRowMatchesPagedWalk(t *testing.T) {
	ctx := context.Background()
	batches := orderedBatches(240, 16)
	ulp := subUlpRows(orderBase+150_000, 64, 7)
	batches = append(slices.Insert(batches, len(batches)/2, ulp[:32]), ulp[32:])
	gid := int64(0)
	for _, b := range batches {
		for i := range b {
			b[i].RetVal, gid = gid, gid+1
		}
	}
	shapes := walkShapes()
	for _, shards := range []int{1, 4, 16} {
		mem := memStore(t, WithShards(shards))
		dur := openDurable(t, t.TempDir(), WithShards(shards), WithFsyncPolicy(FsyncOff))
		t.Cleanup(func() { mem.Close(); dur.Close() })
		for i, b := range batches {
			for _, st := range []*Store{mem, dur} {
				if err := st.BulkEvents(ctx, "walk", b); err != nil {
					t.Fatal(err)
				}
			}
			if i == len(batches)/2 {
				if err := dur.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ix, _ := dur.GetIndex("walk"); coldRows(ix) == 0 {
			t.Fatal("the durable store holds no cold rows")
		}
		for name, st := range map[string]*Store{"hot": mem, "cold+hot": dur} {
			srv := httptest.NewServer(NewServer(st))
			client := NewClient(srv.URL)
			for _, req := range shapes {
				for _, size := range []int{1, 7, 1000} {
					paged := func(b Backend) func(fn func(*event.Event)) error {
						return func(fn func(*event.Event)) error {
							return EachEventPage(ctx, b, "walk", req, size, func(p EventsResult) error {
								for i := range p.Hits {
									fn(&p.Hits[i])
								}
								return nil
							})
						}
					}
					want := collect(t, paged(st))
					overHTTP := collect(t, paged(client))
					searches, puts := st.tm.searches.Value(), st.tm.cacheMisses.Value()
					got := collect(t, eachRowEvents(ctx, st, "walk", req, size))
					at := fmt.Sprintf("shards=%d %s %+v size %d", shards, name, req, size)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: EachRow yielded %d rows, EachEventPage %d events, or in another order", at, len(got), len(want))
					}
					if !reflect.DeepEqual(overHTTP, want) {
						t.Fatalf("%s: EachEventPage over HTTP yielded %d events, in process %d, or in another order", at, len(overHTTP), len(want))
					}
					for i := 1; i < len(overHTTP) && len(req.Sort) == 1 && req.Sort[0].Field == FieldTimeEnter; i++ {
						a, b := &overHTTP[i-1], &overHTTP[i]
						if a.TimeEnterNS == b.TimeEnterNS && a.RetVal > b.RetVal || a.TimeEnterNS != b.TimeEnterNS && (a.TimeEnterNS > b.TimeEnterNS) != req.Sort[0].Desc {
							t.Fatalf("%s: over HTTP, (t=%d, gid %d) came after (t=%d, gid %d)", at, b.TimeEnterNS, b.RetVal, a.TimeEnterNS, a.RetVal)
						}
					}
					if pages := uint64(len(want)/size + 1); st.tm.searches.Value()-searches != pages {
						t.Fatalf("%s: EachRow counted %d searches, want %d pages", at, st.tm.searches.Value()-searches, pages)
					}
					if n := st.tm.cacheMisses.Value() - puts; n != 0 {
						t.Fatalf("%s: EachRow put %d pages in the query cache", at, n)
					}
				}
			}
			srv.Close()
		}
	}
}

// TestEachRowPageIsOneCut: a page of EachRow is read under the page's
// read locks. While fn blocks mid-page, a concurrent BulkEvents waits; it
// completes once the page ends, before the next page takes its locks. So the
// page fn was in sees none of the batch, and every later page sees all of
// it that sorts past the cursor. A ctx cancelled during a page ends the walk
// with ctx.Err() once that page is read, before the next one.
func TestEachRowPageIsOneCut(t *testing.T) {
	const rows, page = 64, 16
	ctx := context.Background()
	st := memStore(t, WithShards(4))
	t.Cleanup(func() { st.Close() })
	mk := func(times ...int64) []event.Event {
		evs := make([]event.Event, len(times))
		for i, ts := range times {
			evs[i] = event.Event{Session: "s", Syscall: "read", TimeEnterNS: ts, TimeExitNS: ts + 1}
		}
		return evs
	}
	// The stored rows at even times, the batch at every other odd time, so
	// the batch has rows on both sides of every page boundary.
	var stored, batch []int64
	for i := int64(0); i < rows; i++ {
		stored = append(stored, 2*i)
		if i%2 == 0 {
			batch = append(batch, 2*i+1)
		}
	}
	if err := st.BulkEvents(ctx, "cut", mk(stored...)); err != nil {
		t.Fatal(err)
	}
	req := SearchRequest{Query: Term(FieldSession, "s"), Sort: []SortField{{Field: FieldTimeEnter}}}

	done := make(chan error, 1)
	var got []int64
	var bulkEarly, bulkLate bool
	err := EachRow(ctx, st, "cut", req, page, func(r Row) {
		switch len(got) {
		case page / 2:
			go func() { done <- st.BulkEvents(ctx, "cut", mk(batch...)) }()
			select {
			case <-done:
				bulkEarly = true
			case <-time.After(50 * time.Millisecond):
			}
		case page:
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(10 * time.Second):
				bulkLate = true
			}
		}
		got = append(got, r.TimeEnterNS())
	})
	if err != nil {
		t.Fatal(err)
	}
	if bulkEarly {
		t.Fatal("the bulk completed while fn held a page")
	}
	if bulkLate {
		t.Fatal("the bulk had not completed when the next page began")
	}
	// The first page: stored rows only. Then every row past its last.
	want := append([]int64(nil), stored[:page]...)
	for _, ts := range append(stored[page:], batch...) {
		if ts > want[page-1] {
			want = append(want, ts)
		}
	}
	slices.Sort(want[page:])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk saw times\n%v\nwant\n%v", got, want)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := 0
	err = EachRow(cctx, st, "cut", req, page, func(Row) {
		if n++; n == page+1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || n != 2*page {
		t.Fatalf("cancelled on page 2: err %v after %d events, want %v after %d", err, n, context.Canceled, 2*page)
	}
}

// TestEachRowAllocsFlat: a walk runs every page on one searchExec, so it
// allocates its page memory once: a walk of one session's 10 000 rows, its
// runs built by a warm-up walk, allocates its one window of pageSize refs
// and, besides, the same bytes within slack at page sizes 100 and 1 000
// (100 and 10 pages) and at 1, 4 and 16 stripes. The slack is the walk's
// memory for 15 more stripes' entries, sources and results, about 4.5 KB
// once. A page that allocated its own window, sources, results, read view,
// merge tree or cursor token cost the walk that per page: at 16 stripes,
// tens of kilobytes over 100 pages. The fan is outside the bar: the test
// holds every shardSem slot, so each pass runs on the walk's goroutine, as
// it does whenever the store's helpers are busy; a pass that has helpers
// pays the go statements that start them.
func TestEachRowAllocsFlat(t *testing.T) {
	const rows, walks, slack = 20_000, 5, 8 << 10
	ctx := context.Background()
	evs := make([]event.Event, rows)
	for i := range evs {
		evs[i] = event.Event{Session: fmt.Sprintf("s%d", i%2), Syscall: "read", TimeEnterNS: orderBase + int64(i)*1000}
	}
	req := SearchRequest{Query: Term(FieldSession, "s1"), Sort: []SortField{{Field: FieldTimeEnter}}}
	for range cap(shardSem) {
		shardSem <- struct{}{}
	}
	defer func() {
		for range cap(shardSem) {
			<-shardSem
		}
	}()
	var lo, hi int64
	for _, shards := range []int{1, 4, 16} {
		st := memStore(t, WithShards(shards))
		if err := st.BulkEvents(ctx, "walk", evs); err != nil {
			t.Fatal(err)
		}
		for _, page := range []int{100, 1000} {
			walk := func() {
				n := 0
				if err := EachRow(ctx, st, "walk", req, page, func(Row) { n++ }); err != nil || n != rows/2 {
					t.Fatalf("%d stripes, page %d: walked %d rows, %v", shards, page, n, err)
				}
			}
			walk()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range walks {
				walk()
			}
			runtime.ReadMemStats(&after)
			b := int64(after.TotalAlloc-before.TotalAlloc)/walks - int64(page)*int64(unsafe.Sizeof(hitRef{}))
			t.Logf("%d stripes, page %d: %d B beside the window", shards, page, b)
			if lo == 0 && hi == 0 {
				lo, hi = b, b
			}
			lo, hi = min(lo, b), max(hi, b)
		}
		st.Close()
	}
	if hi-lo > slack {
		t.Fatalf("beside its window a walk allocates %d to %d B across page sizes and stripes, want a spread of at most %d", lo, hi, slack)
	}
}
