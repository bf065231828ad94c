package store

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// orderBase is an epoch-scale stamp (2023-06-26): float64's ulp there is
// 256 ns, so distinct times a few ns apart would compare equal as floats. The
// runs, the cursor and the oracle compare them as the integers they are.
const orderBase = 1_687_800_000_000_000_000

// orderedBatches is the ordered walk's adversary: n rows in batches of
// batch, from two streams whose times overlap, their batches alternating as
// two drain workers ship them, so most batches sort partly before rows
// already stored. Each stream's times mostly advance by less than a float64
// ulp (several distinct times per float64 value, each ordered exactly),
// sometimes repeat exactly, and sometimes step back a little. Rows carry their global id in RetVal (the
// batches are ingested in order by one writer), about one in eight lacks
// count, the rows at gids ≡ 0 (mod 3) lack offset, those at gids ≡ 1 (mod 4)
// hold a file tag (one of 39, over three devices) and the rest none, and
// fsync is rare, so a Term on it is a sparse match. Every row is of class
// "io", and the rows at gids ≡ 3 (mod 160) run as proc "rare": on 4 or 16
// shards filled from gid 0 that term is absent from all shards but one.
func orderedBatches(n, batch int) [][]event.Event {
	rng := rand.New(rand.NewSource(26))
	syscalls := []string{"read", "read", "write", "openat", "close", "read", "write", "lseek"}
	streams := [2][]event.Event{}
	for w := range streams {
		t := int64(orderBase)
		for i := 0; i < n/2; i++ {
			switch r := rng.Intn(10); {
			case r < 2: // the previous stamp again, exactly
			case r < 8:
				t += int64(rng.Intn(120))
			case r < 9:
				t -= int64(rng.Intn(600))
			default:
				t += int64(rng.Intn(3000))
			}
			e := event.Event{
				Session:     fmt.Sprintf("s%d", rng.Intn(2)),
				Syscall:     syscalls[rng.Intn(len(syscalls))],
				Class:       "io",
				PID:         100 + w,
				TID:         200 + w,
				ProcName:    "app",
				ThreadName:  fmt.Sprintf("drain%d", w),
				TimeEnterNS: t,
				TimeExitNS:  t + 700,
			}
			if rng.Intn(8) > 0 {
				e.Count = rng.Intn(64) * 512
			}
			if rng.Intn(30) == 0 {
				e.Syscall = "fsync"
			}
			streams[w] = append(streams[w], e)
		}
	}
	var out [][]event.Event
	gid := 0
	for i := 0; i < n/2; i += batch {
		for w := range streams {
			b := append([]event.Event(nil), streams[w][i:min(i+batch, n/2)]...)
			for j := range b {
				b[j].RetVal = int64(gid)
				if gid%3 != 0 {
					b[j].Offset, b[j].HasOffset = int64(gid%37)*512, true
				}
				if gid%160 == 3 {
					b[j].ProcName = "rare"
				}
				if gid%4 == 1 {
					b[j].FileTag = event.FileTag{Dev: uint64(8 + gid%3), Ino: uint64(100 + gid%13), BirthNS: 5}
				}
				gid++
			}
			out = append(out, b)
		}
	}
	return out
}

// subUlpBase is an epoch-scale stamp in 2023, where float64's ulp is 256 ns.
const subUlpBase = int64(1_697_000_000_000_000_000)

// subUlpRows returns n rows 3 ns apart from at, in a seeded shuffle: about
// 85 distinct times share each float64, and nearly every row is ingested out
// of time order beside rows that share its float. Sessions alternate s0 and
// s1, and syscalls read and write.
func subUlpRows(at int64, n int, seed int64) []event.Event {
	evs := make([]event.Event, n)
	for i, r := range rand.New(rand.NewSource(seed)).Perm(n) {
		ts := at + int64(r)*3
		evs[i] = event.Event{
			Session: fmt.Sprintf("s%d", i%2), Syscall: []string{"read", "write"}[i/2%2], Class: "io",
			PID: 100, TID: 200, ProcName: "app", ThreadName: "drain0", Count: 512,
			TimeEnterNS: ts, TimeExitNS: ts + 700,
		}
	}
	return evs
}

// checkOracle runs req on st and fails unless total, hits, next_after and
// aggregations equal the oracle's answer over ix.
func checkOracle(t *testing.T, st *Store, index string, ix *Index, req SearchRequest) SearchResponse {
	t.Helper()
	got, err := st.Search(context.Background(), index, req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	want := oracleSearch(ix, req)
	if got.Total != want.Total || !reflect.DeepEqual(got.Hits, want.Hits) || !reflect.DeepEqual(got.NextAfter, want.NextAfter) {
		t.Fatalf("%+v:\n got total %d, %d hits, next %v\nwant total %d, %d hits, next %v",
			req, got.Total, len(got.Hits), got.NextAfter, want.Total, len(want.Hits), want.NextAfter)
	}
	if !reflect.DeepEqual(got.Aggs, want.Aggs) {
		t.Fatalf("%+v:\n got aggs %v\nwant aggs %v", req, got.Aggs, want.Aggs)
	}
	return got
}

// orderCovers reports whether every hot shard of ix holding rows has an
// all-rows run over field covering all of them.
func orderCovers(ix *Index, field string) bool {
	for _, sh := range ix.shards {
		sh.mu.RLock()
		r, n := sh.runs[runKey{field: field}], sh.rows.len()
		ok := n == 0 || (r != nil && r.len() == n)
		sh.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
}

// walkCovers reports whether sh, read-locked by the caller, holds what a
// page of req walks, covering every row it must: its term's run, or the
// all-rows run.
func walkCovers(sh *shard, req SearchRequest) bool {
	_, ok := sh.walkList(sortWalkOf(req, compileQuery(req.Query)))
	return ok || sh.rows.len() == 0
}

// hotWalkCovers reports whether every hot shard of ix holds what a page of
// req walks.
func hotWalkCovers(ix *Index, req SearchRequest) bool {
	for _, sh := range ix.shards {
		sh.mu.RLock()
		ok := walkCovers(sh, req)
		sh.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
}

// coldWalkCovers reports whether every cold segment of ix is resident with
// what a page of req walks.
func coldWalkCovers(ix *Index, req SearchRequest) bool {
	rs := &ix.dur.resident
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, sm := range ix.coldSegments() {
		e := rs.bySeq[sm.Seq]
		if e == nil {
			return false
		}
		e.cs.sh.mu.RLock()
		ok := walkCovers(e.cs.sh, req)
		e.cs.sh.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
}

// TestSortedCursorMatchesOracle follows the runs sorted pages read, at 1, 4
// and 16 shards, paging the time order of every row, a session's run and a
// session ∧ syscall walked through it, asc and desc, and a sort on count,
// each page equal to the oracle's: on an in-memory store, where the pages
// build the time order and count, which some rows lack, gets a nil one; on
// one whose first stripe holds a row its run lacks while the others walk
// (checkUnlistedStripe); and on a durable one, compared with an in-memory
// mirror of the same rows, that takes the next batch after every page and
// snapshots after every other one. A snapshot drops every hot run, rebuilt
// on the next page over the rows ingested since; a batch taken without one
// extends them in place, and as the two streams interleave it sorts partly
// before rows already in them. Every durable page is read twice, filling
// the resident cold segments and then walking their runs.
func TestSortedCursorMatchesOracle(t *testing.T) {
	var reqs []SearchRequest
	for _, q := range []Query{MatchAll(), Term(FieldSession, "s1"), Must(Term(FieldSession, "s0"), Term(FieldSyscall, "write"))} {
		for _, desc := range []bool{false, true} {
			reqs = append(reqs, SearchRequest{Query: q, Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, Size: 211})
		}
	}
	reqs = append(reqs, SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldCount}}, Size: 211})
	batches := genBatches(rand.New(rand.NewSource(26)), 1600)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			mem := memStore(t, WithShards(shards))
			t.Cleanup(func() { mem.Close() })
			for _, b := range batches {
				if err := mem.BulkEvents(ctx, "ord", b); err != nil {
					t.Fatal(err)
				}
			}
			ix, _ := mem.GetIndex("ord")
			for _, req := range reqs {
				for p := 0; p < 8; p++ {
					got := checkOracle(t, mem, "ord", ix, req)
					if got.NextAfter == nil {
						break
					}
					req.SearchAfter = got.NextAfter
				}
			}
			if !orderCovers(ix, FieldTimeEnter) {
				t.Fatal("no shard built the time order")
			}
			if shards > 1 {
				for _, q := range []Query{Term(FieldSession, "s1"), Must(Term(FieldSession, "s1"), Term(FieldSyscall, "write"))} {
					for _, desc := range []bool{false, true} {
						checkUnlistedStripe(t, shards, batches, SearchRequest{Query: q, Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, From: 3, Size: 40})
					}
				}
			}
			if r, built := ix.shards[0].runs[runKey{field: FieldCount}]; !built || r != nil {
				t.Fatalf("count, which some rows lack: all-rows run %v (built %v), want a nil one", r, built)
			}

			// The durable arm: half the batches up front, then a snapshot and
			// one more batch between every two pages. Each page is read twice:
			// the first read fills the resident set with the segment the last
			// snapshot wrote, the second is served from it.
			mirror := memStore(t, WithShards(shards))
			dur := openDurable(t, t.TempDir(), WithShards(shards), WithFsyncPolicy(FsyncOff), WithQueryCache(0))
			t.Cleanup(func() { mirror.Close(); dur.Close() })
			durBatches := genBatches(rand.New(rand.NewSource(8)), 1600)
			next, pages := 0, 0
			feed := func() {
				if next == len(durBatches) {
					return
				}
				for _, st := range []*Store{mirror, dur} {
					if err := st.BulkEvents(ctx, "ord", durBatches[next]); err != nil {
						t.Fatal(err)
					}
				}
				next++
			}
			for next < len(durBatches)/2 {
				feed()
			}
			mix, _ := mirror.GetIndex("ord")
			dix, _ := dur.GetIndex("ord")
			for _, req := range reqs {
				for p := 0; p < 3; p++ {
					got := checkOracle(t, dur, "ord", mix, req)
					checkOracle(t, dur, "ord", mix, req)
					if req.Sort[0].Field == FieldTimeEnter && !hotWalkCovers(dix, req) {
						t.Fatalf("%+v page %d: the hot shards' time order or run was not rebuilt", req, p)
					}
					// An unbounded query opens every cold segment.
					if req.Sort[0].Field == FieldTimeEnter && !coldWalkCovers(dix, req) {
						t.Fatalf("%+v page %d: a cold segment was not resident with its time order or run", req, p)
					}
					if pages++; pages%2 == 0 {
						if err := dur.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
					feed()
					if got.NextAfter == nil {
						break
					}
					req.SearchAfter = got.NextAfter
				}
			}
			if coldRows(dix) == 0 {
				t.Fatal("the durable arm never paged over cold rows")
			}
		})
	}
}

// checkUnlistedStripe runs one page of req, which walks the session s1's
// run, over a fresh in-memory index of batches on shards stripes, with a row
// of s1 landing on stripe 0 after the page's ensureRuns has passed it and
// before the page read-locks the stripes: the test holds the last stripe's
// write lock until the runs of all the others are built. Stripe 0's run is
// then one row short, so it takes the candidate path while the others walk,
// and the merge interleaves the two kinds of source. The page must equal the
// oracle's.
func checkUnlistedStripe(t *testing.T, shards int, batches [][]event.Event, req SearchRequest) {
	t.Helper()
	ix := NewIndexWithShards("unlisted", shards)
	n := 0
	for _, b := range batches {
		ix.AddEvents(slices.Clone(b))
		n += len(b)
	}
	if n%shards != 0 {
		t.Fatalf("%d rows on %d stripes: the next row would not land on stripe 0", n, shards)
	}
	walk := sortWalkOf(req, compileQuery(req.Query))
	key := runKey{walk.field, walk.term}
	last := ix.shards[shards-1]
	last.mu.Lock()
	done := make(chan SearchResponse)
	go func() { done <- ix.Search(req) }()
	for built := false; !built; runtime.Gosched() {
		built = true
		for _, sh := range ix.shards[:shards-1] {
			sh.mu.RLock()
			_, ok := sh.runs[key]
			sh.mu.RUnlock()
			built = built && ok
		}
	}
	first := ix.shards[0]
	first.mu.Lock()
	first.addEventLocked(&event.Event{Session: "s1", Syscall: "write", Class: "io", ProcName: "app", TimeEnterNS: orderBase + 50_000, RetVal: int64(n)})
	ix.rr.Add(1)
	first.mu.Unlock()
	last.mu.Unlock()
	got := <-done
	first.mu.RLock()
	short := len(first.runs[key].ids) < len(first.postingOf(FieldSession, "s1"))
	first.mu.RUnlock()
	if !short {
		t.Fatalf("%+v: stripe 0's run covers the late row", req)
	}
	want := oracleSearch(ix, req)
	if got.Total != want.Total || !reflect.DeepEqual(got.Hits, want.Hits) || !reflect.DeepEqual(got.NextAfter, want.NextAfter) {
		t.Fatalf("%+v on %d shards, stripe 0 unlisted:\n got total %d, %d hits, next %v\nwant total %d, %d hits, next %v",
			req, shards, got.Total, len(got.Hits), got.NextAfter, want.Total, len(want.Hits), want.NextAfter)
	}
}

// TestSortedCursorUnderIngestAndEviction pages a durable index by time, asc
// and desc, while one writer appends the rest of the generated batches
// (genBatches), which sort partly before rows already stored, and
// snapshots evict the hot rows every few batches. Each walk must be strictly
// ordered by (time, gid) — RetVal carries the gid — and gap-free: it visits
// every row ingested before it started, exactly once. Once the writer stops,
// a full walk must equal the oracle's over an in-memory mirror.
func TestSortedCursorUnderIngestAndEviction(t *testing.T) {
	batches := genBatches(rand.New(rand.NewSource(26)), 3000)
	gid := int64(0)
	for _, b := range batches {
		for i := range b {
			b[i].RetVal, gid = gid, gid+1
		}
	}
	ctx := context.Background()
	mirror := memStore(t, WithShards(4))
	dur := openDurable(t, t.TempDir(), WithShards(4), WithFsyncPolicy(FsyncOff))
	t.Cleanup(func() { mirror.Close(); dur.Close() })
	var fed atomic.Int64
	feed := func(b []event.Event) error {
		for _, st := range []*Store{mirror, dur} {
			if err := st.BulkEvents(ctx, "ord", b); err != nil {
				return err
			}
		}
		fed.Add(int64(len(b)))
		return nil
	}
	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := feed(b); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, b := range batches[half:] {
			err := feed(b)
			if err == nil && i%4 == 3 {
				err = dur.Snapshot()
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Cleanups run last-in first-out: the writer stops before the stores close.
	t.Cleanup(func() { <-done })
	walk := func(desc bool) {
		before := int(fed.Load())
		seen := make([]bool, 3000)
		var lastT int64
		lastG := int64(-1)
		req := SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}}
		err := EachEventPage(ctx, dur, "ord", req, 53, func(page EventsResult) error {
			for i := range page.Hits {
				e := &page.Hits[i]
				tf, g := e.TimeEnterNS, e.RetVal
				if seen[g] {
					return fmt.Errorf("gid %d seen twice", g)
				}
				seen[g] = true
				if lastG >= 0 && (tf == lastT && g <= lastG || tf != lastT && (tf < lastT) != desc) {
					return fmt.Errorf("(%v, %d) after (%v, %d), desc=%v", tf, g, lastT, lastG, desc)
				}
				lastT, lastG = tf, g
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < before; g++ {
			if !seen[g] {
				t.Fatalf("desc=%v: gid %d, ingested before the walk, was skipped", desc, g)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		walk(false)
		walk(true)
	}
	ix, _ := mirror.GetIndex("ord")
	for _, desc := range []bool{false, true} {
		req := SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, Size: 211}
		for {
			got := checkOracle(t, dur, "ord", ix, req)
			if got.NextAfter == nil {
				break
			}
			req.SearchAfter = got.NextAfter
		}
	}
}

// TestSubUlpRowsPageInExactTimeOrder is the oracle case of the store's
// integer domain: 240 rows 3 ns apart, shuffled, so that about 85 share each
// float64 and nearly every one is ingested out of time order. Paged by time,
// asc and desc, at page sizes 1, 7 and 1000, every page of the node equals
// the oracle's, and a walk visits every row once in strictly monotone time,
// on the node and through a *Client over HTTP; at 1, 4 and 16 shards, over
// hot rows and over a durable store whose first half is a cold segment. A
// range from 50 ns past the base counts exactly the rows at or past it, in
// process, through the Client, and as a JSON body.
func TestSubUlpRowsPageInExactTimeOrder(t *testing.T) {
	const n = 240
	ctx := context.Background()
	rows := subUlpRows(subUlpBase, n, 41)
	for i := range rows {
		rows[i].RetVal = (rows[i].TimeEnterNS - subUlpBase) / 3 // the row's rank in time
	}
	from := subUlpBase + 50
	const fromRows = n - 17 // ranks 17 and up, at base+51 and later
	byTime := func(desc bool) SearchRequest {
		return SearchRequest{Query: Term(FieldClass, "io"), Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}}
	}
	for _, shards := range []int{1, 4, 16} {
		mem := memStore(t, WithShards(shards))
		dur := openDurable(t, t.TempDir(), WithShards(shards), WithFsyncPolicy(FsyncOff))
		t.Cleanup(func() { mem.Close(); dur.Close() })
		for at := 0; at < n; at += 40 {
			for _, st := range []*Store{mem, dur} {
				if err := st.BulkEvents(ctx, "ulp", rows[at:at+40]); err != nil {
					t.Fatal(err)
				}
			}
			if at+40 == n/2 {
				if err := dur.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		ix, _ := mem.GetIndex("ulp")
		if dix, _ := dur.GetIndex("ulp"); coldRows(dix) != n/2 {
			t.Fatalf("shards=%d: %d cold rows, want %d", shards, coldRows(dix), n/2)
		}
		for name, st := range map[string]*Store{"hot": mem, "cold+hot": dur} {
			srv := httptest.NewServer(NewServer(st))
			client := NewClient(srv.URL)
			for _, desc := range []bool{false, true} {
				for _, size := range []int{1, 7, 1000} {
					req := byTime(desc)
					req.Size = size
					for {
						got := checkOracle(t, st, "ulp", ix, req)
						if got.NextAfter == nil {
							break
						}
						req.SearchAfter = got.NextAfter
					}
					for arm, b := range map[string]Backend{"node": st, "client": client} {
						next := 0
						err := EachEventPage(ctx, b, "ulp", byTime(desc), size, func(p EventsResult) error {
							for _, e := range p.Hits {
								want := int64(next)
								if desc {
									want = n - 1 - want
								}
								if e.RetVal != want {
									return fmt.Errorf("hit %d is rank %d (t=%d), want rank %d", next, e.RetVal, e.TimeEnterNS, want)
								}
								next++
							}
							return nil
						})
						if err != nil || next != n {
							t.Fatalf("shards=%d %s %s desc=%v size %d: %d rows walked (%v), want %d", shards, name, arm, desc, size, next, err, n)
						}
					}
				}
			}
			q := Query{Range: &RangeQuery{Field: FieldTimeEnter, GTE: &from}}
			for arm, b := range map[string]Backend{"node": st, "client": client} {
				if c, err := b.Count(ctx, "ulp", q); err != nil || c != fromRows {
					t.Fatalf("shards=%d %s %s: count from base+50 = %d (%v), want %d", shards, name, arm, c, err, fromRows)
				}
			}
			resp, err := http.Post(srv.URL+"/ulp/_count", "application/json",
				strings.NewReader(fmt.Sprintf(`{"range":{"field":"time_enter_ns","gte":%d}}`, from)))
			if err != nil {
				t.Fatal(err)
			}
			var c struct{ Count int }
			err = json.NewDecoder(resp.Body).Decode(&c)
			resp.Body.Close()
			if err != nil || c.Count != fromRows {
				t.Fatalf("shards=%d %s: JSON count from base+50 = %d (%v), want %d", shards, name, c.Count, err, fromRows)
			}
			srv.Close()
		}
	}
}

// TestSortedPageAllocsFlat guards against quadratic paging: over a 100k-row
// session, the 90th 1 000-hit page of the sorted pass the diagnosis engine
// issues allocates exactly what the 1st does. A page that re-tested every
// match against the cursor through the boxed document value allocated one
// value per row before the cursor.
func TestSortedPageAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row session; skipped in -short")
	}
	ctx := context.Background()
	st := memStore(t, WithShards(4), WithQueryCache(0))
	t.Cleanup(func() { st.Close() })
	evs := make([]event.Event, 100_000)
	for i := range evs {
		ts := int64(orderBase) + int64(i)*25_000
		evs[i] = event.Event{Session: "s", Syscall: "read", PID: 1, TID: 2, TimeEnterNS: ts, TimeExitNS: ts + 900}
	}
	for i := 0; i < len(evs); i += 5_000 {
		if err := st.BulkEvents(ctx, "alloc", evs[i:i+5_000]); err != nil {
			t.Fatal(err)
		}
	}
	first := SearchRequest{Query: Term(FieldSession, "s"), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 1000}
	page := func(req SearchRequest) func() {
		return func() {
			if res, err := st.SearchEvents(ctx, "alloc", req); err != nil || len(res.Hits) != 1000 {
				t.Fatalf("page: %d hits, %v", len(res.Hits), err)
			}
		}
	}
	ninetieth := first
	for p := 1; p < 90; p++ {
		res, err := st.SearchEvents(ctx, "alloc", ninetieth)
		if err != nil {
			t.Fatal(err)
		}
		ninetieth.SearchAfter = res.NextAfter
	}
	if a, b := testing.AllocsPerRun(20, page(first)), testing.AllocsPerRun(20, page(ninetieth)); a != b {
		t.Fatalf("allocs per page: 1st %v, 90th %v", a, b)
	}
}

// termRunWant returns the posting list of session on sh sorted by (time,
// id), the order the session's run must hold.
func termRunWant(sh *shard, session string) []int32 {
	ids := slices.Clone(sh.postingOf(FieldSession, session))
	slices.SortFunc(ids, func(a, b int32) int {
		if r := cmp.Compare(sh.rows.at(int(a)).TimeEnterNS, sh.rows.at(int(b)).TimeEnterNS); r != 0 {
			return r
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// TestTermRunLifecycle follows one shard's run of a session term through the
// ensureRuns of the pages that read it: sorted from the posting list when
// the session holds some of the rows, with no all-rows run built; extended in
// place by rows appended since, some sorting before its last entry, as two
// drain workers interleave; none while the session holds every row, when the
// page walks the all-rows run; and dropped, with every other run, by
// evictLocked. Each time the page's list must be the session's rows in
// (time, id) order.
func TestTermRunLifecycle(t *testing.T) {
	sh := newShard()
	add := func(session string, times ...int64) {
		for _, d := range times {
			sh.addEventLocked(&event.Event{Session: session, Syscall: "read", TimeEnterNS: orderBase + d})
		}
	}
	req := SearchRequest{Query: Term(FieldSession, "a"), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 10}
	q := compileQuery(req.Query)
	walk := sortWalkOf(req, q)
	page := func(step string) {
		t.Helper()
		sh.ensureRuns(rangeFields(q), walk)
		l, ok := sh.walkList(walk)
		if !ok {
			t.Fatalf("%s: the page has no list", step)
		}
		if want := termRunWant(sh, "a"); !slices.Equal(l.ids, want) {
			t.Fatalf("%s: the page walks %v, want %v", step, l.ids, want)
		}
		for i, id := range l.ids {
			if want := sh.rows.at(int(id)).TimeEnterNS; l.at(i) != want {
				t.Fatalf("%s: entry %d (row %d) holds %v, want %v", step, i, id, l.at(i), want)
			}
		}
	}

	add("a", 5000, 1000, 3000, 3000, 9000)
	add("b", 2000, 4000)
	page("first page")
	if _, ok := sh.runs[runKey{FieldTimeEnter, termKey{FieldSession, "a"}}]; !ok || len(sh.runs) != 1 {
		t.Fatalf("first page: %d runs, want the session's alone", len(sh.runs))
	}

	// Appended rows, two of them tied at 3000 with rows already in the run:
	// the merge must place them after those, in id order.
	add("b", 100)
	add("a", 3000, 8000, 200, 9500, 3000)
	page("after an out-of-order append")
	if got := len(sh.runs[runKey{FieldTimeEnter, termKey{FieldSession, "a"}}].ids); got != 10 {
		t.Fatalf("run holds %d entries, want 10", got)
	}

	// A term whose rows lack the sort field (no row here has a count) has no
	// run to walk, and is not read again for one.
	byCount := SearchRequest{Query: Term(FieldSession, "a"), Sort: []SortField{{Field: FieldCount}}, Size: 10}
	sh.ensureRuns(rangeFields(q), sortWalkOf(byCount, q))
	if run, built := sh.runs[runKey{FieldCount, termKey{FieldSession, "a"}}]; !built || run != nil {
		t.Fatalf("a term lacking the field: run %v (built %v), want a nil one", run, built)
	}
	if _, ok := sh.walkList(sortWalkOf(byCount, q)); ok {
		t.Fatal("a term lacking the field has a list to walk")
	}

	sh.evictLocked()
	if sh.runs != nil {
		t.Fatal("eviction kept the runs")
	}
	add("a", 700, 600)
	page("one session after eviction")
	if _, ok := sh.runs[runKey{field: FieldTimeEnter}]; !ok || len(sh.runs) != 1 {
		t.Fatalf("a session holding every row: %d runs; want the all-rows run alone", len(sh.runs))
	}
	add("b", 650)
	page("a second session after eviction")
}

// TestSessionPageWalksOnlyItsSession: on a shard holding eight sessions
// interleaved in time, a page of one session's time-sorted pass, asc or desc,
// from the start or from a cursor, walks that session's run and nothing
// else. The match list is never consulted, so every row walked is a hit and
// the merge reads at most one row past the page; positioning the walk
// allocates nothing, no bitmap of the session; and each hit's key is its
// row's time. A page that also asks for some syscalls, as the file-pattern
// detectors' do, walks the same run and keeps the rows it matches.
func TestSessionPageWalksOnlyItsSession(t *testing.T) {
	const sessions, rows, need = 8, 4000, 50
	syscalls := []string{"read", "write", "openat"}
	sh := newShard()
	for i := 0; i < rows; i++ {
		sh.addEventLocked(&event.Event{Session: fmt.Sprintf("s%d", i%sessions), Syscall: syscalls[i%3], TimeEnterNS: orderBase + int64(i)*1000})
	}
	want := termRunWant(sh, "s3")
	e := &readEntry{sh: sh, S: 1}
	noIDs := func() []int32 {
		t.Fatal("the page consulted the match list")
		return nil
	}
	// page walks one page of req and returns the local ids of its hits.
	page := func(req SearchRequest, getIDs func() []int32, tested bool) []int32 {
		t.Helper()
		q := compileQuery(req.Query)
		exec := &searchExec{req: req, q: q, need: need, walk: sortWalkOf(req, q)}
		if ok, err := exec.cursor.parse(req); err != nil {
			t.Fatal(err)
		} else if ok {
			exec.cur = &exec.cursor
		}
		sh.ensureRuns(rangeFields(q), exec.walk)
		l, listed := sh.walkList(exec.walk)
		if !listed || exec.walk.exact == tested || l.len() != rows/sessions {
			t.Fatalf("%+v: listed %v, exact %v, a list of %d rows; want the session's %d", req.Query, listed, exec.walk.exact, l.len(), rows/sessions)
		}
		src, walked := e.pageWalk(exec, l, listed, getIDs)
		if !walked {
			t.Fatalf("%+v: not walked", req.Query)
		}
		if !tested {
			if a := testing.AllocsPerRun(20, func() { e.pageWalk(exec, l, listed, getIDs) }); a != 0 {
				t.Fatalf("%+v: positioning a walk makes %v allocations, want 0", req.Query, a)
			}
		}
		srcs := []hitSource{src}
		before := srcs[0].bound()
		hits := new(pageMerge).mergePage(srcs, resolveSorts(req.Sort), 0, need)
		if read := before - srcs[0].bound(); !tested && read > need+1 {
			t.Fatalf("%+v: the merge read %d rows of the run for a page of %d", req.Query, read, need)
		}
		ids := make([]int32, len(hits))
		for i, h := range hits {
			ids[i] = int32(h.gid)
			if k := sh.rows.at(h.gid).TimeEnterNS; !h.keyOK || h.key != k || h.sh != sh || int(h.id) != h.gid {
				t.Fatalf("%+v: hit %d (row %d) has key %v (%v), want %v", req.Query, i, h.gid, h.key, h.keyOK, k)
			}
		}
		return ids
	}
	for _, desc := range []bool{false, true} {
		for _, resume := range []int{-1, 137} {
			req := SearchRequest{Query: Term(FieldSession, "s3"), Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, Size: need}
			exp := slices.Clone(want)
			if desc {
				slices.Reverse(exp)
			}
			if resume >= 0 {
				id := exp[resume]
				req.SearchAfter = []any{sh.rows.at(int(id)).TimeEnterNS, int(id)}
				exp = exp[resume+1:]
			}
			if got := page(req, noIDs, false); !slices.Equal(got, exp[:need]) {
				t.Fatalf("desc=%v resume=%d: hits %v; want %v", desc, resume, got, exp[:need])
			}
		}

		req := SearchRequest{Query: Must(Term(FieldSession, "s3"), Terms(FieldSyscall, "read", "write")), Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, Size: need}
		var exp []int32
		for _, id := range want {
			if sh.eventAt(int(id)).Syscall != "openat" {
				exp = append(exp, id)
			}
		}
		if desc {
			slices.Reverse(exp)
		}
		if got := page(req, func() []int32 { return sh.matchIDs(compileQuery(req.Query)) }, true); !slices.Equal(got, exp[:need]) {
			t.Fatalf("desc=%v, session and syscalls: hits %v; want %v", desc, got, exp[:need])
		}
	}
}

// TestSortedPageAllocatesItsRefsOnce: a whole page of one session's
// time-sorted pass, through searchShards, allocates its need refs once, and
// about the same bytes at 1, 4 and 16 shards: the merge pulls the page from
// the entries' walks and no entry materialises a page of its own, which
// cost shards × need refs.
func TestSortedPageAllocatesItsRefsOnce(t *testing.T) {
	const sessions, rows, need, runs = 8, 32_000, 1000, 20
	refBytes := need * int(unsafe.Sizeof(hitRef{}))
	evs := make([]event.Event, rows)
	for i := range evs {
		evs[i] = event.Event{Session: fmt.Sprintf("s%d", i%sessions), Syscall: "read", TimeEnterNS: orderBase + int64(i)*1000}
	}
	for _, shards := range []int{1, 4, 16} {
		ix := NewIndexWithShards("alloc", shards)
		ix.AddEvents(evs)
		req := SearchRequest{Query: Term(FieldSession, "s3"), Sort: []SortField{{Field: FieldTimeEnter}}, Size: need, SearchAfter: []any{int64(orderBase + 8_003_000), 8003}}
		page := func() {
			err := ix.searchShards(context.Background(), &searchExec{req: req}, nil, func(refs []hitRef, _ int, _ map[string]*AggPartial) {
				if len(refs) != need {
					t.Fatalf("%d shards: a page of %d refs, want %d", shards, len(refs), need)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		page()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			page()
		}
		runtime.ReadMemStats(&after)
		if b := int(after.TotalAlloc-before.TotalAlloc) / runs; b < refBytes || b > refBytes+refBytes/4 {
			t.Fatalf("%d shards: a page allocates %d B, want its %d B of refs and at most %d B more", shards, b, refBytes, refBytes/4)
		}
	}
}

// TestStringSortedPageAllocatesAsNumeric: a sort on a string field compares
// its keys as the strings the rows hold, boxing nothing. A 200-hit page of
// one session's rows, 10 000 of 20 000 on 4 shards, sorted by (syscall,
// time) or by (file_path, time desc), first and resumed by cursor, allocates
// within a small constant of the same page sorted by (count, time), whose
// keys are integers.
func TestStringSortedPageAllocatesAsNumeric(t *testing.T) {
	const rows, size, slack = 20_000, 200, 8
	syscalls := []string{"read", "write", "openat", "lseek", "close"}
	evs := make([]event.Event, rows)
	for i := range evs {
		evs[i] = event.Event{
			Session: fmt.Sprintf("s%d", i%2), Syscall: syscalls[i%5], Count: 512 * (1 + i%7),
			FilePath: fmt.Sprintf("/data/%02d.sst", i%16), TimeEnterNS: orderBase + int64(i)*1000,
		}
	}
	ix := NewIndexWithShards("alloc", 4)
	if err := ix.AddEvents(evs); err != nil {
		t.Fatal(err)
	}
	allocs := func(sorts ...SortField) (first, resumed float64) {
		req := SearchRequest{Query: Term(FieldSession, "s1"), Sort: sorts, Size: size}
		page := func() {
			if res := ix.SearchEvents(req); len(res.Hits) != size {
				t.Fatalf("%v: a page of %d hits, want %d", sorts, len(res.Hits), size)
			}
		}
		first = testing.AllocsPerRun(5, page)
		req.SearchAfter = ix.SearchEvents(req).NextAfter
		return first, testing.AllocsPerRun(5, page)
	}
	numFirst, numResumed := allocs(SortField{Field: FieldCount}, SortField{Field: FieldTimeEnter})
	for _, sorts := range [][]SortField{
		{{Field: FieldSyscall}, {Field: FieldTimeEnter}},
		{{Field: FieldFilePath}, {Field: FieldTimeEnter, Desc: true}},
	} {
		first, resumed := allocs(sorts...)
		t.Logf("%v: %v allocs a page, %v resumed; (count, time) %v and %v", sorts, first, resumed, numFirst, numResumed)
		if first > numFirst+slack || resumed > numResumed+slack {
			t.Errorf("%v: a page allocates %v, resumed %v, past (count, time)'s %v and %v by more than %d",
				sorts, first, resumed, numFirst, numResumed, slack)
		}
	}
}

// TestColdReadLocksHeldThroughMerge: a search holds every cold entry's read
// lock until its merge has walked the entries' lists and copied their rows,
// while a page's first read of a term builds its runs on the segments under
// their write locks. A search opens, and so builds on, every cold entry
// before it takes any cold read lock, then takes them in one order, so no
// two searches wait on each other. Raced, four readers page two sessions and
// five syscalls by four sort fields over two resident segments and the hot
// stripes, each rotated so that one reader's first page of a term builds
// while the others hold the segments through their merges; every page must
// equal the oracle's over an in-memory mirror.
func TestColdReadLocksHeldThroughMerge(t *testing.T) {
	ctx := context.Background()
	mirror := memStore(t, WithShards(4))
	dur := openDurable(t, t.TempDir(), WithShards(4), WithFsyncPolicy(FsyncOff), WithQueryCache(0))
	t.Cleanup(func() { mirror.Close(); dur.Close() })
	batches := genBatches(rand.New(rand.NewSource(26)), 2400)
	for i, b := range batches {
		for _, st := range []*Store{mirror, dur} {
			if err := st.BulkEvents(ctx, "ord", b); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(batches)/3 || i == 2*len(batches)/3 {
			if err := dur.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	mix, _ := mirror.GetIndex("ord")
	dix, _ := dur.GetIndex("ord")
	if len(dix.coldSegments()) != 2 {
		t.Fatalf("%d cold segments, want 2", len(dix.coldSegments()))
	}
	var reqs []SearchRequest
	terms := []Query{Term(FieldSession, "s0"), Term(FieldSession, "s1"), Term(FieldSyscall, "read"), Term(FieldSyscall, "write"),
		Term(FieldSyscall, "openat"), Term(FieldSyscall, "stat"), Term(FieldSyscall, "<nil>")}
	for i, q := range terms {
		for _, f := range []string{FieldTimeEnter, FieldTimeExit, FieldRetVal, FieldTID} {
			req := SearchRequest{Query: q, Sort: []SortField{{Field: f, Desc: i%2 == 1}}, Size: 97}
			if f == FieldTimeExit {
				req.Aggs = map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: FieldThreadName}}}
			}
			reqs = append(reqs, req)
		}
	}
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := range reqs {
				req := reqs[(k+r*len(reqs)/readers)%len(reqs)]
				for {
					got, err := dur.Search(ctx, "ord", req)
					if err != nil {
						t.Error(err)
						return
					}
					want := oracleSearch(mix, req)
					if got.Total != want.Total || !reflect.DeepEqual(got.Hits, want.Hits) || !reflect.DeepEqual(got.NextAfter, want.NextAfter) || !reflect.DeepEqual(got.Aggs, want.Aggs) {
						t.Errorf("%+v: got total %d, %d hits; want total %d, %d hits", req, got.Total, len(got.Hits), want.Total, len(want.Hits))
						return
					}
					if got.NextAfter == nil {
						break
					}
					req.SearchAfter = got.NextAfter
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestMatchIDsTimeOrderedWindowAllocatesNothing: on a shard whose rows
// arrived in time order, as a cold segment's do, a session's time window is a
// window of the all-rows time run that is already in id order, and matchIDs
// hands it back as it is, allocating nothing. Rows that arrived out of time
// order still come back ascending, and exactly the window's.
func TestMatchIDsTimeOrderedWindowAllocatesNothing(t *testing.T) {
	const rows = 4000
	for _, ordered := range []bool{true, false} {
		rng := rand.New(rand.NewSource(1))
		sh := newShard()
		for i := 0; i < rows; i++ {
			k := int64(i)
			if !ordered {
				k = int64(rng.Intn(rows))
			}
			sh.addEventLocked(&event.Event{Session: "s", Syscall: "read", TimeEnterNS: orderBase + k*1000})
		}
		all := compileQuery(MatchAll())
		sh.ensureRuns(nil, sortWalkOf(SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 10}, all))
		lo, hi := int64(orderBase+1000*1000), int64(orderBase+1500*1000)
		q := compileQuery(Must(Term(FieldSession, "s"), timeRange(lo, hi)))
		var want []int32
		for id := int32(0); id < rows; id++ {
			if ts := sh.row(id).r.TimeEnterNS; ts >= lo && ts <= hi {
				want = append(want, id)
			}
		}
		if got := sh.matchIDs(q); !slices.Equal(got, want) {
			t.Fatalf("ordered=%v: matched %d ids, want %d", ordered, len(got), len(want))
		}
		if a := testing.AllocsPerRun(20, func() { sh.matchIDs(q) }); ordered && a != 0 {
			t.Fatalf("a time-ordered window makes %v allocations, want 0", a)
		}
	}
}
