package store

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// orderBase is an epoch-scale stamp (2023-06-26): float64's ulp there is
// 256 ns, so distinct int64 times a few ns apart compare equal through the
// columns, the cursor and the oracle alike.
const orderBase = 1_687_800_000_000_000_000

// orderedBatches is the ordered walk's adversary: n rows in batches of
// batch, from two streams whose times overlap, their batches alternating as
// two drain workers ship them, so most batches sort partly before rows
// already stored. Each stream's times mostly advance by less than the ulp
// (several distinct times per float64 value), sometimes repeat exactly, and
// sometimes step back a little. Rows carry their global id in RetVal (the
// batches are ingested in order by one writer), about one in eight lacks
// count, and fsync is rare, so a Term on it is a sparse match.
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
				gid++
			}
			out = append(out, b)
		}
	}
	return out
}

// orderedRequests is the sorted matrix the walk and the candidate path must
// both answer as the oracle does: asc and desc on time_enter_ns over a
// match-all, a term and a bool(term, time window) query at page sizes 1, 7
// and 1000 (with and without from); a sparse term; and count, which some
// rows lack, so its column never gets an order.
func orderedRequests() []SearchRequest {
	var out []SearchRequest
	queries := []Query{
		MatchAll(),
		Term(FieldSession, "s1"),
		Must(Term(FieldSyscall, "read"), RangeBetween(FieldTimeEnter, orderBase+20_000, orderBase+90_000)),
		Term(FieldSyscall, "fsync"),
	}
	for _, q := range queries {
		for _, desc := range []bool{false, true} {
			for _, size := range []int{1, 7, 1000} {
				out = append(out, SearchRequest{Query: q, Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, Size: size})
			}
			out = append(out, SearchRequest{Query: q, Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}, From: 5, Size: 7})
		}
	}
	for _, desc := range []bool{false, true} {
		out = append(out, SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldCount, Desc: desc}}, Size: 7})
		out = append(out, SearchRequest{Query: Term(FieldSession, "s0"), Sort: []SortField{{Field: FieldCount, Desc: desc}}, Size: 1000})
	}
	return out
}

// tieCursor returns a search_after token for the time sort that lies inside
// a run of at least three equal float64 times: its row has an equal
// neighbour on both sides in (time, gid) order.
func tieCursor(t *testing.T, ix *Index) []any {
	t.Helper()
	rows, base := oracleRows(ix)
	at := func(r int) float64 { f, _ := numeric(rows[r][FieldTimeEnter]); return f }
	ord := make([]int, len(rows))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(i, j int) bool { return at(ord[i]) < at(ord[j]) })
	for k := 1; k+1 < len(ord); k++ {
		if at(ord[k-1]) == at(ord[k]) && at(ord[k]) == at(ord[k+1]) && at(ord[k]) > orderBase {
			return []any{at(ord[k]), float64(base + ord[k])}
		}
	}
	t.Fatal("fixture has no tie run of three")
	return nil
}

// checkOracle runs req on st and fails unless total, hits and next_after
// equal the oracle's answer over ix.
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
	return got
}

// orderCovers reports whether every hot shard of ix holding rows has an
// order over field covering all of them.
func orderCovers(ix *Index, field string) bool {
	for _, sh := range ix.shards {
		sh.mu.RLock()
		c, n := sh.cols[field], sh.rows.len()
		ok := n == 0 || (c != nil && c.order != nil && len(c.order) == n)
		sh.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
}

// TestSortedCursorMatchesOracle pages every request of the sorted matrix —
// from the start, and from a cursor inside a tie run — and requires every
// page to equal the oracle's own cursor at 1, 4 and 16 shards: on an
// in-memory store, and on a durable one that snapshots between pages (which
// drops every hot column and its order, rebuilt on the next page over the
// rows ingested since) and takes the next batch, compared with an in-memory
// mirror of the same rows.
func TestSortedCursorMatchesOracle(t *testing.T) {
	batches := orderedBatches(1600, 32)
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
			tie := tieCursor(t, ix)
			maxPages := map[int]int{1: 6, 7: 12, 1000: 3}
			for _, req := range orderedRequests() {
				for _, resume := range []bool{false, true} {
					if resume && req.From > 0 {
						continue
					}
					if resume {
						// count ties in runs of whole multiples of 512.
						req.SearchAfter = tie
						if req.Sort[0].Field == FieldCount {
							req.SearchAfter = []any{float64(1024), tie[1]}
						}
					}
					for p := 0; p < maxPages[req.Size]; p++ {
						got := checkOracle(t, mem, "ord", ix, req)
						if got.NextAfter == nil {
							break
						}
						req.From, req.SearchAfter = 0, got.NextAfter
					}
				}
			}
			if !orderCovers(ix, FieldTimeEnter) {
				t.Fatal("no shard built the time order")
			}
			if c := ix.shards[0].cols[FieldCount]; c == nil || c.order != nil {
				t.Fatal("count, which some rows lack, has an order")
			}

			// The durable arm: half the batches up front, then a snapshot and
			// one more batch between every two pages.
			mirror := memStore(t, WithShards(shards))
			dur := openDurable(t, t.TempDir(), WithShards(shards), WithFsyncPolicy(FsyncOff))
			t.Cleanup(func() { mirror.Close(); dur.Close() })
			next := 0
			feed := func() {
				if next == len(batches) {
					return
				}
				for _, st := range []*Store{mirror, dur} {
					if err := st.BulkEvents(ctx, "ord", batches[next]); err != nil {
						t.Fatal(err)
					}
				}
				next++
			}
			for next < len(batches)/2 {
				feed()
			}
			mix, _ := mirror.GetIndex("ord")
			dix, _ := dur.GetIndex("ord")
			for _, req := range orderedRequests() {
				if req.Size == 1 {
					continue
				}
				for p := 0; p < 3; p++ {
					got := checkOracle(t, dur, "ord", mix, req)
					if req.Sort[0].Field == FieldTimeEnter && !orderCovers(dix, FieldTimeEnter) {
						t.Fatalf("%+v page %d: the hot shards' time order was not rebuilt", req, p)
					}
					if err := dur.Snapshot(); err != nil {
						t.Fatal(err)
					}
					feed()
					if got.NextAfter == nil {
						break
					}
					req.From, req.SearchAfter = 0, got.NextAfter
				}
			}
			if dix.coldRows.Load() == 0 {
				t.Fatal("the durable arm never paged over cold rows")
			}
		})
	}
}

// TestSortedCursorUnderIngestAndEviction pages a durable index by time, asc
// and desc, while one writer appends the rest of the out-of-order batches and
// snapshots evict the hot rows every few batches. Each walk must be strictly
// ordered by (time, gid) — RetVal carries the gid — and gap-free: it visits
// every row ingested before it started, exactly once. Once the writer stops,
// a full walk must equal the oracle's over an in-memory mirror.
func TestSortedCursorUnderIngestAndEviction(t *testing.T) {
	batches := orderedBatches(3000, 40)
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
		var lastT float64
		lastG := int64(-1)
		req := SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}}
		err := EachEventPage(ctx, dur, "ord", req, 53, func(page EventsResult) error {
			for i := range page.Hits {
				e := &page.Hits[i]
				tf, g := float64(e.TimeEnterNS), e.RetVal
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
