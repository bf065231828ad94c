package store

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// numbered builds n events whose RetVal is their position past from.
func numbered(from, n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{Session: "s", Syscall: "write", RetVal: int64(from + i), TimeEnterNS: int64(from + i + 1)}
	}
	return evs
}

// checkRows requires r to hold exactly the rows numbered 0..n-1, through at
// and through the block walk, with every block full but the last.
func checkRows(t *testing.T, r *rows, n int) {
	t.Helper()
	if r.len() != n {
		t.Fatalf("len = %d, want %d", r.len(), n)
	}
	for i := 0; i < n; i++ {
		if got := r.at(i).RetVal; got != int64(i) {
			t.Fatalf("at(%d) = row %d", i, got)
		}
	}
	walked := 0
	for b, blk := range r.blocks {
		if b < len(r.blocks)-1 && len(blk) != blockRows {
			t.Fatalf("block %d of %d holds %d rows", b, len(r.blocks), len(blk))
		}
		for j := range blk {
			if blk[j].RetVal != int64(b<<blockShift+j) {
				t.Fatalf("block %d slot %d holds row %d", b, j, blk[j].RetVal)
			}
			walked++
		}
	}
	if walked != n {
		t.Fatalf("block walk saw %d rows, want %d", walked, n)
	}
}

func TestRowsAppendAdoptReset(t *testing.T) {
	var r rows
	checkRows(t, &r, 0)
	const n = 3*blockRows + 7
	evs := numbered(0, n)
	for i := range evs {
		r.append(&evs[i])
		if i == 0 || (i+1)%blockRows < 2 { // around every block boundary
			checkRows(t, &r, i+1)
		}
	}
	if len(r.blocks) != 4 {
		t.Fatalf("%d rows in %d blocks, want 4", n, len(r.blocks))
	}
	r.reset()
	checkRows(t, &r, 0)
	r.append(&evs[0])
	checkRows(t, &r, 1)

	for _, n := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 7} {
		// One spare slot past the page: an append after the adopt must extend
		// the rows, not write into the caller's array.
		page := numbered(0, n+1)
		page[n].RetVal = -1
		flat := page[:n]
		var a rows
		a.adopt(flat)
		checkRows(t, &a, n)
		if n > 0 && a.at(n-1) != &flat[n-1] {
			t.Fatalf("adopt(%d) copied its rows", n)
		}
		more := numbered(n, blockRows+3)
		for i := range more {
			a.append(&more[i])
		}
		checkRows(t, &a, n+len(more))
		if page[n].RetVal != -1 {
			t.Fatalf("append after adopt(%d) wrote into the adopted page", n)
		}
	}
}

// TestRowsPointersAreStable: a row pointer taken before the shard grows by
// many blocks still reads — and writes — the row the shard holds.
func TestRowsPointersAreStable(t *testing.T) {
	var r rows
	first := numbered(0, blockRows+5)
	for i := range first {
		r.append(&first[i])
	}
	held := make([]*event.Event, r.len())
	for i := range held {
		held[i] = r.at(i)
	}
	more := numbered(r.len(), 10_000)
	for i := range more {
		r.append(&more[i])
	}
	for i, p := range held {
		if p != r.at(i) || p.RetVal != int64(i) {
			t.Fatalf("row %d moved after 10 000 appends", i)
		}
	}
	checkRows(t, &r, len(first)+len(more))
}

// TestAddEventsAllocatesEachRowOnce is the regression guard for block
// storage: ingesting N rows must allocate about N rows of storage, where one
// flat slice per shard allocated (and zeroed) about five times that growing
// to N. The figure is row storage plus the posting lists, whose own growth is
// allowed for explicitly.
func TestAddEventsAllocatesEachRowOnce(t *testing.T) {
	const n, batchLen = 200_000, 512
	batch := numbered(0, batchLen)
	ix := NewIndexWithShards("alloc", 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for added := 0; added < n; added += batchLen {
		ix.AddEvents(batch[:min(batchLen, n-added)])
	}
	runtime.ReadMemStats(&after)
	if ix.Len() != n {
		t.Fatalf("ingested %d rows, want %d", ix.Len(), n)
	}
	// Five int32 posting entries per row, in lists append grows by a quarter
	// at a time: the series sums to at most five times their final size.
	const postingBytesPerRow = 5 * 4 * 5
	rowSize := float64(unsafe.Sizeof(event.Event{}))
	perRow := float64(after.TotalAlloc-before.TotalAlloc)/n - postingBytesPerRow
	t.Logf("%.0f bytes allocated per %v-byte row (%.2fx)", perRow, rowSize, perRow/rowSize)
	if perRow > 1.5*rowSize {
		t.Fatalf("ingest allocated %.0f bytes of row storage per row, over 1.5x the %v-byte row", perRow, rowSize)
	}
}

// TestCursorPagesWhileIngestCrossesBlocks pages a sorted cursor while a
// writer opens block after block in every shard (run under -race): each page
// must continue exactly where the last ended, and the walk must end having
// seen every row once.
func TestCursorPagesWhileIngestCrossesBlocks(t *testing.T) {
	const shards, total = 2, 2*3*blockRows + 100
	ix := NewIndexWithShards("paging", shards)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for from := 0; from < total; from += 100 {
			ix.AddEvents(numbered(from, min(100, total-from)))
		}
	}()
	req := SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 257}
	seen := 0
	for {
		// Sampled before the search, so a short page after it saw every row.
		writerDone := false
		select {
		case <-done:
			writerDone = true
		default:
		}
		res, err := ix.searchEventsCtx(context.Background(), req)
		if err != nil {
			t.Fatalf("page after row %d: %v", seen, err)
		}
		if res.NextAfter == nil && !writerDone {
			runtime.Gosched() // a short page carries no token: ask again
			continue
		}
		for _, e := range res.Hits {
			if e.RetVal != int64(seen) {
				t.Fatalf("page continued at row %d, want %d", e.RetVal, seen)
			}
			seen++
		}
		if res.NextAfter == nil {
			break
		}
		req.SearchAfter = res.NextAfter
	}
	if seen != total {
		t.Fatalf("cursor saw %d rows of %d", seen, total)
	}
	for s, c := range ix.ShardDocCounts() {
		if c <= 2*blockRows {
			t.Fatalf("shard %d holds %d rows: under three blocks", s, c)
		}
	}
}

// TestEventBatchPoolBounded: a recycled batch carries no reference to the
// rows it last held, and one grown past the keep bound is not recycled.
func TestEventBatchPoolBounded(t *testing.T) {
	bp := new([]event.Event)
	events := numbered(0, flushEvents)
	putEventBatch(bp, events)
	if len(*bp) != 0 || cap(*bp) != flushEvents {
		t.Fatalf("pooled batch len %d cap %d", len(*bp), cap(*bp))
	}
	for i, e := range (*bp)[:cap(*bp)] {
		if e != (event.Event{}) {
			t.Fatalf("pooled batch slot %d still holds %+v", i, e)
		}
	}
	big := new([]event.Event)
	putEventBatch(big, numbered(0, poolKeepFlushes*flushEvents+1))
	if *big != nil {
		t.Fatalf("a batch of %d events was pooled", cap(*big))
	}
}
