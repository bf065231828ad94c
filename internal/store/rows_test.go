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
// and through the blocks, in as many whole blocks as n rows need.
func checkRows(t *testing.T, r *rows, n int) {
	t.Helper()
	if r.len() != n {
		t.Fatalf("len = %d, want %d", r.len(), n)
	}
	if want := (n + blockRows - 1) / blockRows; len(r.blocks) != want {
		t.Fatalf("%d rows in %d blocks, want %d", n, len(r.blocks), want)
	}
	for i := 0; i < n; i++ {
		if got := r.at(i).RetVal; got != int64(i) {
			t.Fatalf("at(%d) = row %d", i, got)
		}
		if blk := r.blocks[i>>blockShift]; len(blk) != blockRows || blk[i&(blockRows-1)].RetVal != int64(i) {
			t.Fatalf("block %d of %d rows, slot %d, does not hold row %d", i>>blockShift, len(blk), i&(blockRows-1), i)
		}
	}
}

// addNumbered appends rows numbered from..from+n-1 to r.
func addNumbered(r *rows, from, n int) {
	for i := from; i < from+n; i++ {
		r.add().RetVal = int64(i)
	}
}

// TestRowsAppendAcrossBlocks: rows land in order across block boundaries,
// every block full but the last, and an emptied rows starts over.
func TestRowsAppendAcrossBlocks(t *testing.T) {
	var r rows
	checkRows(t, &r, 0)
	const n = 3*blockRows + 7
	for i := 0; i < n; i++ {
		addNumbered(&r, i, 1)
		if i == 0 || (i+1)%blockRows < 2 { // around every block boundary
			checkRows(t, &r, i+1)
		}
	}
	if len(r.blocks) != 4 {
		t.Fatalf("%d rows in %d blocks, want 4", n, len(r.blocks))
	}
	r = rows{}
	checkRows(t, &r, 0)
	addNumbered(&r, 0, 1)
	checkRows(t, &r, 1)
}

// TestRowsPointersAreStable: a row pointer taken before the shard grows by
// many blocks still reads — and writes — the row the shard holds.
func TestRowsPointersAreStable(t *testing.T) {
	var r rows
	addNumbered(&r, 0, blockRows+5)
	held := make([]*hotRow, r.len())
	for i := range held {
		held[i] = r.at(i)
	}
	addNumbered(&r, r.len(), 10_000)
	for i, p := range held {
		if p != r.at(i) || p.RetVal != int64(i) {
			t.Fatalf("row %d moved after 10 000 appends", i)
		}
	}
	checkRows(t, &r, len(held)+10_000)
}

// TestAddEventsAllocatesEachRowOnce is the regression guard for block
// storage: ingesting N rows must allocate about N packed rows of storage,
// where one flat slice per shard allocated (and zeroed) about five times that
// growing to N. The figure is row storage plus the posting lists, whose own growth is
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
	rowSize := float64(unsafe.Sizeof(hotRow{}))
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

// eventAt returns local row id of sh unpacked. Caller holds at least the read
// lock.
func (sh *shard) eventAt(id int) *event.Event {
	var e event.Event
	w := sh.row(int32(id))
	w.Event(&e)
	return &e
}

// postingOf returns term's posting list in the indexed field.
func (sh *shard) postingOf(field, term string) []int32 {
	ids, _ := sh.posting(field, term)
	return ids
}
