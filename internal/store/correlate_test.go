package store

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// conflictingAnchors builds open events for one tag with distinct paths and
// enter timestamps. The earliest open names the file; later opens model
// inode reuse after the original is deleted (§III-B).
func conflictingAnchors(tag string) []Document {
	return []Document{
		{"session": "s", "syscall": "openat", "file_tag": tag, "kernel_path": "/files/late", "time_enter_ns": int64(900)},
		{"session": "s", "syscall": "open", "file_tag": tag, "kernel_path": "/files/first", "time_enter_ns": int64(100)},
		{"session": "s", "syscall": "creat", "file_tag": tag, "kernel_path": "/files/mid", "time_enter_ns": int64(500)},
	}
}

// TestCorrelateDeterministicAnchor checks satellite 2: with several open
// anchors for one tag, the earliest FieldTimeEnter wins regardless of
// insertion order or shard count, so two correlation runs over the same
// events always build the same dictionary.
func TestCorrelateDeterministicAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 8; trial++ {
			st, ix := storeIndex(t, "det", WithShards(shards))
			docs := conflictingAnchors("1 42 7")
			// A tagged event with no path, to be resolved from the dictionary.
			docs = append(docs, Document{"session": "s", "syscall": "read", "file_tag": "1 42 7"})
			rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
			ix.AddEvents(docEvents(docs...))

			res := correlate(t, st, "det", "s")
			if res.TagsResolved != 1 {
				t.Fatalf("shards=%d trial=%d: tags = %d", shards, trial, res.TagsResolved)
			}
			resp := ix.Search(SearchRequest{Query: Term(FieldSyscall, "read")})
			if got := resp.Hits[0][FieldFilePath]; got != "/files/first" {
				t.Fatalf("shards=%d trial=%d: read resolved to %v, want earliest anchor /files/first",
					shards, trial, got)
			}
		}
	}
}

// TestCorrelateAnchorTieBreak checks the secondary ordering: equal enter
// timestamps fall back to the lexicographically smaller path.
func TestCorrelateAnchorTieBreak(t *testing.T) {
	st, ix := storeIndex(t, "tie")
	ix.AddEvents(docEvents(
		Document{"session": "s", "syscall": "open", "file_tag": "1 1 1", "kernel_path": "/b", "time_enter_ns": int64(100)},
		Document{"session": "s", "syscall": "open", "file_tag": "1 1 1", "kernel_path": "/a", "time_enter_ns": int64(100)},
		Document{"session": "s", "syscall": "write", "file_tag": "1 1 1"},
	))
	correlate(t, st, "tie", "s")
	resp := ix.Search(SearchRequest{Query: Term(FieldSyscall, "write")})
	if got := resp.Hits[0][FieldFilePath]; got != "/a" {
		t.Fatalf("tie broke to %v, want /a", got)
	}
}

// TestCorrelateFallbackAnchors checks satellite 1's second pass: a tag whose
// open was never captured still resolves when a non-open path-carrying event
// (stat, unlink) names it — but such an event never overrides an open anchor.
func TestCorrelateFallbackAnchors(t *testing.T) {
	st, ix := storeIndex(t, "fb")
	ix.AddEvents(docEvents(
		// Tag "1 2 1", the lost open: only a stat carries the path.
		Document{"session": "s", "syscall": "stat", "file_tag": "1 2 1", "kernel_path": "/via/stat", "time_enter_ns": int64(50)},
		Document{"session": "s", "syscall": "read", "file_tag": "1 2 1"},
		// Tag "1 3 1" has both: the stat is earlier, but the open anchor must win.
		Document{"session": "s", "syscall": "stat", "file_tag": "1 3 1", "kernel_path": "/wrong", "time_enter_ns": int64(10)},
		Document{"session": "s", "syscall": "openat", "file_tag": "1 3 1", "kernel_path": "/right", "time_enter_ns": int64(200)},
		Document{"session": "s", "syscall": "write", "file_tag": "1 3 1"},
	))
	res := correlate(t, st, "fb", "s")
	if res.TagsResolved != 2 {
		t.Fatalf("tags = %d, want 2", res.TagsResolved)
	}
	read := ix.Search(SearchRequest{Query: Term(FieldSyscall, "read")})
	if got := read.Hits[0][FieldFilePath]; got != "/via/stat" {
		t.Fatalf("fallback resolved to %v, want /via/stat", got)
	}
	write := ix.Search(SearchRequest{Query: Term(FieldSyscall, "write")})
	if got := write.Hits[0][FieldFilePath]; got != "/right" {
		t.Fatalf("open anchor overridden: got %v, want /right", got)
	}
}

// assertClosedAccounting checks satellite 3's invariant: every tagged event
// lands in exactly one outcome bucket.
func assertClosedAccounting(t *testing.T, res CorrelationResult) {
	t.Helper()
	if got := res.EventsUpdated + res.EventsUnresolved + res.EventsAlreadyResolved; got != res.EventsWithTag {
		t.Fatalf("accounting leak: updated %d + unresolved %d + already %d = %d, want with-tag %d",
			res.EventsUpdated, res.EventsUnresolved, res.EventsAlreadyResolved, got, res.EventsWithTag)
	}
}

func TestCorrelateClosedAccounting(t *testing.T) {
	st, ix := storeIndex(t, "events")
	ix.AddEvents(docFixture())
	ix.AddEvents(docEvents(Document{"session": "s1", "syscall": "read", "file_tag": "1 99 1", "ret_val": int64(5)}))

	res := correlate(t, st, "events", "s1")
	assertClosedAccounting(t, res)
	if res.EventsAlreadyResolved != 0 {
		t.Fatalf("first run already-resolved = %d, want 0", res.EventsAlreadyResolved)
	}

	// Second run: the 4 previously updated docs show up as already-resolved,
	// the orphan stays unresolved, and the books still close.
	res2 := correlate(t, st, "events", "s1")
	assertClosedAccounting(t, res2)
	if res2.EventsUpdated != 0 || res2.EventsAlreadyResolved != 4 || res2.EventsUnresolved != 1 {
		t.Fatalf("second run = %+v", res2)
	}
}

// TestCorrelateDuringLiveIndexing runs the correlation pass concurrently
// with live bulk indexing into the same index — the paper's near-real-time
// pipeline (§II-E). Under -race this is the satellite-4 regression test; in
// any mode the final pass must resolve everything index-time races left
// behind, with closed accounting throughout.
func TestCorrelateDuringLiveIndexing(t *testing.T) {
	st := memStore(t)
	// Correlation may start before the first bulk: create the index empty.
	if err := st.BulkEvents(context.Background(), "run-live", nil); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const batches = 25
	const perBatch = 20

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				docs := make([]Document, 0, perBatch+1)
				tag := fmt.Sprintf("1 %d %d", w, b)
				path := fmt.Sprintf("/live/w%d/b%d", w, b)
				docs = append(docs, Document{
					"session": "live", "syscall": "openat",
					"file_tag": tag, "kernel_path": path,
					"time_enter_ns": int64(w*batches+b) * 1000,
				})
				for i := 1; i < perBatch; i++ {
					docs = append(docs, Document{"session": "live", "syscall": "write", "file_tag": tag})
				}
				if err := st.BulkEvents(context.Background(), "run-live", docEvents(docs...)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		res, err := st.Correlate(context.Background(), "run-live", "live")
		if err != nil {
			t.Fatal(err)
		}
		assertClosedAccounting(t, res)
		select {
		case <-done:
			// Quiesced: one more pass must leave nothing unresolved.
			final, err := st.Correlate(context.Background(), "run-live", "live")
			if err != nil {
				t.Fatal(err)
			}
			assertClosedAccounting(t, final)
			if final.EventsUnresolved != 0 {
				t.Fatalf("final pass left %d unresolved", final.EventsUnresolved)
			}
			if final.EventsWithTag != writers*batches*perBatch {
				t.Fatalf("with-tag = %d, want %d", final.EventsWithTag, writers*batches*perBatch)
			}
			return
		default:
		}
	}
}

// TestCorrelateWhileIngestingReplaysExactly runs correlation passes on a
// durable index while another goroutine bulks tagged rows into it. A row
// placed while a pass is walking the shards sits before that pass's paths
// record in the log but at or past its horizon: live it stays unresolved
// until the next pass, and replay — which meets the record after the row —
// must leave it to that pass too. Every batch re-opens the three files
// earlier than any batch before it and under a new name, so each pass pairs
// the tags with different paths and which pass named a row shows in the row:
// the recovered index equals the live one only if the horizon is journaled.
// Run under -race.
func TestCorrelateWhileIngestingReplaysExactly(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(4), WithFsyncPolicy(FsyncOff))
	ctx := context.Background()
	const batches, perBatch = 120, 96
	batch := func(b int) []event.Event {
		evs := withTags(cursorFixture(perBatch))
		for i := range evs {
			evs[i].Session = "live"
			evs[i].TimeEnterNS -= int64(b) * 1_000_000
			evs[i].TimeExitNS -= int64(b) * 1_000_000
			if evs[i].KernelPath != "" {
				evs[i].KernelPath = fmt.Sprintf("/gen%d%s", b, evs[i].KernelPath)
			}
		}
		return evs
	}
	if err := st.BulkEvents(ctx, crashIndex, batch(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 1; b < batches; b++ {
			if err := st.BulkEvents(ctx, crashIndex, batch(b)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	passes := 0
	for ingesting := true; ingesting; passes++ {
		select {
		case <-done:
			ingesting = false // one pass may still have raced the last batches
		default:
		}
		res, err := st.Correlate(ctx, crashIndex, "live")
		if err != nil {
			t.Fatal(err)
		}
		assertClosedAccounting(t, res)
	}
	<-done
	ix, _ := st.GetIndex(crashIndex)
	if n := ix.Len(); n != batches*perBatch {
		t.Fatalf("ingested %d rows, want %d", n, batches*perBatch)
	}
	want := fingerprint(t, st)
	named, err := st.Count(ctx, crashIndex, Exists(FieldFilePath))
	if err != nil || named == 0 {
		t.Fatalf("%d rows named after %d passes (%v)", named, passes, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		n, _ := re.Count(ctx, crashIndex, Exists(FieldFilePath))
		t.Fatalf("recovered index diverged from the live one: %d rows named live, %d after replay (%d passes)", named, n, passes)
	}
}

// TestPathBookHoldsEachRecordOnce: recovery meets a record twice when a
// manifest committed since (by compaction or retention) carries it and the
// live WAL still holds it, and the book must keep one. Horizon and session
// alone do not identify a record: a pass whose harvest raced ingest can be
// followed, with no row placed in between, by one that pairs more tags.
func TestPathBookHoldsEachRecordOnce(t *testing.T) {
	pair := func(ino uint64, path string) event.PathPair {
		return event.PathPair{Tag: event.FileTag{Dev: 1, Ino: ino, BirthNS: 1}, Path: path}
	}
	first := event.PathsRecord{H: 100, Session: "s", Pairs: []event.PathPair{pair(1, "/a")}}
	again := event.PathsRecord{H: 100, Session: "s", Pairs: []event.PathPair{pair(1, "/a")}}
	wider := event.PathsRecord{H: 100, Session: "s", Pairs: []event.PathPair{pair(1, "/a"), pair(2, "/b")}}
	var d indexDurable
	for _, rec := range []event.PathsRecord{first, again, wider, first} {
		d.addToBook(rec)
	}
	if book := d.paths(); len(book) != 2 || len(book[0].Pairs) != 1 || len(book[1].Pairs) != 2 {
		t.Fatalf("book = %+v; want the first record once, then the wider one", book)
	}
}
