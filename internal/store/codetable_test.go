package store

import (
	"context"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// TestCodeTableFollowsDictionaryGeneration: a code means nothing without its
// dictionary's generation. A table resolves a stripe's syscall codes and a
// page shard's; then the stripe's dictionaries are re-made (evictLocked) and
// the page shard's restart (reuse), and rows are added again whose strings
// take the same codes in another order. Every id the table gives must still
// name its row's string, and one string must have one id on every shard.
func TestCodeTableFollowsDictionaryGeneration(t *testing.T) {
	tab := NewCodeTable(FieldSyscall)
	ids := map[string]int32{}
	check := func(label string, shs ...*shard) {
		t.Helper()
		for _, sh := range shs {
			for i := range sh.rows.len() {
				w := sh.row(int32(i))
				id := tab.ID(w)
				if got := tab.Name(id); got != w.Syscall() {
					t.Fatalf("%s: row %d's syscall %q has id %d, which names %q", label, i, w.Syscall(), id, got)
				}
				if prev, ok := ids[w.Syscall()]; ok && prev != id {
					t.Fatalf("%s: %q has ids %d and %d", label, w.Syscall(), prev, id)
				}
				ids[w.Syscall()] = id
			}
		}
	}
	add := func(sh *shard, syscalls ...string) {
		for _, s := range syscalls {
			sh.addEventLocked(&event.Event{Session: "s", Syscall: s})
		}
	}
	stripe, page := newShard(), newShard()
	add(stripe, "read", "write", "openat", "read")
	add(page, "close", "read")
	check("first", stripe, page)
	stripe.evictLocked()
	add(stripe, "openat", "read", "write", "fsync")
	check("the stripe evicted", stripe, page)
	page.reuse()
	add(page, "read", "close", "lseek")
	check("the page shard reused", page, stripe)
	page.reuse()
	add(page, "lseek", "write")
	check("the page shard reused twice", page)
}

// TestCodeTableStaysFlatOverDecodedPages: a cold segment over the resident
// budget is decoded into a new shard on every page of a walk, so a walk of
// many pages meets a new dictionary a page. The table must keep naming every
// row's string right, and hold only the dictionaries of its last codeIdle
// rows: the four stripes' and a page's worth, however many pages the walk
// reads. It holds no shard, so a decoded page's rows are free once the page
// ends.
func TestCodeTableStaysFlatOverDecodedPages(t *testing.T) {
	const page = 20
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithShards(4), WithFsyncPolicy(FsyncOff), WithQueryCache(0))
	defer st.Close()
	evs := cursorFixture(4000)
	for i := 0; i < len(evs); i += 1000 {
		if err := st.BulkEvents(ctx, crashIndex, evs[i:i+1000]); err != nil {
			t.Fatal(err)
		}
		if i < 3000 { // three segments cold, the last thousand rows hot
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix, _ := st.GetIndex(crashIndex)
	if c := coldRows(ix); c != 3000 {
		t.Fatalf("fixture: %d cold rows, want 3000", c)
	}
	ix.dur.resident.clear()
	ix.dur.resident.budget = 1

	tab := NewCodeTable(FieldSyscall)
	gens := map[uint64]bool{}
	n, most := 0, 0
	req := SearchRequest{Query: MatchAll(), Sort: []SortField{{Field: FieldTimeEnter}}}
	err := EachRow(ctx, st, crashIndex, req, page, func(w Row) {
		n++
		gens[w.sh.gen] = true
		if id := tab.ID(w); tab.Name(id) != w.Syscall() {
			t.Fatalf("row %d's syscall %q has id %d, which names %q", n, w.Syscall(), id, tab.Name(id))
		}
		most = max(most, len(tab.dicts))
	})
	if err != nil || n != len(evs) {
		t.Fatalf("walked %d rows (%v), want %d", n, err, len(evs))
	}
	bound := 4 + codeIdle/page + 3
	t.Logf("%d dictionaries met, at most %d held", len(gens), most)
	if len(gens) < 3*bound {
		t.Fatalf("fixture: the walk met %d dictionaries, want a new one a cold page (at least %d)", len(gens), 3*bound)
	}
	if most > bound {
		t.Fatalf("the table held up to %d dictionaries over %d met, want at most %d", most, len(gens), bound)
	}
}
