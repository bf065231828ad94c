package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// layoutChunks is how many batches the layout fixture arrives in: enough
// flushes, when an arm flushes after each, for one leveled compaction.
const layoutChunks = 4

// layoutChunk builds one batch of the two-session fixture: sessions "a" and
// "b" interleaved, each opening its own file per chunk (the kernel path is on
// the open), reading and writing it, and touching one file whose open was
// never captured — so a per-session pass names rows from the row itself,
// names rows through the dictionary, and leaves some unresolved.
func layoutChunk(chunk int) []event.Event {
	var evs []event.Event
	at := int64(chunk) * 1_000_000
	for i, sys := range []string{"openat", "read", "write", "read", "fsync"} {
		for s, session := range []string{"a", "b"} {
			e := event.Event{
				Session: session, Syscall: sys, Class: "file", ProcName: "app-" + session, ThreadName: "w",
				PID: 10 + s, TID: 20 + s, RetVal: int64(i),
				TimeEnterNS: at + int64(i*10+s), TimeExitNS: at + int64(i*10+s) + 5,
				FileTag: event.FileTag{Dev: 8, Ino: uint64(100 + chunk), BirthNS: int64(1 + s)},
			}
			switch sys {
			case "openat":
				e.KernelPath = fmt.Sprintf("/data/%s/f%d", session, chunk)
			case "fsync":
				e.FileTag.Ino = 999 // no open names this one
			}
			evs = append(evs, e)
		}
	}
	return evs
}

// layoutIngest writes the fixture, flushing after each chunk when asked.
func layoutIngest(t *testing.T, st *store.Store, flush bool) {
	t.Helper()
	for c := 0; c < layoutChunks; c++ {
		if err := st.BulkEvents(context.Background(), testIndex, layoutChunk(c)); err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		if flush {
			if err := st.Snapshot(); err != nil {
				t.Fatalf("flush after chunk %d: %v", c, err)
			}
		}
	}
}

// layoutCorrelate runs the per-session passes and checks their accounting.
func layoutCorrelate(t *testing.T, st *store.Store) {
	t.Helper()
	for _, session := range []string{"a", "b"} {
		res, err := st.Correlate(context.Background(), testIndex, session)
		want := store.CorrelationResult{
			TagsResolved: layoutChunks, EventsUpdated: 4 * layoutChunks, EventsUnresolved: layoutChunks,
			EventsWithTag: 5 * layoutChunks,
		}
		if err != nil || res != want {
			t.Fatalf("correlate %q: %+v, %v; want %+v", session, res, err, want)
		}
	}
}

// layoutFingerprint is the whole index as a reader sees it — every row in
// order, with its file_path — plus the exists(file_path) count.
func layoutFingerprint(t *testing.T, st *store.Store) string {
	t.Helper()
	ctx := context.Background()
	res, err := st.Search(ctx, testIndex, store.SearchRequest{Query: store.MatchAll(), Size: -1})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	n, err := st.Count(ctx, testIndex, store.Exists(store.FieldFilePath))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	blob, err := json.Marshal(struct {
		Search store.SearchResponse
		Named  int
	}{res, n})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestCorrelationSurvivesEveryLayout: one ingest and one pair of per-session
// correlation passes, then every way the repository can hold the rows
// afterwards. Wherever a row is materialised from — shard memory, a replayed
// WAL, a segment written before the passes and decoded cold, a compaction's
// output, a follower's replayed stream, a bootstrap of a primary with cold
// rows — it must read exactly as in the in-memory control, and the passes
// must count the same whether the rows they name are hot or cold.
func TestCorrelationSurvivesEveryLayout(t *testing.T) {
	const retention = 200_000 * time.Hour // the fixture's rows are stamped near the epoch
	open := func(t *testing.T, dir string, opts ...store.Option) *store.Store {
		t.Helper()
		st, err := store.Open(append([]store.Option{
			store.WithDataDir(dir), store.WithFsyncPolicy(store.FsyncOff), store.WithSnapshotInterval(0), store.WithShards(4),
		}, opts...)...)
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	reopen := func(t *testing.T, st *store.Store, dir string, opts ...store.Option) *store.Store {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return open(t, dir, opts...)
	}
	syncTo := func(t *testing.T, primary, follower *store.Store) (*Replicator, *faultTransport) {
		t.Helper()
		if err := follower.SetFollower(); err != nil {
			t.Fatalf("set follower: %v", err)
		}
		tr := &faultTransport{st: follower}
		r := New(primary, tr, Config{Policy: resilience.Policy{Clock: clock.NewVirtual(0)}})
		if err := r.Sync(context.Background()); err != nil {
			t.Fatalf("sync: %v", err)
		}
		return r, tr
	}

	control := memStore(t)
	layoutIngest(t, control, false)
	layoutCorrelate(t, control)
	want := layoutFingerprint(t, control)
	if n, _ := control.Count(context.Background(), testIndex, store.Exists(store.FieldFilePath)); n != 2*4*layoutChunks {
		t.Fatalf("control names %d rows, want %d", n, 2*4*layoutChunks)
	}
	check := func(t *testing.T, st *store.Store) {
		t.Helper()
		if got := layoutFingerprint(t, st); got != want {
			t.Fatalf("diverged from the in-memory control\n got %.400s\nwant %.400s", got, want)
		}
	}

	t.Run("durable, never flushed, reopened", func(t *testing.T) {
		dir := t.TempDir()
		st := open(t, dir)
		layoutIngest(t, st, false)
		layoutCorrelate(t, st)
		check(t, st)
		check(t, reopen(t, st, dir))
	})

	// Flushed before the passes: the segments hold every row unresolved, the
	// passes count them cold, and the paths records are the only place the
	// names live.
	flushed := t.TempDir()
	t.Run("flushed before the correlate, reopened", func(t *testing.T) {
		st := open(t, flushed)
		layoutIngest(t, st, true)
		layoutCorrelate(t, st)
		check(t, st)
		check(t, reopen(t, st, flushed))
	})
	t.Run("the same dir reopened with retention", func(t *testing.T) {
		st := open(t, flushed, store.WithRetention(retention))
		check(t, st) // a horizon that drops nothing changes nothing
		// A time window that prunes segments and skips rows reads the same
		// paths as the control's.
		win := store.SearchRequest{
			Query: store.Must(store.RangeBetween(store.FieldTimeEnter, 1_000_000, 1_000_025), store.Exists(store.FieldFilePath)),
			Size:  -1,
		}
		got, err := st.Search(context.Background(), testIndex, win)
		wantWin, _ := control.Search(context.Background(), testIndex, win)
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(wantWin)
		if err != nil || wantWin.Total == 0 || string(gotJSON) != string(wantJSON) {
			t.Fatalf("cold window read: %v\n got %s\nwant %s", err, gotJSON, wantJSON)
		}
		// A follower bootstrapped from this primary receives the cold rows
		// already named.
		follower := open(t, t.TempDir())
		r, tr := syncTo(t, st, follower)
		if tr.bootstrapCalls != 1 || r.Stats().Bootstraps != 1 {
			t.Fatalf("expected one bootstrap, got %d calls", tr.bootstrapCalls)
		}
		check(t, follower)
	})

	t.Run("compacted, then reopened", func(t *testing.T) {
		dir := t.TempDir()
		st := open(t, dir)
		layoutIngest(t, st, true)
		layoutCorrelate(t, st)
		if err := st.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		check(t, st)
		st = reopen(t, st, dir)
		check(t, st)
		check(t, reopen(t, st, dir, store.WithRetention(retention)))
	})

	t.Run("followers fed by the replicator", func(t *testing.T) {
		primary := open(t, t.TempDir())
		layoutIngest(t, primary, false)
		hot := open(t, t.TempDir())
		tiered := open(t, t.TempDir())
		rHot, _ := syncTo(t, primary, hot)
		rTiered, _ := syncTo(t, primary, tiered)
		// The tiered follower evicts the rows before their names arrive: its
		// replayed paths records find no hot row and live in its book.
		if err := tiered.Snapshot(); err != nil {
			t.Fatalf("follower flush: %v", err)
		}
		layoutCorrelate(t, primary)
		for _, r := range []*Replicator{rHot, rTiered} {
			if err := r.Sync(context.Background()); err != nil {
				t.Fatalf("sync the passes: %v", err)
			}
			if r.Stats().Bootstraps != 0 {
				t.Fatal("a follower was bootstrapped; the stream should have sufficed")
			}
		}
		check(t, hot)
		check(t, tiered)
	})
}
