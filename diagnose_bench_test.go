// Diagnosis-engine benchmarks: the bare walk, building a per-process syscall
// Directly-Follows-Graph and running the full detector registry over a
// 120k-event session. All are one pass of the same sorted cursor
// (store.EachRow), reading each row in place in the store — the engine
// run feeds every registered detector from the pass that builds the graph —
// so memory stays flat regardless of session size and the engine/DFG ratio
// stays near 1; `make bench-diagnose` keeps them under the PR gate.
package dio_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

const (
	diagBenchEvents = 120_000
	diagBenchBatch  = 1000
)

// diagBenchBatchEvents emulates a database-style workload: four worker
// threads cycling through open → (read, lseek)… → write → close against
// 32 files, which gives the DFG builder a non-trivial edge set and the
// per-file pattern rule enough files, offsets and paths to regress on.
func diagBenchBatchEvents(base int64, start, n int) []event.Event {
	syscalls := []string{"openat", "read", "lseek", "read", "lseek", "write", "close"}
	classes := []string{"metadata", "read", "metadata", "read", "metadata", "write", "metadata"}
	evs := make([]event.Event, n)
	for i := range evs {
		seq := start + i
		k := seq % len(syscalls)
		enter := base + int64(i)*25_000
		evs[i] = event.Event{
			Session:     "diagbench",
			Syscall:     syscalls[k],
			Class:       classes[k],
			RetVal:      4096,
			FD:          5,
			Count:       4096,
			Offset:      int64(seq%64) * 4096,
			HasOffset:   classes[k] != "metadata",
			PID:         100,
			TID:         101 + seq%4,
			ProcName:    "db_bench",
			ThreadName:  "worker",
			FilePath:    fmt.Sprintf("/data/f%03d.dat", seq%32),
			TimeEnterNS: enter,
			TimeExitNS:  enter + 1200,
		}
	}
	return evs
}

// diagBenchStore ingests sessions sessions of events each into an in-memory
// store, query cache included: a pass over the *store.Store reads its pages
// in place and bypasses the cache, so a second pass over an unchanged index
// times the pass, as the first does, and not the cache. The first session is
// "diagbench"; the others are traced on the same clock, a batch of each in
// turn, so their rows interleave in time.
func diagBenchStore(b *testing.B, events, sessions int, opts ...store.Option) *store.Store {
	b.Helper()
	st, err := store.Open(opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var clock int64 = 1_000_000_000
	for n := 0; n < events; n += diagBenchBatch {
		for s := 0; s < sessions; s++ {
			evs := diagBenchBatchEvents(clock, n, diagBenchBatch)
			if s > 0 {
				for j := range evs {
					evs[j].Session = fmt.Sprintf("diagbench%d", s)
				}
			}
			if err := st.BulkEvents(ctx, "bench", evs); err != nil {
				b.Fatal(err)
			}
		}
		clock += diagBenchBatch * 25_000
	}
	return st
}

// BenchmarkDFGBuild times one streaming DFG construction over the 120k-event
// session: a single time-ordered cursor pass accumulating node counts and
// follows-edges with latency quantile sketches.
func BenchmarkDFGBuild(b *testing.B) {
	st := diagBenchStore(b, diagBenchEvents, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := diagnose.BuildDFG(ctx, st, "bench", "diagbench", 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Procs) == 0 {
			b.Fatal("empty DFG")
		}
	}
}

// BenchmarkEachRow times the walk under the other two: one in-process
// store.EachRow over the 120k-event session in time order, with an fn that
// only counts, so ns/row is the cursor pass alone — the pages' merges and
// their bookkeeping. Like them it times the first walk, which builds the
// session's runs, with the rest. Beside it, DFGBuild less EachRow is the
// DFG builder's share of a diagnosis, and EngineRun less DFGBuild the
// detectors'.
func BenchmarkEachRow(b *testing.B) {
	st := diagBenchStore(b, diagBenchEvents, 1)
	ctx := context.Background()
	req := store.SearchRequest{Query: store.Term(store.FieldSession, "diagbench"), Sort: []store.SortField{{Field: store.FieldTimeEnter}}}
	b.ReportAllocs()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := store.EachRow(ctx, st, "bench", req, 0, func(store.Row) { n++ }); err != nil || n != diagBenchEvents {
			b.Fatalf("walked %d rows, want %d: %v", n, diagBenchEvents, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*diagBenchEvents), "ns/row")
}

// BenchmarkEngineRun times a full diagnosis: the same cursor pass feeding
// the DFG builder and every registered detector (stale-offset, costly
// patterns, failing syscalls, contention, DFG anti-patterns), over sessions
// of 30k, 120k and 480k events. ns/event is the cost model: a pass is linear
// in the session, so it stays flat across the three arms; a page that paid
// for the rows before it made the 480k arm an order of magnitude dearer per
// event than the 30k one. The sessions=S arms trace S-1 more sessions on the
// same clock, as the diagnose_session workload traces two: the session then
// holds 1/S of every shard's rows. A page reads the session's term run, its
// posting list kept in time order, and the first pass builds that run from
// the session's rows alone, so ns/event stays flat in S too; a page that
// walked the shard's whole time order and tested each row for membership
// cost about S times the rows it kept, and a first pass that built the time
// column read every row of the index. The shards=N arms hold a 60k-event
// session on N lock stripes: a page pulls its rows through one merge over
// the stripes' walks, so ns/event stays flat in N; a page that had every
// stripe walk and allocate a page of its own cost N pages per page. No page
// is copied out of the store, and a walk allocates its 32 KB window of refs,
// read view and merge tree once, for its first page, where every page once
// allocated all three and the copy of its events cost 304 KB more. The backend=client arm walks a 60k-event
// session through a store.Client over an httptest server: each page is a
// typed search answer, decoded and packed into the walk's page shard, so it
// prices the remote walk against the in-process one. The index does not
// change between runs, so the server answers the pages of every run after
// the first from its query cache: the arm times the HTTP round trips, the
// decode and the pack, not the server's search.
// Every arm collects the fixture's build garbage before the timer starts.
func BenchmarkEngineRun(b *testing.B) {
	arms := []struct {
		events, sessions, shards int
		client                   bool
	}{
		{30_000, 1, 0, false}, {diagBenchEvents, 1, 0, false}, {480_000, 1, 0, false},
		{diagBenchEvents, 2, 0, false}, {30_000, 8, 0, false}, {30_000, 32, 0, false},
		{60_000, 1, 1, false}, {60_000, 1, 4, false}, {60_000, 1, 16, false},
		{60_000, 1, 0, true},
	}
	for _, arm := range arms {
		events := arm.events
		name := fmt.Sprintf("events=%dk", events/1000)
		if arm.sessions > 1 {
			name += fmt.Sprintf(",sessions=%d", arm.sessions)
		}
		var opts []store.Option
		if arm.shards > 0 {
			name += fmt.Sprintf(",shards=%d", arm.shards)
			opts = append(opts, store.WithShards(arm.shards))
		}
		if arm.client {
			name += ",backend=client"
		}
		b.Run(name, func(b *testing.B) {
			st := diagBenchStore(b, events, arm.sessions, opts...)
			var backend store.Backend = st
			if arm.client {
				srv := httptest.NewServer(store.NewServer(st))
				defer srv.Close()
				backend = store.NewClient(srv.URL)
			}
			ctx := context.Background()
			eng := diagnose.NewEngine(diagnose.DefaultRegistry())
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := eng.Run(ctx, backend, "bench", "diagbench")
				if err != nil {
					b.Fatal(err)
				}
				if rep.Events != int64(events) {
					b.Fatalf("report counted %d events, want %d", rep.Events, events)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// BenchmarkCorrelateJournal times one correlation pass over the 120k-event
// session on a durable store — every row tagged with one of 32 files, opens
// carrying the kernel path — and reports what the pass cost the journal per
// row it named (wal-B/row, from the WAL's size before and after). The pass
// journals its parameters, one record holding the tag→path pairs, not its
// effects, so the figure is a fraction of a byte; a pass that journaled rows
// again would read in the hundreds. The resident arm names rows in shard
// memory; the flushed arm snapshots the session first, so the pass counts
// every row from the cold segment and names none in place.
func BenchmarkCorrelateJournal(b *testing.B) {
	b.Run("resident", func(b *testing.B) { benchCorrelateJournal(b, false) })
	b.Run("flushed", func(b *testing.B) { benchCorrelateJournal(b, true) })
}

func benchCorrelateJournal(b *testing.B, flush bool) {
	dir := b.TempDir()
	st, err := store.Open(store.WithDataDir(dir), store.WithFsyncPolicy(store.FsyncOff), store.WithSnapshotInterval(0))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	walBytes := func(index string) int64 {
		logs, err := filepath.Glob(filepath.Join(dir, "*"+index, "wal-*.log"))
		if err != nil || len(logs) != 1 {
			b.Fatalf("wal files of %s: %v, %v", index, logs, err)
		}
		fi, err := os.Stat(logs[0])
		if err != nil {
			b.Fatal(err)
		}
		return fi.Size()
	}
	var journaled, named int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		index := fmt.Sprintf("bench%d", i)
		var clock int64 = 1_000_000_000
		for n := 0; n < diagBenchEvents; n += diagBenchBatch {
			evs := diagBenchBatchEvents(clock, n, diagBenchBatch)
			for j := range evs {
				e := &evs[j]
				e.FileTag = event.FileTag{Dev: 8, Ino: uint64(1 + (n+j)%32), BirthNS: 7}
				if e.Syscall == "openat" {
					e.KernelPath = e.FilePath
				}
				e.FilePath = ""
			}
			if err := st.BulkEvents(ctx, index, evs); err != nil {
				b.Fatal(err)
			}
			clock += diagBenchBatch * 25_000
		}
		if flush {
			if err := st.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		before := walBytes(index)
		b.StartTimer()
		res, err := st.Correlate(ctx, index, "diagbench")
		b.StopTimer()
		if err != nil || res.EventsUpdated != diagBenchEvents {
			b.Fatalf("correlate: %+v, %v", res, err)
		}
		journaled += walBytes(index) - before
		named += int64(res.EventsUpdated)
		if err := st.DeleteIndex(ctx, index); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(journaled)/float64(named), "wal-B/row")
}
