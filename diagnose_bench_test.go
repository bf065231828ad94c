// Diagnosis-engine benchmarks: building a per-process syscall
// Directly-Follows-Graph and running the full detector registry over a
// 120k-event session. Both are one pass of the same paged typed cursor
// (store.EachEventPage) — the engine run feeds every registered detector
// from the pass that builds the graph — so memory stays flat regardless of
// session size and the engine/DFG ratio stays near 1; `make bench-diagnose`
// keeps the pair under the PR gate.
package dio_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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

// diagBenchStore ingests a session of events into an in-memory store with the
// query cache off: a second pass over an unchanged index would answer every
// page it can hold (256) from the cache and time the cache, not the pass,
// and only on the sessions short enough to fit. A live store never sees that
// — the benchmark's diagnose_session workload ingests between two runs.
func diagBenchStore(b *testing.B, events int) *store.Store {
	b.Helper()
	st, err := store.Open(store.WithQueryCache(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var clock int64 = 1_000_000_000
	for n := 0; n < events; n += diagBenchBatch {
		if err := st.BulkEvents(ctx, "bench", diagBenchBatchEvents(clock, n, diagBenchBatch)); err != nil {
			b.Fatal(err)
		}
		clock += diagBenchBatch * 25_000
	}
	return st
}

// BenchmarkDFGBuild times one streaming DFG construction over the 120k-event
// session: a single time-ordered cursor pass accumulating node counts and
// follows-edges with latency quantile sketches.
func BenchmarkDFGBuild(b *testing.B) {
	st := diagBenchStore(b, diagBenchEvents)
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

// BenchmarkEngineRun times a full diagnosis: the same cursor pass feeding
// the DFG builder and every registered detector (stale-offset, costly
// patterns, failing syscalls, contention, DFG anti-patterns), over sessions
// of 30k, 120k and 480k events. ns/event is the cost model: a pass is linear
// in the session, so it stays flat across the three arms; a page that paid
// for the rows before it made the 480k arm an order of magnitude dearer per
// event than the 30k one.
func BenchmarkEngineRun(b *testing.B) {
	for _, events := range []int{30_000, diagBenchEvents, 480_000} {
		b.Run(fmt.Sprintf("events=%dk", events/1000), func(b *testing.B) {
			st := diagBenchStore(b, events)
			ctx := context.Background()
			eng := diagnose.NewEngine(diagnose.DefaultRegistry())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := eng.Run(ctx, st, "bench", "diagbench")
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
		st.DeleteIndex(index)
		b.StartTimer()
	}
	b.ReportMetric(float64(journaled)/float64(named), "wal-B/row")
}
