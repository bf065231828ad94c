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

func diagBenchStore(b *testing.B) *store.Store {
	b.Helper()
	st := memStore(b)
	ctx := context.Background()
	var clock int64 = 1_000_000_000
	for n := 0; n < diagBenchEvents; n += diagBenchBatch {
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
	st := diagBenchStore(b)
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
// patterns, failing syscalls, contention, DFG anti-patterns).
func BenchmarkEngineRun(b *testing.B) {
	st := diagBenchStore(b)
	ctx := context.Background()
	eng := diagnose.NewEngine(diagnose.DefaultRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(ctx, st, "bench", "diagbench")
		if err != nil {
			b.Fatal(err)
		}
		if rep.Session != "diagbench" {
			b.Fatalf("report session = %q", rep.Session)
		}
	}
}
