// Segment-pruning benchmark: a narrow time-range query (the dashboard's
// "last few minutes" window) against a tiered store whose history spans many
// time-disjoint cold segments. The pruned side lets the query planner skip
// segments whose stamped [MinTime, MaxTime] cannot overlap the window; the
// full-scan side spells the same predicate under a single Should, where the
// planner extracts no time bounds, so both sides ask for the same rows from
// the same files through the same binary. BENCH_store.json holds the
// historical comparison; current numbers are `go test -bench` output.
package dio_test

import (
	"context"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

const (
	pruneBenchSegments   = 8
	pruneBenchRowsPerSeg = 2000
	pruneBenchWindowNS   = int64(60_000_000_000) // segments are one minute of trace apart
	pruneBenchIndex      = "events"
)

func pruneBenchEvents(seg int) []event.Event {
	base := int64(1<<60) + int64(seg)*pruneBenchWindowNS
	evs := make([]event.Event, pruneBenchRowsPerSeg)
	for i := range evs {
		enter := base + int64(i)*1000
		evs[i] = event.Event{
			Session: "prune", Syscall: []string{"read", "write", "openat"}[i%3],
			Class: "file", ProcName: "app", ThreadName: "w",
			PID: 9, TID: 10 + i%4, RetVal: 4096, FD: 5, Count: 4096,
			TimeEnterNS: enter, TimeExitNS: enter + 700,
		}
	}
	return evs
}

// pruneBenchStore opens a tiered store holding segs snapshots of rows events
// each, one trace-minute apart. The query cache is off: these benchmarks
// measure segment opening, not caching.
func pruneBenchStore(b *testing.B, segs, rows int) *store.Store {
	st, err := store.Open(
		store.WithDataDir(b.TempDir()),
		store.WithFsyncPolicy(store.FsyncOff),
		store.WithSnapshotInterval(0),
		store.WithRetention(500_000*time.Hour),
		store.WithQueryCache(0),
	)
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	b.Cleanup(func() { st.Close() })
	for seg := 0; seg < segs; seg++ {
		if err := st.BulkEvents(context.Background(), pruneBenchIndex, pruneBenchEvents(seg)[:rows]); err != nil {
			b.Fatalf("seg %d: bulk: %v", seg, err)
		}
		if err := st.Snapshot(); err != nil {
			b.Fatalf("seg %d: snapshot: %v", seg, err)
		}
	}
	return st
}

// BenchmarkSegmentPrunedSearch measures the cold read path's two levels of
// time pruning. pruned vs full-scan: pruneBenchSegments time-disjoint
// segments, with and without the header-stamp prune. narrow-window/
// wide-segment: one compacted segment of 16 trace-minutes and a window over
// about a tenth of its rows, which the header cannot prune and the rows'
// times select — against the same predicate under a Should, which decodes
// every row.
func BenchmarkSegmentPrunedSearch(b *testing.B) {
	ctx := context.Background()
	window := func(lo, hi float64) (req, fullReq store.SearchRequest) {
		req = store.SearchRequest{
			Query: store.Must(
				store.Term(store.FieldSession, "prune"),
				store.RangeBetween(store.FieldTimeEnter, lo, hi),
			),
			Size: 10,
			Aggs: map[string]store.Agg{
				"by_syscall": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
			},
		}
		fullReq = req
		fullReq.Query = store.Query{Bool: &store.BoolQuery{Should: []store.Query{req.Query}}}
		return req, fullReq
	}
	run := func(st *store.Store, req store.SearchRequest) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp, err := st.Search(ctx, pruneBenchIndex, req)
				if err != nil {
					b.Fatalf("search: %v", err)
				}
				if resp.Total == 0 {
					b.Fatal("query matched nothing")
				}
			}
		}
	}
	// The window: half a segment's worth of time, in the middle of the history.
	st := pruneBenchStore(b, pruneBenchSegments, pruneBenchRowsPerSeg)
	lo := float64(int64(1<<60) + 5*pruneBenchWindowNS)
	req, fullReq := window(lo, lo+float64(pruneBenchWindowNS)/2)
	b.Run("pruned", run(st, req))
	b.Run("full-scan", run(st, fullReq))

	// 16 level-0 segments of 1000 rows compact to one of 16000; the window
	// takes trace-minute 5 whole and 600 rows of minute 6.
	wide := pruneBenchStore(b, 16, 1000)
	if err := wide.Compact(); err != nil {
		b.Fatalf("compact: %v", err)
	}
	req, fullReq = window(lo, lo+float64(pruneBenchWindowNS)+600_000)
	b.Run("narrow-window/wide-segment", run(wide, req))
	b.Run("narrow-window/wide-segment-all-rows", run(wide, fullReq))
}

// BenchmarkSegmentCompaction measures the maintenance cost the tier adds:
// one op ingests four level-0 segments (timer stopped) and then merges them
// with a Compact pass (timer running) — the steady-state overhead a store
// under sustained ingest pays per compaction.
func BenchmarkSegmentCompaction(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(
		store.WithDataDir(dir),
		store.WithFsyncPolicy(store.FsyncOff),
		store.WithSnapshotInterval(0),
		store.WithRetention(500_000*time.Hour),
		store.WithQueryCache(0),
	)
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	defer st.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for seg := 0; seg < 4; seg++ {
			if err := st.BulkEvents(ctx, pruneBenchIndex, pruneBenchEvents(i*4+seg)); err != nil {
				b.Fatalf("bulk: %v", err)
			}
			if err := st.Snapshot(); err != nil {
				b.Fatalf("snapshot: %v", err)
			}
		}
		b.StartTimer()
		if err := st.Compact(); err != nil {
			b.Fatalf("compact: %v", err)
		}
	}
	b.ReportMetric(float64(4*pruneBenchRowsPerSeg), "rows/op")
}
