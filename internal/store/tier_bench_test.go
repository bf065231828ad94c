package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// BenchmarkColdWindow is the in-process form of the cold_history window
// query: 16 trace-minutes of 6 000 rows, the first 14 flushed one segment
// each and compacted (three level-1 segments and two level-0), the store
// closed and reopened, then a quarter-minute window inside a cold minute,
// sorted by time with a terms aggregation. FirstOpen empties the index's
// resident segment set before every query, so each one reads and verifies
// its segment file as the cold path did before the set existed; Resident
// answers from readers verified once. verified/op counts the file reads.
func BenchmarkColdWindow(b *testing.B) {
	const minutes, flushed, rows = 16, 14, 6000
	const minute, stride = int64(60e9), int64(60e9/rows) &^ 255
	base := int64(1687859999000000000) &^ (1<<20 - 1)
	syscalls := []string{"read", "write", "pread64", "openat", "close"}
	dir := b.TempDir()
	ctx := context.Background()
	st := openDurable(b, dir)
	rng := rand.New(rand.NewSource(20230627))
	for c := 0; c < minutes; c++ {
		evs := make([]event.Event, rows)
		for i := range evs {
			g := c*rows + i
			enter := base + int64(c)*minute + int64(i)*stride
			evs[i] = event.Event{
				Session: "cold", Syscall: syscalls[rng.Intn(len(syscalls))], Class: "file",
				ProcName: "app", ThreadName: fmt.Sprintf("w%d", g%4),
				PID: 100, TID: 101 + g%4, RetVal: 4096, FD: 5, Count: 4096,
				TimeEnterNS: enter, TimeExitNS: enter + 700,
			}
		}
		if err := st.BulkEvents(ctx, "history", evs); err != nil {
			b.Fatal(err)
		}
		if c < flushed {
			if err := st.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	st = openDurable(b, dir, WithQueryCache(0))
	defer st.Close()
	ix, _ := st.GetIndex("history")

	// window is rows/4 rows of cold minute c from its row i.
	window := func(c, i int) SearchRequest {
		lo := base + int64(c)*minute + int64(i)*stride
		return SearchRequest{
			Query: Must(Term(FieldSession, "cold"),
				RangeBetween(FieldTimeEnter, float64(lo), float64(lo+int64(rows/4-1)*stride))),
			Sort: []SortField{{Field: FieldTimeEnter}},
			Size: 10,
			Aggs: map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}},
		}
	}
	run := func(b *testing.B, firstOpen bool) {
		rng := rand.New(rand.NewSource(1))
		v0 := ix.rtm.segVerified.Value()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if firstOpen {
				b.StopTimer()
				ix.dur.resident.clear()
				b.StartTimer()
			}
			resp, err := st.Search(ctx, "history", window(rng.Intn(flushed), rng.Intn(rows/2)))
			if err != nil || resp.Total != rows/4 {
				b.Fatalf("window: total %d (%v), want %d", resp.Total, err, rows/4)
			}
		}
		b.ReportMetric(float64(ix.rtm.segVerified.Value()-v0)/float64(b.N), "verified/op")
	}
	b.Run("FirstOpen", func(b *testing.B) { run(b, true) })
	b.Run("Resident", func(b *testing.B) {
		for c := 0; c < flushed; c++ { // every cold segment verified once, untimed
			if _, err := st.Search(ctx, "history", window(c, 0)); err != nil {
				b.Fatal(err)
			}
		}
		run(b, false)
	})
}
