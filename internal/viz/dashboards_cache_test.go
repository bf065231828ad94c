package viz

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// TestDashboardRerenderHitsCache proves the dashboards ride the store's query
// cache end to end: the first render misses the cache on every request, and
// rendering the same views again answers every request from it (hit counters
// move, misses do not, outputs match).
func TestDashboardRerenderHitsCache(t *testing.T) {
	st, err := store.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	evs := make([]event.Event, 600)
	for i := range evs {
		enter := 1_000_000_000 + int64(i)*1_000_000
		evs[i] = event.Event{
			Session:     "s",
			Syscall:     []string{"read", "write", "openat"}[i%3],
			Class:       "io",
			RetVal:      int64(i % 100),
			PID:         7,
			TID:         8,
			ProcName:    "app",
			ThreadName:  fmt.Sprintf("w%d", i%2),
			TimeEnterNS: enter,
			TimeExitNS:  enter + 500,
		}
	}
	if err := st.BulkEvents(ctx, "events", evs); err != nil {
		t.Fatal(err)
	}

	// Multi-page render: the Fig. 2 table pages through the cursor, and each
	// bounded page is its own cacheable unit.
	oldPage := accessPatternPageSize
	accessPatternPageSize = 100
	defer func() { accessPatternPageSize = oldPage }()

	render := func() (*Table, *TimeSeries, *Histogram) {
		tbl, err := AccessPatternTable(st, "events", "s")
		if err != nil {
			t.Fatal(err)
		}
		ts, err := SyscallTimeline(st, "events", "s", 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		h, err := SyscallHistogram(st, "events", "s")
		if err != nil {
			t.Fatal(err)
		}
		return tbl, ts, h
	}

	reg := st.Telemetry()
	counters := func() (hits, misses uint64) {
		c := reg.Snapshot().Counters
		return c[telemetry.MetricQueryCacheHits], c[telemetry.MetricQueryCacheMisses]
	}
	tbl1, ts1, h1 := render()
	if len(tbl1.Rows) != len(evs) {
		t.Fatalf("table rows = %d, want %d (pager dropped or duplicated rows)", len(tbl1.Rows), len(evs))
	}
	// Every cursor page plus both aggregation views is one cacheable request.
	requests := uint64(len(evs)/accessPatternPageSize + 2)
	hits0, misses0 := counters()
	if hits0 != 0 || misses0 < requests {
		t.Errorf("first render: %d cache hits, %d misses; want 0 and >= %d", hits0, misses0, requests)
	}

	tbl2, ts2, h2 := render()
	hits, misses := counters()
	if d := hits - hits0; d < requests {
		t.Errorf("re-render produced %d cache hits, want >= %d", d, requests)
	}
	if d := misses - misses0; d != 0 {
		t.Errorf("re-render missed the cache %d times; every request repeats verbatim", d)
	}
	if !reflect.DeepEqual(tbl1, tbl2) || !reflect.DeepEqual(ts1, ts2) || !reflect.DeepEqual(h1, h2) {
		t.Error("re-rendered dashboards differ from the first render")
	}

	// New data invalidates: a third render recomputes and shows the new rows.
	if err := st.BulkEvents(ctx, "events", evs[:30]); err != nil {
		t.Fatal(err)
	}
	tbl3, _, _ := render()
	if len(tbl3.Rows) != len(evs)+30 {
		t.Errorf("post-ingest render rows = %d, want %d", len(tbl3.Rows), len(evs)+30)
	}
}
