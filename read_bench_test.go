// Dashboard read-path benchmark: the repeated, near-identical aggregation
// queries a refreshing dashboard issues (terms over syscall, date-histogram
// over time_enter_ns) against a live store that keeps ingesting typed
// events while the queries run. The baseline side disables the query cache
// through the ablation option (WithQueryCache(0)), so both sides execute the
// same requests against the same data through the same binary. The
// headline metrics are per-query p50/p99 latency; BENCH_store.json holds
// the historical comparison, and current numbers are `go test -bench` output.
package dio_test

import (
	"context"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

const (
	readBenchPreload = 120_000
	readBenchBatch   = 512
	readBenchWorkers = 8
)

// readBenchEvents builds one batch of typed events spread across the
// timeline, offset so successive batches keep advancing it the way a live
// tracer does.
func readBenchEvents(base int64, n int) []event.Event {
	syscalls := []string{"read", "write", "pread64", "pwrite64", "openat", "close", "lseek"}
	classes := []string{"read", "write", "read", "write", "metadata", "metadata", "metadata"}
	evs := make([]event.Event, n)
	for i := range evs {
		k := i % len(syscalls)
		enter := base + int64(i)*40_000 // 512 events span ~20ms of trace time
		evs[i] = event.Event{
			Session:     "dash",
			Syscall:     syscalls[k],
			Class:       classes[k],
			RetVal:      4096,
			FD:          7,
			Count:       4096,
			PID:         42,
			TID:         43 + i%4,
			ProcName:    "db_bench",
			ThreadName:  "worker",
			TimeEnterNS: enter,
			TimeExitNS:  enter + 900,
		}
	}
	return evs
}

// dashboardRequests is the repeated query mix, all filtered to the session
// the dashboard renders: the per-syscall histogram (terms over syscall), the
// flat event-rate histogram (date-histogram over time_enter_ns), and the
// Fig. 4 timeline exactly as viz.SyscallTimeline issues it — the same
// date-histogram with a terms(thread_name) sub-aggregation.
func dashboardRequests() []store.SearchRequest {
	timeline := &store.DateHistogramAgg{Field: store.FieldTimeEnter, IntervalNS: 1_000_000_000}
	return []store.SearchRequest{
		{
			Query: store.Term(store.FieldSession, "dash"),
			Size:  1,
			Aggs: map[string]store.Agg{
				"by_syscall": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
			},
		},
		{
			Query: store.Term(store.FieldSession, "dash"),
			Size:  1,
			Aggs:  map[string]store.Agg{"timeline": {DateHistogram: timeline}},
		},
		{
			Query: store.Term(store.FieldSession, "dash"),
			Size:  1,
			Aggs: map[string]store.Agg{"timeline": {
				DateHistogram: timeline,
				Aggs:          map[string]store.Agg{"by_thread": {Terms: &store.TermsAgg{Field: store.FieldThreadName}}},
			}},
		},
	}
}

// BenchmarkDashboardReadPath is the headline number for the read-path PR:
// p50/p99 latency of concurrent repeated dashboard aggregations over a
// 120k-event index while typed ingest keeps landing, accelerated (the
// epoch-keyed query cache, the default) versus the uncached baseline, where
// every query counts its matched rows. Flushed is the accelerated store made
// durable, with the preload snapshotted before the timed loop: every query the
// cache misses counts the rows ingested during the loop on hot stripes and the
// flushed preload on a resident cold segment, by one path — what a durable
// index costs a dashboard after its first snapshot. cache-hits/op is the
// share of queries the query cache answered.
func BenchmarkDashboardReadPath(b *testing.B) {
	run := func(b *testing.B, flush bool, opts ...store.Option) {
		st, err := store.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		ctx := context.Background()
		var clock int64 = 1_000_000_000
		for n := 0; n < readBenchPreload; n += readBenchBatch {
			if err := st.BulkEvents(ctx, "bench", readBenchEvents(clock, readBenchBatch)); err != nil {
				b.Fatal(err)
			}
			clock += readBenchBatch * 40_000
		}
		if flush {
			if err := st.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}

		// Live ingest: one background writer appending typed batches for the
		// duration of the timed section, paced so queries and ingest genuinely
		// interleave instead of the writer monopolizing the core.
		stop := make(chan struct{})
		var ingest sync.WaitGroup
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if err := st.BulkEvents(ctx, "bench", readBenchEvents(clock, readBenchBatch)); err != nil {
					return
				}
				clock += readBenchBatch * 40_000
			}
		}()

		reqs := dashboardRequests()
		var mu sync.Mutex
		lat := make([]time.Duration, 0, b.N)
		cacheHits := func() uint64 { return st.Telemetry().Snapshot().Counters[telemetry.MetricQueryCacheHits] }
		hits0 := cacheHits()
		b.ResetTimer()
		var qs sync.WaitGroup
		for w := 0; w < readBenchWorkers; w++ {
			qs.Add(1)
			go func(w int) {
				defer qs.Done()
				local := make([]time.Duration, 0, b.N/readBenchWorkers+1)
				for i := w; i < b.N; i += readBenchWorkers {
					req := reqs[i%len(reqs)]
					t0 := time.Now()
					if _, err := st.Search(ctx, "bench", req); err != nil {
						b.Error(err)
						return
					}
					local = append(local, time.Since(t0))
				}
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			}(w)
		}
		qs.Wait()
		b.StopTimer()
		close(stop)
		ingest.Wait()

		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns")
			b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
		}
		b.ReportMetric(float64(cacheHits()-hits0)/float64(b.N), "cache-hits/op")
	}

	b.Run("Accelerated", func(b *testing.B) { run(b, false) })
	b.Run("Uncached", func(b *testing.B) { run(b, false, store.WithQueryCache(0)) })
	b.Run("Flushed", func(b *testing.B) {
		run(b, true, store.WithDataDir(b.TempDir()), store.WithSnapshotInterval(0))
	})
}

// BenchmarkHitPage prices the two encoders a hit can leave a server through:
// one 2 000-hit sorted page (the diagnosis cursor's page) fetched over HTTP as
// JSON documents (Client.Search) and as the typed hit body
// (Client.SearchEvents). The query cache is off so each fetch pays the whole
// path; -benchmem shows the per-hit map the JSON edge builds on both sides
// and the typed path does not.
func BenchmarkHitPage(b *testing.B) {
	st, err := store.Open(store.WithQueryCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if err := st.BulkEvents(ctx, "events", readBenchEvents(1_700_000_000_000_000_000, 8_000)); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	c := store.NewClient(srv.URL)
	req := store.SearchRequest{
		Query: store.Term(store.FieldSession, "dash"), Size: 2_000,
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if resp, err := c.Search(ctx, "events", req); err != nil || len(resp.Hits) != req.Size {
				b.Fatalf("%d hits, %v", len(resp.Hits), err)
			}
		}
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := c.SearchEvents(ctx, "events", req); err != nil || len(res.Hits) != req.Size {
				b.Fatalf("%d hits, %v", len(res.Hits), err)
			}
		}
	})
}
