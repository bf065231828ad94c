// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §5 and EXPERIMENTS.md), plus ablation benches
// for the design choices called out in DESIGN.md §6 and microbenchmarks of
// the hot paths. Run with:
//
//	go test -bench=. -benchmem
package dio_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/comparators"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/experiments"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// BenchmarkTable1SyscallCoverage traces one round trip of every supported
// syscall (Table I): 42 syscalls intercepted, enriched, and indexed.
func BenchmarkTable1SyscallCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
		if err := k.MkdirAll("/t"); err != nil {
			b.Fatal(err)
		}
		backend := memStore(b)
		tracer, err := core.NewTracer(core.Config{
			SessionName: "table1", Backend: backend, FlushInterval: time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := tracer.Start(k); err != nil {
			b.Fatal(err)
		}
		task := k.NewProcess("cov").NewTask("cov")
		issueAllSyscalls(b, k, task)
		stats, err := tracer.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			seen, _ := backend.Search(context.Background(), "dio-events", store.SearchRequest{
				Query: store.MatchAll(),
				Size:  1,
				Aggs:  map[string]store.Agg{"s": {Terms: &store.TermsAgg{Field: store.FieldSyscall}}},
			})
			if got := len(seen.Aggs["s"].Buckets); got != kernel.NumSyscalls {
				b.Fatalf("distinct traced syscalls = %d, want %d", got, kernel.NumSyscalls)
			}
			b.ReportMetric(float64(stats.Shipped), "events/op")
		}
	}
}

// issueAllSyscalls exercises each of the 42 supported syscalls once.
func issueAllSyscalls(b *testing.B, k *kernel.Kernel, task *kernel.Task) {
	b.Helper()
	must := func(ret int64, err error) {
		if err != nil {
			b.Fatalf("syscall failed: %v", err)
		}
	}
	fd, err := task.Open("/t/f1", kernel.ORdwr|kernel.OCreat, 0o644)
	must(0, err)
	_, err = task.Write(fd, []byte("0123456789abcdef"))
	must(0, err)
	_, err = task.Pwrite64(fd, []byte("xx"), 2)
	must(0, err)
	_, err = task.Writev(fd, [][]byte{[]byte("a"), []byte("b")})
	must(0, err)
	_, err = task.Lseek(fd, 0, kernel.SeekSet)
	must(0, err)
	buf := make([]byte, 4)
	_, err = task.Read(fd, buf)
	must(0, err)
	_, err = task.Pread64(fd, buf, 1)
	must(0, err)
	_, err = task.Readv(fd, [][]byte{buf[:2], buf[2:]})
	must(0, err)
	must(0, task.Fsync(fd))
	must(0, task.Fdatasync(fd))
	must(0, task.Readahead(fd, 0, 8))
	must(0, task.Ftruncate(fd, 8))
	_, err = task.Fstat(fd)
	must(0, err)
	_, err = task.Fstatfs(fd)
	must(0, err)
	must(0, task.Fsetxattr(fd, "user.a", []byte("1")))
	_, err = task.Fgetxattr(fd, "user.a")
	must(0, err)
	_, err = task.Flistxattr(fd)
	must(0, err)
	must(0, task.Fremovexattr(fd, "user.a"))
	must(0, task.Close(fd))

	fd2, err := task.Openat(kernel.AtFDCWD, "/t/f2", kernel.OWronly|kernel.OCreat, 0o644)
	must(0, err)
	must(0, task.Close(fd2))
	fd3, err := task.Creat("/t/f3", 0o644)
	must(0, err)
	must(0, task.Close(fd3))

	must(0, task.Truncate("/t/f1", 4))
	_, err = task.Stat("/t/f1")
	must(0, err)
	k.Symlink("/t/f1", "/t/l1")
	_, err = task.Lstat("/t/l1")
	must(0, err)

	must(0, task.Setxattr("/t/f1", "user.b", []byte("2")))
	_, err = task.Getxattr("/t/f1", "user.b")
	must(0, err)
	_, err = task.Listxattr("/t/f1")
	must(0, err)
	must(0, task.Removexattr("/t/f1", "user.b"))
	must(0, task.Lsetxattr("/t/l1", "user.c", []byte("3")))
	_, err = task.Lgetxattr("/t/l1", "user.c")
	must(0, err)
	_, err = task.Llistxattr("/t/l1")
	must(0, err)
	must(0, task.Lremovexattr("/t/l1", "user.c"))

	must(0, task.Rename("/t/f2", "/t/f2r"))
	must(0, task.Renameat(kernel.AtFDCWD, "/t/f2r", kernel.AtFDCWD, "/t/f2s"))
	must(0, task.Renameat2(kernel.AtFDCWD, "/t/f2s", kernel.AtFDCWD, "/t/f2t", 0))
	must(0, task.Unlink("/t/f2t"))
	must(0, task.Unlinkat(kernel.AtFDCWD, "/t/f3", false))

	must(0, task.Mkdir("/t/d1", 0o755))
	must(0, task.Mkdirat(kernel.AtFDCWD, "/t/d2", 0o755))
	must(0, task.Rmdir("/t/d1"))
	must(0, task.Mknod("/t/n1", kernel.ModeFIFO, 0))
	must(0, task.Mknodat(kernel.AtFDCWD, "/t/n2", kernel.ModeCharDev, 0))
}

// BenchmarkFig2aFluentBitBuggy regenerates the Fig. 2a table and reports
// the lost bytes.
func BenchmarkFig2aFluentBitBuggy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(fluentbit.VersionBuggy)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Scenario.DataLost() {
			b.Fatal("no data loss in buggy scenario")
		}
		if i == 0 {
			b.ReportMetric(float64(res.Scenario.LostBytes), "lost-bytes")
			b.ReportMetric(float64(len(res.Table.Rows)), "table-rows")
		}
	}
}

// BenchmarkFig2bFluentBitFixed regenerates the Fig. 2b table.
func BenchmarkFig2bFluentBitFixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(fluentbit.VersionFixed)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scenario.DataLost() {
			b.Fatal("data loss in fixed scenario")
		}
		if i == 0 {
			b.ReportMetric(float64(res.Scenario.LostBytes), "lost-bytes")
		}
	}
}

// BenchmarkFig3TailLatency runs the traced RocksDB workload and reports the
// p99 contrast between compaction-heavy and quiet windows (Fig. 3).
func BenchmarkFig3TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRocksDB(experiments.RocksDBConfig{
			Duration: 1200 * time.Millisecond,
			Trace:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			busy, quiet, busyN, quietN := res.ContentionCorrelation(5, 2)
			b.ReportMetric(res.Bench.Summary.P99/1e6, "p99-ms")
			if busyN > 0 && quietN > 0 {
				b.ReportMetric(busy/1e6, "busy-p99-ms")
				b.ReportMetric(quiet/1e6, "quiet-p99-ms")
			}
			b.ReportMetric(res.Bench.Throughput(), "ops/s")
		}
	}
}

// BenchmarkFig4SyscallTimeline runs the same workload and reports the
// thread-timeline dimensions (Fig. 4).
func BenchmarkFig4SyscallTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRocksDB(experiments.RocksDBConfig{
			Duration: 1200 * time.Millisecond,
			Trace:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Timeline == nil {
			b.Fatal("no timeline")
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Timeline.Series)), "thread-series")
			b.ReportMetric(float64(len(res.Timeline.BucketStartNS)), "windows")
			b.ReportMetric(float64(res.Tracer.Captured), "events")
		}
	}
}

// BenchmarkTable2Overhead reproduces the tracer-overhead table and reports
// the measured slowdowns (paper: 1.04 / 1.37 / 1.71).
func BenchmarkTable2Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(500)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.Overhead, row.Mode.String()+"-x")
			}
		}
	}
}

// BenchmarkDropsRingBuffer sweeps ring capacity against event loss (§III-D).
func BenchmarkDropsRingBuffer(b *testing.B) {
	for _, ringBytes := range []int{32 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("ring=%dKiB", ringBytes>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunDrops(experiments.DropsConfig{
					RingBytesSweep: []int{ringBytes},
					Writes:         10_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Points[0].DropFraction*100, "drop-%")
				}
			}
		})
	}
}

// BenchmarkPathResolution compares DIO and Sysdig path coverage (§III-D).
func BenchmarkPathResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPathResolution(experiments.PathsConfig{Ops: 3_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.DIOUnresolved*100, "dio-unresolved-%")
			b.ReportMetric(res.SysdigUnresolved*100, "sysdig-unresolved-%")
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// benchTracedWorkload runs the synthetic workload under a tracer config and
// returns events shipped.
func benchTracedWorkload(b *testing.B, cfg core.Config, cycles int) core.Stats {
	b.Helper()
	k := kernel.New(kernel.Config{
		Clock: clock.NewReal(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	tracer, err := core.NewTracer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := tracer.Start(k); err != nil {
		b.Fatal(err)
	}
	task := k.NewProcess("w").NewTask("w")
	if err := comparators.RunWorkload(k, task, comparators.WorkloadConfig{}, cycles); err != nil {
		b.Fatal(err)
	}
	stats, err := tracer.Stop()
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// BenchmarkAblationFilterPushdown compares tracing everything against
// kernel-side filtering down to a narrow syscall set: the filtered
// configuration moves strictly less data to user space.
func BenchmarkAblationFilterPushdown(b *testing.B) {
	cases := []struct {
		name   string
		filter ebpf.Filter
	}{
		{"all-syscalls", ebpf.Filter{}},
		{"writes-only", ebpf.Filter{Syscalls: []kernel.Syscall{kernel.SysWrite}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var shipped uint64
			for i := 0; i < b.N; i++ {
				stats := benchTracedWorkload(b, core.Config{
					Backend:       memStore(b),
					Filter:        c.filter,
					FlushInterval: time.Millisecond,
				}, 100)
				shipped = stats.Shipped
			}
			b.ReportMetric(float64(shipped), "events-shipped")
		})
	}
}

// BenchmarkAblationBatchSize sweeps the bulk-indexing batch size (§II-B:
// events are grouped into buckets to cut per-request overhead).
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchTracedWorkload(b, core.Config{
					Backend:       memStore(b),
					BatchSize:     batch,
					FlushInterval: time.Millisecond,
				}, 100)
			}
		})
	}
}

// BenchmarkAblationEnrichment compares DIO-style full records against
// Sysdig-style minimal records at the ring-buffer level: enrichment costs
// bytes, which costs capacity.
func BenchmarkAblationEnrichment(b *testing.B) {
	full := ebpf.Record{
		NR: 1, PID: 1, TID: 1, Comm: "proc", TaskComm: "thread",
		Path: "/very/long/path/to/some/file.sst", Dev: 7340032, Ino: 42, BirthNS: 1,
	}
	full.SetHaveFile()
	full.SetHaveOffset()
	minimal := ebpf.Record{NR: 1, PID: 1, TID: 1, Comm: "proc"}
	b.Run("full-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := full.Marshal()
			if _, err := ebpf.Unmarshal(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(full.Size()), "bytes/event")
	})
	b.Run("minimal-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := minimal.Marshal()
			if _, err := ebpf.Unmarshal(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(minimal.Size()), "bytes/event")
	})
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkRingBufferWrite measures the kernel-side publication cost.
func BenchmarkRingBufferWrite(b *testing.B) {
	rb := ebpf.NewRingBuffer(1 << 30)
	rec := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Write(rec)
		if i%1024 == 1023 {
			rb.ReadBatch(2048)
		}
	}
}

// BenchmarkSyscallUntraced measures the kernel syscall fast path with no
// tracer attached (hook dispatch must be skipped entirely).
func BenchmarkSyscallUntraced(b *testing.B) {
	k := kernel.New(kernel.Config{
		Clock: clock.NewVirtual(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	task := k.NewProcess("w").NewTask("w")
	fd, err := task.Open("/f", kernel.ORdwr|kernel.OCreat, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	task.Write(fd, make([]byte, 4096))
	buf := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Pread64(fd, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyscallTraced measures the same syscall with the DIO program
// attached (interception + enrichment + ring publication).
func BenchmarkSyscallTraced(b *testing.B) {
	k := kernel.New(kernel.Config{
		Clock: clock.NewVirtual(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	prog := ebpf.NewProgram(ebpf.ProgramConfig{RingBytes: 1 << 30})
	prog.Attach(k)
	defer prog.Detach()
	task := k.NewProcess("w").NewTask("w")
	fd, err := task.Open("/f", kernel.ORdwr|kernel.OCreat, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	task.Write(fd, make([]byte, 4096))
	buf := make([]byte, 512)
	rings := prog.Rings().Rings()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Pread64(fd, buf, 0); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			for _, r := range rings {
				r.ReadBatch(4096)
			}
		}
	}
}

// benchWriteBatch is the 512-event write batch the ingest micro-benchmarks
// index.
func benchWriteBatch() []event.Event {
	evs := make([]event.Event, 512)
	for i := range evs {
		evs[i] = event.Event{Session: "s", Syscall: "write", ProcName: "app", TimeEnterNS: int64(i), RetVal: 4096}
	}
	return evs
}

// BenchmarkStoreBulkIndex measures backend ingestion throughput.
func BenchmarkStoreBulkIndex(b *testing.B) {
	docs := benchWriteBatch()
	b.ResetTimer()
	st := memStore(b)
	for i := 0; i < b.N; i++ {
		if err := st.BulkEvents(context.Background(), "bench", docs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(docs)), "docs/op")
}

// BenchmarkShipperOverhead measures what the resilience ladder costs on the
// happy path: the same bulk ingestion direct to the store versus through the
// retrying shipper (breaker check, spill probe, attempt bookkeeping) with no
// faults injected. The wrapper must stay within a few percent of direct.
func BenchmarkShipperOverhead(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		st := memStore(b)
		docs := benchWriteBatch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.BulkEvents(context.Background(), "bench", docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shipper", func(b *testing.B) {
		sh := resilience.NewShipper(memStore(b), resilience.Config{})
		docs := benchWriteBatch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sh.BulkEvents(context.Background(), "bench", docs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := sh.Stats(); s.Retries != 0 || s.SpillDropped != 0 {
			b.Fatalf("faults on the happy path: %+v", s)
		}
	})
}

// BenchmarkStoreQuery measures a filtered, aggregated search over 50k docs.
func BenchmarkStoreQuery(b *testing.B) {
	st := memStore(b)
	docs := make([]event.Event, 50_000)
	for i := range docs {
		enter := int64(i) * 1000
		docs[i] = event.Event{
			Session:     "s",
			Syscall:     []string{"read", "write", "close"}[i%3],
			ThreadName:  fmt.Sprintf("t%d", i%8),
			TimeEnterNS: enter,
			TimeExitNS:  enter + int64(i%997),
		}
	}
	if err := st.BulkEvents(context.Background(), "bench", docs); err != nil {
		b.Fatal(err)
	}
	req := store.SearchRequest{
		Query: store.Term(store.FieldSyscall, "write"),
		Size:  1,
		Aggs: map[string]store.Agg{
			"timeline": {
				DateHistogram: &store.DateHistogramAgg{Field: store.FieldTimeEnter, IntervalNS: 1_000_000},
				Aggs:          map[string]store.Agg{"t": {Terms: &store.TermsAgg{Field: store.FieldThreadName}}},
			},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Search(context.Background(), "bench", req); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBenchIndex fills an index of the given shard count (0 = default) with
// n session-shaped events.
func buildBenchIndex(n, shards int) *store.Index {
	ix := store.NewIndexWithShards("bench", shards)
	syscalls := []string{"read", "write", "openat", "close", "fsync", "lseek"}
	batch := make([]event.Event, 0, 4096)
	for i := 0; i < n; i++ {
		enter := int64(i) * 1000
		batch = append(batch, event.Event{
			Session:     "s",
			Syscall:     syscalls[i%len(syscalls)],
			ProcName:    "app",
			ThreadName:  fmt.Sprintf("t%d", i%16),
			TimeEnterNS: enter,
			TimeExitNS:  enter + int64(i%997),
		})
		if len(batch) == cap(batch) {
			ix.AddEvents(batch)
			batch = batch[:0]
		}
	}
	ix.AddEvents(batch)
	return ix
}

// benchOneShardVsSharded runs the same operation over a 120k-document index
// built with one shard (no fan-out, no merge) and with the default shard
// count, as sub-benchmarks.
func benchOneShardVsSharded(b *testing.B, op func(ix *store.Index)) {
	for _, arm := range []struct {
		name   string
		shards int
	}{{"shards=1", 1}, {"sharded", 0}} {
		ix := buildBenchIndex(120_000, arm.shards)
		b.Run(arm.name, func(b *testing.B) {
			op(ix) // warm the runs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(ix)
			}
		})
	}
}

// BenchmarkStoreSearchParallel measures what shard fan-out buys the search
// path (posting lists, range scan, per-shard top-k, k-way merge)
// over a session-scale index.
func BenchmarkStoreSearchParallel(b *testing.B) {
	req := store.SearchRequest{
		Query: store.Query{Bool: &store.BoolQuery{Must: []store.Query{
			store.Term(store.FieldSyscall, "write"),
			store.RangeGTE(store.FieldDuration, 500),
		}}},
		Sort: []store.SortField{{Field: store.FieldTimeEnter, Desc: true}},
		Size: 50,
	}
	benchOneShardVsSharded(b, func(ix *store.Index) {
		resp := ix.Search(req)
		if resp.Total == 0 {
			b.Fatal("no matches")
		}
	})
}

// BenchmarkAggFanout contrasts merged per-shard aggregation partials with
// the same aggregations over a single shard.
func BenchmarkAggFanout(b *testing.B) {
	req := store.SearchRequest{
		Query: store.MatchAll(),
		Size:  1,
		Aggs: map[string]store.Agg{
			"timeline": {DateHistogram: &store.DateHistogramAgg{
				Field: store.FieldTimeEnter, IntervalNS: 10_000_000,
			}},
			"by_sys": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
			"lat":    {Percentiles: &store.PercentilesAgg{Field: store.FieldDuration}},
			"stats":  {Stats: &store.StatsAgg{Field: store.FieldDuration}},
		},
	}
	benchOneShardVsSharded(b, func(ix *store.Index) {
		resp := ix.Search(req)
		if len(resp.Aggs) != 4 {
			b.Fatal("missing aggs")
		}
	})
}

// BenchmarkStoreCountRange contrasts a range count summed over the shards
// with the same count on a single shard.
func BenchmarkStoreCountRange(b *testing.B) {
	q := store.RangeBetween(store.FieldDuration, 100, 900)
	benchOneShardVsSharded(b, func(ix *store.Index) {
		if ix.Count(q) == 0 {
			b.Fatal("no matches")
		}
	})
}

// BenchmarkTracerDrainWorkers contrasts the original single consumer loop
// (DrainWorkers=1) with one drain worker per CPU ring (the default). The
// rings are filled while the workers idle on a long flush interval; the
// timed section is Stop's final drain — parse, batch, and ship of the whole
// backlog, which is where the workers run in parallel.
func BenchmarkTracerDrainWorkers(b *testing.B) {
	run := func(b *testing.B, workers int) {
		var shipped uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k := kernel.New(kernel.Config{
				Clock: clock.NewReal(0),
				Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
			})
			tracer, err := core.NewTracer(core.Config{
				Backend:       memStore(b),
				NumCPU:        4,
				RingBytes:     64 << 20,
				BatchSize:     1024,
				FlushInterval: time.Hour, // idle the workers; Stop drains
				DrainWorkers:  workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := tracer.Start(k); err != nil {
				b.Fatal(err)
			}
			// One producer task per simulated CPU so every ring gets a share.
			for t := 0; t < 4; t++ {
				task := k.NewProcess("w").NewTask(fmt.Sprintf("w%d", t))
				if err := comparators.RunWorkload(k, task, comparators.WorkloadConfig{}, 100); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			stats, err := tracer.Stop()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Dropped > 0 {
				b.Fatalf("unexpected drops: %d", stats.Dropped)
			}
			shipped = stats.Shipped
		}
		b.ReportMetric(float64(shipped), "events-shipped")
	}
	b.Run("single-consumer", func(b *testing.B) { run(b, 1) })
	b.Run("per-ring", func(b *testing.B) { run(b, 0) })
}

// BenchmarkTelemetryOverhead measures what the self-accounting layer
// (DESIGN.md §9) costs on the drain+ship hot path: the same pre-filled-ring
// drain as BenchmarkTracerDrainWorkers, with telemetry disabled (ablation,
// Config.DisableTelemetry) versus enabled. The acceptance bar is < 5% added
// cost; BENCH_store.json holds the historical measurement next to the
// shipper-overhead number.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, disabled bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k := kernel.New(kernel.Config{
				Clock: clock.NewReal(0),
				Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
			})
			tracer, err := core.NewTracer(core.Config{
				Backend:          memStore(b),
				NumCPU:           4,
				RingBytes:        64 << 20,
				BatchSize:        1024,
				FlushInterval:    time.Hour, // idle the workers; Stop drains
				DisableTelemetry: disabled,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := tracer.Start(k); err != nil {
				b.Fatal(err)
			}
			for t := 0; t < 4; t++ {
				task := k.NewProcess("w").NewTask(fmt.Sprintf("w%d", t))
				if err := comparators.RunWorkload(k, task, comparators.WorkloadConfig{}, 100); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			stats, err := tracer.Stop()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Dropped > 0 {
				b.Fatalf("unexpected drops: %d", stats.Dropped)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, true) })
	b.Run("enabled", func(b *testing.B) { run(b, false) })
}

// BenchmarkCorrelation measures the file-path correlation algorithm.
func BenchmarkCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open()
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 100; f++ {
			tag := event.FileTag{Dev: 1, Ino: uint64(f), BirthNS: 5}
			file := make([]event.Event, 1, 101)
			file[0] = event.Event{Session: "s", Syscall: "openat", FileTag: tag, KernelPath: fmt.Sprintf("/f/%d", f)}
			for e := 0; e < 100; e++ {
				file = append(file, event.Event{Session: "s", Syscall: "write", FileTag: tag})
			}
			if err := st.BulkEvents(context.Background(), "bench", file); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := st.Correlate(context.Background(), "bench", "s")
		if err != nil || res.EventsUpdated == 0 {
			b.Fatalf("correlation updated nothing (%v)", err)
		}
	}
}

// BenchmarkAblationPairing compares kernel-space entry/exit aggregation
// (DIO's design, one record per syscall) against unpaired emission (two
// records per syscall, pairing deferred to user space).
func BenchmarkAblationPairing(b *testing.B) {
	run := func(b *testing.B, unpaired bool) {
		for i := 0; i < b.N; i++ {
			k := kernel.New(kernel.Config{
				Clock: clock.NewVirtual(0),
				Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
			})
			prog := ebpf.NewProgram(ebpf.ProgramConfig{
				RingBytes:    1 << 30,
				EmitUnpaired: unpaired,
			})
			prog.Attach(k)
			task := k.NewProcess("w").NewTask("w")
			if err := comparators.RunWorkload(k, task, comparators.WorkloadConfig{}, 50); err != nil {
				b.Fatal(err)
			}
			prog.Detach()
			if i == 0 {
				b.ReportMetric(float64(prog.Rings().Writes()), "ring-records")
			}
		}
	}
	b.Run("kernel-paired", func(b *testing.B) { run(b, false) })
	b.Run("unpaired", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationBlockingRing contrasts DIO's non-blocking ring (drops
// under pressure, no application slowdown) with a blocking back-pressure
// ring (no loss, producer stalls) — the §I design trade-off quantified.
func BenchmarkAblationBlockingRing(b *testing.B) {
	run := func(b *testing.B, blocking bool) {
		for i := 0; i < b.N; i++ {
			ring := ebpf.NewRingBuffer(64 << 10)
			ring.SetBlocking(blocking)
			rec := make([]byte, 128)
			done := make(chan struct{})
			// Consumer drains slowly.
			go func() {
				defer close(done)
				for {
					batch := ring.ReadBatch(64)
					if batch == nil {
						select {
						case <-ring.Notify():
							continue
						case <-time.After(50 * time.Millisecond):
							return
						}
					}
				}
			}()
			for j := 0; j < 50_000; j++ {
				ring.Write(rec)
			}
			ring.Close()
			<-done
			if i == 0 {
				b.ReportMetric(float64(ring.Drops()), "drops")
				b.ReportMetric(float64(ring.Blocks()), "producer-stalls")
			}
		}
	}
	b.Run("non-blocking", func(b *testing.B) { run(b, false) })
	b.Run("blocking", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPageCache contrasts cold reads (every page from the
// device) with warm reads served by the kernel's opt-in page cache.
func BenchmarkAblationPageCache(b *testing.B) {
	mk := func(cacheBytes int64) (*kernel.Kernel, *kernel.Task, int) {
		k := kernel.New(kernel.Config{
			Clock: clock.NewVirtual(0),
			Disk: kernel.DiskConfig{
				BytesPerSecond: 400 << 20,
				PerOpLatency:   20 * time.Microsecond,
				PageCacheBytes: cacheBytes,
			},
		})
		task := k.NewProcess("w").NewTask("w")
		fd, err := task.Open("/f", kernel.ORdwr|kernel.OCreat, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		task.Write(fd, make([]byte, 1<<20))
		return k, task, fd
	}
	b.Run("no-cache", func(b *testing.B) {
		k, task, fd := mk(0)
		buf := make([]byte, 4096)
		start := k.Clock().NowNS()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task.Pread64(fd, buf, int64(i%256)*4096)
		}
		b.ReportMetric(float64(k.Clock().NowNS()-start)/float64(b.N), "sim-ns/read")
	})
	b.Run("warm-cache", func(b *testing.B) {
		k, task, fd := mk(8 << 20)
		buf := make([]byte, 4096)
		start := k.Clock().NowNS()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task.Pread64(fd, buf, int64(i%256)*4096)
		}
		b.ReportMetric(float64(k.Clock().NowNS()-start)/float64(b.N), "sim-ns/read")
	})
}

// memStore opens an in-memory store.
func memStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
