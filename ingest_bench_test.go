// Ingest data-plane benchmark: the event pipeline (ring record →
// event.Event batch → binary frame → Index.AddEvents) through a real HTTP
// server, so the numbers capture parse, encode, transport, decode, journal,
// and indexing. BENCH_store.json is the historical record of these numbers;
// current ones are this file's `go test -bench` output.
package dio_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

const ingestBatchSize = 512

// ingestRecords pre-marshals one batch of realistic ring records: the
// parse stage runs inside the timed loop (it is part of both pipelines),
// but record construction does not.
func ingestRecords() [][]byte {
	raws := make([][]byte, ingestBatchSize)
	syscalls := []uint16{0, 1, 17, 18, 257, 3, 8} // read, write, pread64, pwrite64, openat, close, lseek
	for i := range raws {
		r := ebpf.Record{
			NR:       syscalls[i%len(syscalls)],
			PID:      42,
			TID:      int32(43 + i%4),
			EnterNS:  int64(i) * 1500,
			ExitNS:   int64(i)*1500 + 900,
			Ret:      4096,
			FD:       7,
			Count:    4096,
			Comm:     "db_bench",
			TaskComm: "worker",
		}
		if i%len(syscalls) == 4 {
			r.Path = "/data/db/LOG"
		}
		r.SetHaveFile()
		r.Dev = 7340032
		r.Ino = uint64(12 + i%16)
		r.BirthNS = 2156997363734000
		if i%2 == 0 {
			r.SetHaveOffset()
			r.Offset = int64(i) * 4096
		}
		raws[i] = r.Marshal()
	}
	return raws
}

// ingestParse mirrors the tracer's drain loop: one reused Record, one
// appended event per raw buffer.
func ingestParse(raws [][]byte, dst []event.Event) []event.Event {
	var rec ebpf.Record
	for _, raw := range raws {
		if err := ebpf.UnmarshalInto(raw, &rec); err != nil {
			panic(err)
		}
		nr := kernel.Syscall(rec.NR)
		e := event.Event{
			Session:     "bench",
			Syscall:     nr.String(),
			Class:       nr.Class().String(),
			RetVal:      rec.Ret,
			FD:          int(rec.FD),
			ArgPath:     rec.Path,
			Count:       int(rec.Count),
			PID:         int(rec.PID),
			TID:         int(rec.TID),
			ProcName:    rec.Comm,
			ThreadName:  rec.TaskComm,
			TimeEnterNS: rec.EnterNS,
			TimeExitNS:  rec.ExitNS,
			KernelPath:  rec.Path,
		}
		if rec.HaveFile() {
			e.FileTag = event.FileTag{Dev: rec.Dev, Ino: rec.Ino, BirthNS: rec.BirthNS}
		}
		if rec.HaveOffset() {
			e.HasOffset = true
			e.Offset = rec.Offset
		}
		dst = append(dst, e)
	}
	return dst
}

// BenchmarkIngestWALOverhead prices the durability layer on the deployed
// ingest path: the same 512-event batches shipped as binary frames through a
// real HTTP server (the received frame is journaled verbatim, so the WAL
// pays no re-encode) into an in-memory store versus durable stores under
// each fsync policy. The acceptance bar for the default interval policy is
// <=15% events/sec below in-memory (BENCH_store.json holds the historical
// measurement).
func BenchmarkIngestWALOverhead(b *testing.B) {
	raws := ingestRecords()
	run := func(b *testing.B, opts ...store.Option) {
		st, err := store.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		srv := httptest.NewServer(store.NewServer(st))
		defer srv.Close()
		c := store.NewClient(srv.URL)
		batch := make([]event.Event, 0, ingestBatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch = ingestParse(raws, batch[:0])
			if err := c.BulkEvents(context.Background(), "bench", batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ingestBatchSize), "events/op")
	}
	b.Run("Memory", func(b *testing.B) { run(b) })
	b.Run("WALInterval", func(b *testing.B) {
		run(b, store.WithDataDir(b.TempDir()), store.WithFsyncPolicy(store.FsyncInterval), store.WithSnapshotInterval(0))
	})
	b.Run("WALAlways", func(b *testing.B) {
		run(b, store.WithDataDir(b.TempDir()), store.WithFsyncPolicy(store.FsyncAlways), store.WithSnapshotInterval(0))
	})
	b.Run("WALOff", func(b *testing.B) {
		run(b, store.WithDataDir(b.TempDir()), store.WithFsyncPolicy(store.FsyncOff), store.WithSnapshotInterval(0))
	})
}

// BenchmarkIngestAtScale ingests a million events into one durable index
// (interval fsync, as diod runs), closes the store and reopens it. The
// 100-iteration benchmarks above stop near 50 k rows, where the cost of
// growing row storage — paid on ingest and again on WAL replay — has not
// started to show; this one reports it as ns/event and B/event of ingest and
// events/s of recovery, and live-B/event: the live heap the reopened store
// holds after a forced GC, per event — the row storage the end-to-end
// heap_bytes_per_event prices. Run with -benchtime=1x.
func BenchmarkIngestAtScale(b *testing.B) {
	const total = 1_000_000
	batch := ingestParse(ingestRecords(), nil)
	ctx := context.Background()
	var ingest, replay time.Duration
	var allocated, live uint64
	for i := 0; i < b.N; i++ {
		opts := []store.Option{
			store.WithDataDir(b.TempDir()), store.WithFsyncPolicy(store.FsyncInterval), store.WithSnapshotInterval(0),
		}
		st, err := store.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for n := 0; n < total; n += len(batch) {
			if err := st.BulkEvents(ctx, "bench", batch[:min(len(batch), total-n)]); err != nil {
				b.Fatal(err)
			}
		}
		ingest += time.Since(start)
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		start = time.Now()
		re, err := store.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		replay += time.Since(start)
		if n, err := re.Count(ctx, "bench", store.MatchAll()); err != nil || n != total {
			b.Fatalf("recovered %d of %d events: %v", n, total, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		live += after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
		re.Close()
	}
	events := float64(total) * float64(b.N)
	b.ReportMetric(float64(ingest.Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(allocated)/events, "B/event")
	b.ReportMetric(events/replay.Seconds(), "replay-events/s")
	b.ReportMetric(float64(live)/events, "live-B/event")
}
