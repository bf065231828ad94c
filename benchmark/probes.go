package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// Probes run after a traced pipeline run: the benchmark calls one layer's
// public functions directly, single-threaded, on records and events of that
// workload, to price the layer alone. Unit cost x count / wall is then the
// layer's share of a core.

const probeSyscalls = 40000

// discardBackend acks every batch without doing anything with it.
type discardBackend struct{ store.Backend }

func (discardBackend) BulkEvents(context.Context, string, []event.Event) error { return nil }

// probeKernel returns ns per syscall of the shared op mix, bare or with the
// tracer attached in front of a discard backend.
func probeKernel(seed int64, traced bool) (float64, error) {
	k := kernel.New(kernel.Config{Clock: clock.NewReal(time.Now().UnixNano()), Disk: freeDisk})
	if err := k.MkdirAll("/bench"); err != nil {
		return 0, err
	}
	if traced {
		tracer, err := core.NewTracer(core.Config{SessionName: "probe", NumCPU: liveRings, Backend: discardBackend{}})
		if err != nil {
			return 0, err
		}
		if err := tracer.Start(k); err != nil {
			return 0, err
		}
		defer tracer.Stop()
	}
	g := newOpGen(k.NewProcess("app").NewTask("w0"), seed)
	start := time.Now()
	for i := 0; i < probeSyscalls; i++ {
		g.step()
	}
	d := time.Since(start)
	if g.failed > 0 {
		return 0, fmt.Errorf("kernel probe: %d syscalls failed", g.failed)
	}
	return float64(d.Nanoseconds()) / probeSyscalls, nil
}

// probeIngest prices the write path's layers on the run's own events and WAL.
func probeIngest(cfg runConfig, m *metricSet, sample []event.Event, dataDir string) error {
	bare, err := probeKernel(cfg.seed, false)
	if err != nil {
		return err
	}
	traced, err := probeKernel(cfg.seed, true)
	if err != nil {
		return err
	}
	m.set("kernel.syscall_ns", bare)
	m.set("ebpf.capture_ns", traced-bare)

	// Raw ring records of the same op mix, captured by the program alone.
	k := kernel.New(kernel.Config{Clock: clock.NewReal(time.Now().UnixNano()), Disk: freeDisk})
	if err := k.MkdirAll("/bench"); err != nil {
		return err
	}
	prog := ebpf.NewProgram(ebpf.ProgramConfig{NumCPU: 1})
	prog.Attach(k)
	g := newOpGen(k.NewProcess("app").NewTask("w0"), cfg.seed)
	for i := 0; i < probeSample; i++ {
		g.step()
	}
	raws := prog.Rings().Rings()[0].ReadBatch(probeSample)
	prog.Detach()
	if len(raws) == 0 {
		return fmt.Errorf("ring probe captured no records")
	}
	const rounds = 20
	ring := ebpf.NewRingBuffer(ebpf.DefaultRingBytes)
	var bytes int
	var dst [][]byte
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, raw := range raws {
			ring.Write(raw)
		}
		dst = ring.ReadBatchInto(dst[:0], len(raws))
	}
	m.set("ebpf.ring_ns_per_record", float64(time.Since(start).Nanoseconds())/float64(rounds*len(raws)))
	var rec ebpf.Record
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, raw := range raws {
			if err := ebpf.UnmarshalInto(raw, &rec); err != nil {
				return fmt.Errorf("unmarshal probe: %w", err)
			}
		}
	}
	m.set("ebpf.unmarshal_ns_per_record", float64(time.Since(start).Nanoseconds())/float64(rounds*len(raws)))
	for _, raw := range raws {
		bytes += len(raw)
	}
	m.set("ebpf.record_bytes", float64(bytes)/float64(len(raws)))

	if len(sample) == 0 {
		return fmt.Errorf("no acked events captured for the codec probes")
	}
	// The event codec and the in-memory index on the run's own events, in
	// the tracer's batch size.
	const batch = 512
	var frame []byte
	var frames [][]byte
	start = time.Now()
	for r := 0; r < rounds; r++ {
		frames = frames[:0]
		for i := 0; i < len(sample); i += batch {
			frame = event.EncodeBatch(frame[:0], sample[i:min(i+batch, len(sample))])
			if r == rounds-1 {
				frames = append(frames, append([]byte(nil), frame...))
			}
		}
	}
	m.set("event.encode_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(rounds*len(sample)))
	var frameBytes int
	for _, f := range frames {
		frameBytes += len(f)
	}
	m.set("event.frame_bytes_per_event", float64(frameBytes)/float64(len(sample)))
	var decoded []event.Event
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if decoded, err = event.DecodeBatch(f, decoded[:0]); err != nil {
				return fmt.Errorf("decode probe: %w", err)
			}
		}
	}
	m.set("event.decode_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(rounds*len(sample)))

	mem, err := store.Open()
	if err != nil {
		return err
	}
	ctx := context.Background()
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < len(sample); i += batch {
			if err := mem.BulkEvents(ctx, "probe", sample[i:min(i+batch, len(sample))]); err != nil {
				return fmt.Errorf("index probe: %w", err)
			}
		}
	}
	m.set("store.index.add_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(rounds*len(sample)))

	// WAL replay of the run's own log, decoding each journaled frame.
	wals, err := filepath.Glob(filepath.Join(dataDir, "ix-*", "wal-*.log"))
	if err != nil {
		return err
	}
	replayed := 0
	start = time.Now()
	for _, wal := range wals {
		_, err := durable.ReplayWAL(wal, func(t durable.RecordType, payload []byte) error {
			if t != durable.RecordEvents {
				return nil
			}
			decoded, err = event.DecodeBatch(payload, decoded[:0])
			replayed += len(decoded)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay probe: %w", err)
		}
	}
	if replayed > 0 {
		m.setN("durable.replay_events_per_s", float64(replayed)/time.Since(start).Seconds(), replayed)
	}
	return nil
}

// eventRows adapts a typed batch to durable.RowSource.
type eventRows []event.Event

func (r eventRows) NumRows() int                 { return len(r) }
func (r eventRows) Row(i int) durable.SegmentRow { return durable.SegmentRow{Event: &r[i]} }

// probeSegments prices the columnar segment format on cold_history's rows:
// one trace-minute per segment, then a four-segment merge.
func probeSegments(cfg runConfig, m *metricSet, hist *coldHistory) error {
	dir, err := freshDir(cfg.outDir, "segments")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const fan = 4
	var metas []durable.SegmentMeta
	var writeNS, readNS, bytes int64
	rows := 0
	for c := 0; c < fan; c++ {
		evs := eventRows(hist.chunk(c))
		path := filepath.Join(dir, durable.SegmentName(c))
		start := time.Now()
		info, err := durable.WriteSegment(path, liveRings, evs)
		if err != nil {
			return fmt.Errorf("segment write probe: %w", err)
		}
		writeNS += time.Since(start).Nanoseconds()
		start = time.Now()
		if _, err := durable.ReadSegment(path, func(int, *event.Event, []byte) error { return nil }); err != nil {
			return fmt.Errorf("segment read probe: %w", err)
		}
		readNS += time.Since(start).Nanoseconds()
		bytes += info.Bytes
		metas = append(metas, durable.SegmentMeta{
			Seq: c, Rows: int64(len(evs)), StartRow: int64(rows), EndRow: int64(rows + len(evs)),
			MinTime: info.MinTime, MaxTime: info.MaxTime, Bytes: info.Bytes,
		})
		rows += len(evs)
	}
	start := time.Now()
	if _, err := durable.MergeSegments(dir, metas, fan, liveRings, nil, nil); err != nil {
		return fmt.Errorf("segment merge probe: %w", err)
	}
	m.set("durable.merge_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(rows))
	m.set("durable.segment_write_ns_per_row", float64(writeNS)/float64(rows))
	m.set("durable.segment_read_ns_per_row", float64(readNS)/float64(rows))
	m.set("durable.segment_bytes_per_row", float64(bytes)/float64(rows))
	return nil
}

// pageCounter is a Backend over the in-process store that counts and times
// the cursor pages an analysis pulls through it.
type pageCounter struct {
	*store.Store
	pageMS samples
}

func (p *pageCounter) Search(ctx context.Context, index string, req store.SearchRequest) (store.SearchResponse, error) {
	start := time.Now()
	resp, err := p.Store.Search(ctx, index, req)
	p.pageMS.addDur(time.Since(start))
	return resp, err
}

func (p *pageCounter) SearchEvents(ctx context.Context, index string, req store.SearchRequest) (store.EventsResult, error) {
	start := time.Now()
	resp, err := p.Store.SearchEvents(ctx, index, req)
	p.pageMS.addDur(time.Since(start))
	return resp, err
}

// probeDiagnose runs the engine once in-process through a counting Backend:
// how many cursor pages one Engine.Run pulls, what a hot page costs, and
// what the run allocates per event.
func probeDiagnose(m *metricSet, st *store.Store) error {
	pc := &pageCounter{Store: st}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := diagnose.NewEngine(diagnose.DefaultRegistry()).Run(context.Background(), pc, sessionIndex, sessionBuggy)
	if err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	runtime.ReadMemStats(&after)
	m.set("diagnose.pages", float64(pc.pageMS.n()))
	m.set("diagnose.allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(max(rep.Events, 1)))
	m.setN("store.cursor.hot_page_ms_p50", pc.pageMS.q(0.5), pc.pageMS.n())
	return nil
}
