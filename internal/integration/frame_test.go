package integration

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// TestFrameBytesPerEvent: a traced op mix over 64 files — per visit one
// openat, 16 data ops drawn by a seeded RNG from {write 512 B, pread64 of a
// random 4 KiB block, lseek, read}, one close — costs at most 45 frame
// bytes per event in the tracer's 512-event batches, and at most 45 bytes
// per row in a segment file holding the same rows. The rows are read back in
// capture order and cut at 512, so the figure depends on the workload alone,
// not on when the tracer happened to flush.
func TestFrameBytesPerEvent(t *testing.T) {
	const (
		files, opsPerVisit, syscalls = 64, 16, 20_000
		batch                        = 512
		maxBytesPerEvent             = 45
	)
	st := memStore(t)
	defer st.Close()
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, time.Microsecond)})
	if err := k.MkdirAll("/bench"); err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracer(core.Config{
		SessionName: "frame", Index: "frame", Backend: st,
		RingBytes: 32 << 20, FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(k); err != nil {
		t.Fatal(err)
	}
	task := k.NewProcess("app").NewTask("w0")
	rng := rand.New(rand.NewSource(1))
	var wbuf [512]byte
	var rbuf [4096]byte
	for issued := 0; issued < syscalls; {
		fd, err := task.Openat(kernel.AtFDCWD, fmt.Sprintf("/bench/f%02d.dat", rng.Intn(files)), kernel.ORdwr|kernel.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < opsPerVisit; op++ {
			switch rng.Intn(4) {
			case 0:
				_, err = task.Write(fd, wbuf[:])
			case 1:
				_, err = task.Pread64(fd, rbuf[:], int64(rng.Intn(16))*4096)
			case 2:
				_, err = task.Lseek(fd, int64(rng.Intn(16))*512, kernel.SeekSet)
			default:
				_, err = task.Read(fd, rbuf[:])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := task.Close(fd); err != nil {
			t.Fatal(err)
		}
		issued += opsPerVisit + 2
	}
	stats, err := tr.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 || stats.Shipped != stats.Captured {
		t.Fatalf("tracer lost events: %+v", stats)
	}
	res, err := st.SearchEvents(context.Background(), "frame", store.SearchRequest{
		Query: store.MatchAll(), Sort: []store.SortField{{Field: store.FieldTimeEnter}}, Size: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.Hits)) != stats.Captured {
		t.Fatalf("read back %d events, the tracer captured %d", len(res.Hits), stats.Captured)
	}
	var frame []byte
	total := 0
	for i := 0; i < len(res.Hits); i += batch {
		frame = event.EncodeBatch(frame[:0], res.Hits[i:min(i+batch, len(res.Hits))])
		total += len(frame)
	}
	perEvent := float64(total) / float64(len(res.Hits))
	t.Logf("%d events, %.1f frame bytes/event", len(res.Hits), perEvent)
	if perEvent > maxBytesPerEvent {
		t.Fatalf("frames cost %.1f bytes/event, budget is %d", perEvent, maxBytesPerEvent)
	}

	path := filepath.Join(t.TempDir(), durable.SegmentName(0))
	if _, err := durable.WriteSegment(path, 1, hitRows(res.Hits)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(fi.Size()) / float64(len(res.Hits))
	t.Logf("%.1f segment bytes/row", perRow)
	if perRow > maxBytesPerEvent {
		t.Fatalf("the segment costs %.1f bytes/row, budget is %d", perRow, maxBytesPerEvent)
	}
}

// hitRows adapts read-back events to durable.RowSource.
type hitRows []event.Event

func (h hitRows) NumRows() int                 { return len(h) }
func (h hitRows) Row(i int) durable.SegmentRow { return durable.SegmentRow{Event: &h[i]} }
