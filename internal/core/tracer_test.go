package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

func newTracedKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, time.Microsecond)})
	if err := k.MkdirAll("/tmp"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	return k
}

func TestNewTracerValidation(t *testing.T) {
	if _, err := NewTracer(Config{}); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err = %v, want ErrNoBackend", err)
	}
	tr, err := NewTracer(Config{Backend: memStore(t)})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	if tr.Session() == "" || tr.Index() != "dio-events" {
		t.Fatalf("defaults: session=%q index=%q", tr.Session(), tr.Index())
	}
}

func TestTracerLifecycleErrors(t *testing.T) {
	k := newTracedKernel(t)
	tr, _ := NewTracer(Config{Backend: memStore(t)})
	if _, err := tr.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Stop before Start = %v", err)
	}
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := tr.Start(k); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start = %v", err)
	}
	if _, err := tr.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// Stop twice is safe.
	if _, err := tr.Stop(); err != nil {
		t.Fatalf("double Stop: %v", err)
	}
}

func TestTracerEndToEnd(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	tr, _ := NewTracer(Config{
		SessionName:   "e2e",
		Index:         "events",
		Backend:       backend,
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}

	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/app.log", kernel.OWronly|kernel.OCreat, 0o644)
	task.Write(fd, []byte("hello, tracing world! 26 b"))
	task.Close(fd)
	task.Unlink("/tmp/app.log")

	st, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Captured != 4 || st.Parsed != 4 || st.Shipped != 4 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}

	resp, err := backend.SearchEvents(context.Background(), "events", store.SearchRequest{
		Query: store.Term(store.FieldSession, "e2e"),
		Sort:  []store.SortField{{Field: store.FieldTimeEnter}},
	})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if resp.Total != 4 {
		t.Fatalf("indexed events = %d, want 4", resp.Total)
	}

	evs := resp.Hits
	if evs[0].Syscall != "openat" || evs[1].Syscall != "write" ||
		evs[2].Syscall != "close" || evs[3].Syscall != "unlink" {
		t.Fatalf("event order: %v %v %v %v",
			evs[0].Syscall, evs[1].Syscall, evs[2].Syscall, evs[3].Syscall)
	}
	// The write has offset enrichment and a correlated file path.
	w := evs[1]
	if !w.HasOffset || w.Offset != 0 {
		t.Fatalf("write offset enrichment: %+v", w)
	}
	if w.FilePath != "/tmp/app.log" {
		t.Fatalf("write file_path = %q (correlation failed)", w.FilePath)
	}
	if w.FileType != "regular" {
		t.Fatalf("write file_type = %q", w.FileType)
	}
	if w.RetVal != 26 || w.Count != 26 {
		t.Fatalf("write ret/count = %d/%d", w.RetVal, w.Count)
	}
	if st.Correlation.EventsUnresolved != 0 {
		t.Fatalf("correlation left %d unresolved", st.Correlation.EventsUnresolved)
	}
}

func TestTracerFiltersToConfiguredSyscalls(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	tr, _ := NewTracer(Config{
		SessionName: "subset",
		Index:       "events",
		Backend:     backend,
		Filter: ebpf.Filter{
			Syscalls: []kernel.Syscall{kernel.SysOpenat, kernel.SysRead, kernel.SysWrite, kernel.SysClose},
		},
		FlushInterval: time.Millisecond,
	})
	tr.Start(k)

	task := k.NewProcess("db").NewTask("db")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/x", kernel.ORdwr|kernel.OCreat, 0o644)
	task.Write(fd, []byte("abc"))
	task.Fsync(fd) // not traced
	task.Stat("/tmp/x")
	task.Close(fd)

	st, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Shipped != 3 {
		t.Fatalf("shipped = %d, want 3 (open,write,close)", st.Shipped)
	}
	n, _ := backend.Count(context.Background(), "events", store.Term(store.FieldSyscall, "fsync"))
	if n != 0 {
		t.Fatal("fsync event leaked past syscall filter")
	}
}

func TestTracerMultipleSessionsShareBackend(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	run := func(session string) {
		tr, _ := NewTracer(Config{
			SessionName:   session,
			Index:         "events",
			Backend:       backend,
			FlushInterval: time.Millisecond,
		})
		tr.Start(k)
		task := k.NewProcess("app-" + session).NewTask("app")
		fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/f-"+session, kernel.OWronly|kernel.OCreat, 0o644)
		task.Close(fd)
		if _, err := tr.Stop(); err != nil {
			t.Fatalf("stop %s: %v", session, err)
		}
	}
	run("r1")
	run("r2")
	n1, _ := backend.Count(context.Background(), "events", store.Term(store.FieldSession, "r1"))
	n2, _ := backend.Count(context.Background(), "events", store.Term(store.FieldSession, "r2"))
	if n1 != 2 || n2 != 2 {
		t.Fatalf("per-session counts = %d/%d, want 2/2", n1, n2)
	}
}

func TestTracerDropAccounting(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	tr, _ := NewTracer(Config{
		SessionName: "drops",
		Index:       "events",
		Backend:     backend,
		RingBytes:   600, // a handful of records
		// Long flush interval so the consumer cannot keep up.
		FlushInterval: time.Hour,
	})
	tr.Start(k)

	task := k.NewProcess("storm").NewTask("storm")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/s", kernel.OWronly|kernel.OCreat, 0o644)
	for i := 0; i < 200; i++ {
		task.Write(fd, []byte("x"))
	}
	task.Close(fd)

	st, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Dropped == 0 {
		t.Fatal("expected drops with tiny ring and stalled consumer")
	}
	if st.Shipped+st.Dropped != st.Captured {
		t.Fatalf("shipped(%d)+dropped(%d) != captured(%d)", st.Shipped, st.Dropped, st.Captured)
	}
	if st.DropFraction() <= 0 || st.DropFraction() >= 1 {
		t.Fatalf("drop fraction = %v", st.DropFraction())
	}
}

// failingBackend fails every bulk request.
type failingBackend struct{ store.Backend }

func (f failingBackend) BulkEvents(context.Context, string, []event.Event) error {
	return errors.New("backend unavailable")
}

func TestTracerShipErrorsSurface(t *testing.T) {
	k := newTracedKernel(t)
	tr, _ := NewTracer(Config{
		Backend:       failingBackend{memStore(t)},
		FlushInterval: time.Millisecond,
		Resilience:    virtualResilience(),
	})
	tr.Start(k)
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/f", kernel.OWronly|kernel.OCreat, 0o644)
	task.Close(fd)
	st, err := tr.Stop()
	if err == nil {
		t.Fatal("Stop returned nil despite ship failures")
	}
	if st.Shipped != 0 || st.SpillDropped != st.Captured {
		t.Fatalf("stats = %+v", st)
	}
	assertLedgerBalanced(t, tr)
}

func TestTracerOverHTTPBackend(t *testing.T) {
	k := newTracedKernel(t)
	st := memStore(t)
	srv := newHTTPServer(t, st)
	client := store.NewClient(srv)

	tr, _ := NewTracer(Config{
		SessionName:   "http",
		Index:         "events",
		Backend:       client,
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	tr.Start(k)
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/h", kernel.OWronly|kernel.OCreat, 0o644)
	task.Write(fd, []byte("remote"))
	task.Close(fd)
	stats, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if stats.Shipped != 3 {
		t.Fatalf("shipped = %d", stats.Shipped)
	}
	n, _ := st.Count(context.Background(), "events", store.Exists(store.FieldFilePath))
	if n != 3 {
		t.Fatalf("correlated events at remote store = %d, want 3", n)
	}
}
