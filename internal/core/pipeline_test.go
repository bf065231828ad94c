package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// TestNearRealTimeVisibility verifies the in-line pipeline property of
// §II: events become queryable at the backend while the application is
// still running, without stopping the tracer.
func TestNearRealTimeVisibility(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	tracer, _ := NewTracer(Config{
		SessionName:   "live",
		Index:         "events",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	if err := tracer.Start(k); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer tracer.Stop()

	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/live", kernel.OWronly|kernel.OCreat, 0o644)
	task.Write(fd, []byte("x"))

	// Without stopping the tracer, the events must appear at the backend.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, _ := backend.Count(context.Background(), "events", store.Term(store.FieldSession, "live"))
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events not visible in near real time (count=%d)", n)
		}
		time.Sleep(time.Millisecond)
	}
	task.Close(fd)
}

// TestTracerConcurrentTasks verifies correct attribution when many threads
// of several processes issue syscalls simultaneously.
func TestTracerConcurrentTasks(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	tracer, _ := NewTracer(Config{
		SessionName:   "mt",
		Index:         "events",
		Backend:       backend,
		NumCPU:        4,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)

	const (
		procs     = 3
		threads   = 4
		opsPerThr = 50
	)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		proc := k.NewProcess("proc")
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(p, th int) {
				defer wg.Done()
				task := proc.NewTask("worker")
				path := "/tmp/mt"
				fd, err := task.Openat(kernel.AtFDCWD, path, kernel.ORdwr|kernel.OCreat, 0o644)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				for i := 0; i < opsPerThr; i++ {
					task.Pwrite64(fd, []byte("y"), int64(i))
				}
				task.Close(fd)
			}(p, th)
		}
	}
	wg.Wait()
	st, err := tracer.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	wantEvents := uint64(procs * threads * (opsPerThr + 2))
	if st.Shipped != wantEvents {
		t.Fatalf("shipped = %d, want %d", st.Shipped, wantEvents)
	}
	// Every event is attributed to a distinct tid within the right pid.
	resp, _ := backend.Search(context.Background(), "events", store.SearchRequest{
		Query: store.Term(store.FieldSession, "mt"),
		Size:  1,
		Aggs: map[string]store.Agg{
			"by_tid": {Terms: &store.TermsAgg{Field: store.FieldTID}},
		},
	})
	// TID is numeric, so the terms agg groups on the numeric key strings.
	if got := len(resp.Aggs["by_tid"].Buckets); got != procs*threads {
		t.Fatalf("distinct tids = %d, want %d", got, procs*threads)
	}
}

// TestTracerTIDFilter narrows tracing to a single thread of a process.
func TestTracerTIDFilter(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	proc := k.NewProcess("app")
	keep := proc.NewTask("keep")
	skip := proc.NewTask("skip")

	tracer, _ := NewTracer(Config{
		SessionName:   "tid",
		Index:         "events",
		Backend:       backend,
		Filter:        ebpf.Filter{TIDs: []int{keep.TID()}},
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)

	fd, _ := keep.Openat(kernel.AtFDCWD, "/tmp/a", kernel.OWronly|kernel.OCreat, 0o644)
	keep.Close(fd)
	fd2, _ := skip.Openat(kernel.AtFDCWD, "/tmp/b", kernel.OWronly|kernel.OCreat, 0o644)
	skip.Close(fd2)

	st, err := tracer.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if st.Shipped != 2 {
		t.Fatalf("shipped = %d, want 2", st.Shipped)
	}
	n, _ := backend.Count(context.Background(), "events", store.Term(store.FieldTID, keep.TID()))
	if n != 2 {
		t.Fatalf("keep-tid events = %d", n)
	}
	n, _ = backend.Count(context.Background(), "events", store.Term(store.FieldTID, skip.TID()))
	if n != 0 {
		t.Fatalf("skip-tid events leaked: %d", n)
	}
}

// TestTracerSessionIsolation: two concurrent sessions on the same kernel
// (e.g. two users tracing different processes against one shared backend,
// §II-F) must not interleave events.
func TestTracerSessionIsolation(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)

	procA := k.NewProcess("a")
	procB := k.NewProcess("b")
	mk := func(name string, pid int) *Tracer {
		tr, _ := NewTracer(Config{
			SessionName:   name,
			Index:         "events",
			Backend:       backend,
			Filter:        ebpf.Filter{PIDs: []int{pid}},
			FlushInterval: time.Millisecond,
		})
		if err := tr.Start(k); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		return tr
	}
	trA := mk("sess-a", procA.PID())
	trB := mk("sess-b", procB.PID())

	ta := procA.NewTask("a")
	tb := procB.NewTask("b")
	fdA, _ := ta.Openat(kernel.AtFDCWD, "/tmp/a", kernel.OWronly|kernel.OCreat, 0o644)
	ta.Close(fdA)
	fdB, _ := tb.Openat(kernel.AtFDCWD, "/tmp/b", kernel.OWronly|kernel.OCreat, 0o644)
	tb.Write(fdB, []byte("x"))
	tb.Close(fdB)

	if _, err := trA.Stop(); err != nil {
		t.Fatalf("stop a: %v", err)
	}
	if _, err := trB.Stop(); err != nil {
		t.Fatalf("stop b: %v", err)
	}

	nA, _ := backend.Count(context.Background(), "events", store.Term(store.FieldSession, "sess-a"))
	nB, _ := backend.Count(context.Background(), "events", store.Term(store.FieldSession, "sess-b"))
	if nA != 2 || nB != 3 {
		t.Fatalf("session counts = %d/%d, want 2/3", nA, nB)
	}
	// No cross-contamination: session A has no pid-B events.
	n, _ := backend.Count(context.Background(), "events", store.Must(
		store.Term(store.FieldSession, "sess-a"),
		store.Term(store.FieldPID, procB.PID()),
	))
	if n != 0 {
		t.Fatalf("session a contains %d events from process b", n)
	}
}
