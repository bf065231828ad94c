package replay

import (
	"context"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

func freshKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
}

// traceWorkload traces fn and returns the backend and session.
func traceWorkload(t *testing.T, fn func(k *kernel.Kernel)) (*store.Store, string) {
	t.Helper()
	k := freshKernel()
	backend := memStore(t)
	tracer, err := core.NewTracer(core.Config{
		SessionName:   "to-replay",
		Index:         "events",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Start(k); err != nil {
		t.Fatal(err)
	}
	fn(k)
	if _, err := tracer.Stop(); err != nil {
		t.Fatal(err)
	}
	return backend, "to-replay"
}

func TestReplayBasicLifecycle(t *testing.T) {
	backend, session := traceWorkload(t, func(k *kernel.Kernel) {
		k.MkdirAll("/w")
		task := k.NewProcess("app").NewTask("app")
		fd, _ := task.Openat(kernel.AtFDCWD, "/w/file", kernel.ORdwr|kernel.OCreat, 0o644)
		task.Write(fd, []byte("0123456789"))
		task.Lseek(fd, 0, kernel.SeekSet)
		task.Read(fd, make([]byte, 10))
		task.Fsync(fd)
		task.Ftruncate(fd, 4)
		task.Close(fd)
		task.Stat("/w/file")
		task.Rename("/w/file", "/w/file2")
		task.Unlink("/w/file2")
	})

	k2 := freshKernel()
	res, err := Session(backend, "events", session, k2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Skipped != 0 {
		t.Fatalf("skipped = %d, want 0", res.Skipped)
	}
	if res.Replayed != 10 {
		t.Fatalf("replayed = %d, want 10", res.Replayed)
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("mismatches: %v", res.Mismatches)
	}
	// The replayed filesystem reflects the traced operations: file2 was
	// unlinked, so nothing remains.
	if _, err := k2.ReadFileContents("/w/file2"); err != kernel.ENOENT {
		t.Fatalf("replayed fs state: %v", err)
	}
}

func TestReplayFluentBitScenarioReproducesDataLossSignature(t *testing.T) {
	// Trace the buggy Fluent Bit run, then replay it on a fresh kernel:
	// the replay must reproduce the same return values — including the
	// read that returns 0 at the stale offset — with zero mismatches.
	k := freshKernel()
	backend := memStore(t)
	tracer, _ := core.NewTracer(core.Config{
		SessionName:   "flb",
		Index:         "events",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)
	if _, err := fluentbit.RunScenario(k, "/var/log", fluentbit.VersionBuggy); err != nil {
		t.Fatal(err)
	}
	tracer.Stop()

	k2 := freshKernel()
	res, err := Session(backend, "events", "flb", k2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("replay diverged: %v", res.Mismatches)
	}
	// The data-loss signature survives replay: the replayed log file holds
	// the 16 unread bytes that the (replayed) forwarder skipped.
	data, err := k2.ReadFileContents("/var/log/app.log")
	if err != nil {
		t.Fatalf("replayed app.log: %v", err)
	}
	if len(data) != 16 {
		t.Fatalf("replayed app.log size = %d, want 16", len(data))
	}
}

func TestReplaySkipsUnknownDescriptors(t *testing.T) {
	// Events on descriptors whose open was not traced must be skipped, not
	// misapplied. Craft such a trace by filtering opens out.
	k := freshKernel()
	backend := memStore(t)
	tracer, _ := core.NewTracer(core.Config{
		SessionName:   "partial",
		Index:         "events",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)
	task := k.NewProcess("app").NewTask("app")
	// Open BEFORE the events we keep: delete open events afterwards.
	fd, _ := task.Openat(kernel.AtFDCWD, "/f", kernel.OWronly|kernel.OCreat, 0o644)
	task.Write(fd, []byte("abc"))
	task.Close(fd)
	tracer.Stop()

	// Stored rows are written once, so the partial trace is a copy of the
	// session with the open event turned into something replay cannot apply.
	ctx := context.Background()
	all, err := backend.SearchEvents(ctx, "events", store.SearchRequest{Query: store.MatchAll(), Size: -1})
	if err != nil {
		t.Fatalf("read session: %v", err)
	}
	for i := range all.Hits {
		if all.Hits[i].Syscall == "openat" {
			all.Hits[i].Syscall = "unsupported_syscall"
		}
	}
	partial := memStore(t)
	if err := partial.BulkEvents(ctx, "events", all.Hits); err != nil {
		t.Fatalf("write partial trace: %v", err)
	}

	k2 := freshKernel()
	res, err := Session(partial, "events", "partial", k2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Skipped != 3 { // rewritten open + orphan write + orphan close
		t.Fatalf("skipped = %d, want 3", res.Skipped)
	}
	if res.Replayed != 0 {
		t.Fatalf("replayed = %d, want 0", res.Replayed)
	}
}

func TestReplayXattrAndDirectories(t *testing.T) {
	backend, session := traceWorkload(t, func(k *kernel.Kernel) {
		task := k.NewProcess("app").NewTask("app")
		task.Mkdir("/dir", 0o755)
		fd, _ := task.Openat(kernel.AtFDCWD, "/dir/f", kernel.OWronly|kernel.OCreat, 0o644)
		task.Close(fd)
		task.Setxattr("/dir/f", "user.k", []byte("vv"))
		task.Getxattr("/dir/f", "user.k")
		task.Truncate("/dir/f", 100)
		task.Unlinkat(kernel.AtFDCWD, "/dir/f", false)
		task.Rmdir("/dir")
	})
	k2 := freshKernel()
	res, err := Session(backend, "events", session, k2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Skipped != 0 || len(res.Mismatches) != 0 {
		t.Fatalf("result = %+v", res)
	}
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
