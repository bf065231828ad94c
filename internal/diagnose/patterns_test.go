package diagnose

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// tracedSession runs fn on a traced kernel and returns the backend with
// correlation applied.
func tracedSession(t *testing.T, session string, fn func(k *kernel.Kernel)) *store.Store {
	t.Helper()
	backend := memStore(t)
	traced(fn)(t, backend, session)
	return backend
}

func TestFileOffsetPatternSequential(t *testing.T) {
	b := tracedSession(t, "seq", func(k *kernel.Kernel) {
		task := k.NewProcess("app").NewTask("app")
		fd, _ := task.Openat(kernel.AtFDCWD, "/d/seq", kernel.ORdwr|kernel.OCreat, 0o644)
		buf := make([]byte, 8192)
		for i := 0; i < 10; i++ {
			task.Write(fd, buf)
		}
		task.Lseek(fd, 0, kernel.SeekSet)
		for i := 0; i < 10; i++ {
			task.Read(fd, buf)
		}
		task.Close(fd)
	})
	p, err := FileOffsetPattern(context.Background(), b, "events", "seq", "/d/seq")
	if err != nil {
		t.Fatal(err)
	}
	if p.Reads != 10 || p.Writes != 10 {
		t.Fatalf("counts = %d/%d", p.Reads, p.Writes)
	}
	// The rewind to offset 0 after the write stream counts as one
	// non-contiguous access; everything else must be sequential.
	if p.RandomReads > 1 || p.RandomWrites != 0 {
		t.Fatalf("random accesses in sequential stream: %+v", p)
	}
	if p.Classification() != "sequential" {
		t.Fatalf("classification = %q", p.Classification())
	}
	if p.SmallIOs != 0 {
		t.Fatalf("8KiB I/Os flagged small: %d", p.SmallIOs)
	}
	if p.BytesRead != 81920 || p.BytesWrite != 81920 {
		t.Fatalf("bytes = %d/%d", p.BytesRead, p.BytesWrite)
	}
}

func TestFileOffsetPatternRandom(t *testing.T) {
	b := tracedSession(t, "rand", func(k *kernel.Kernel) {
		task := k.NewProcess("app").NewTask("app")
		fd, _ := task.Openat(kernel.AtFDCWD, "/d/rand", kernel.ORdwr|kernel.OCreat, 0o644)
		task.Write(fd, make([]byte, 64<<10))
		buf := make([]byte, 512)
		// Strided backwards preads: never sequential after the first.
		for i := 10; i > 0; i-- {
			task.Pread64(fd, buf, int64(i*4096))
		}
		task.Close(fd)
	})
	p, err := FileOffsetPattern(context.Background(), b, "events", "rand", "/d/rand")
	if err != nil {
		t.Fatal(err)
	}
	if p.Classification() != "random" {
		t.Fatalf("classification = %q (%+v)", p.Classification(), p)
	}
	if p.SmallIOs != 10 {
		t.Fatalf("small I/Os = %d, want 10", p.SmallIOs)
	}
}

func TestFileOffsetPatternPerThreadSequentiality(t *testing.T) {
	// Two threads interleave on the same file, each writing its own region
	// sequentially via pwrite: per-thread tracking must classify this as
	// sequential even though the global offset stream jumps around.
	b := tracedSession(t, "perthread", func(k *kernel.Kernel) {
		proc := k.NewProcess("app")
		t1 := proc.NewTask("t1")
		t2 := proc.NewTask("t2")
		fd, _ := t1.Openat(kernel.AtFDCWD, "/d/two", kernel.ORdwr|kernel.OCreat, 0o644)
		buf := make([]byte, 4096)
		for i := 0; i < 5; i++ {
			t1.Pwrite64(fd, buf, int64(i*4096))       // region 0..20K
			t2.Pwrite64(fd, buf, int64(1<<20+i*4096)) // region 1M..
		}
		t1.Close(fd)
	})
	p, err := FileOffsetPattern(context.Background(), b, "events", "perthread", "/d/two")
	if err != nil {
		t.Fatal(err)
	}
	if p.RandomWrites != 0 {
		t.Fatalf("interleaved per-thread sequential streams misclassified: %+v", p)
	}
	if p.SequentialWrites != 10 {
		t.Fatalf("sequential writes = %d, want 10", p.SequentialWrites)
	}
}

func TestHotFilesRanking(t *testing.T) {
	b := tracedSession(t, "hot", func(k *kernel.Kernel) {
		task := k.NewProcess("app").NewTask("app")
		write := func(path string, n int) {
			fd, _ := task.Openat(kernel.AtFDCWD, path, kernel.OWronly|kernel.OCreat, 0o644)
			task.Write(fd, make([]byte, n))
			task.Close(fd)
		}
		write("/d/big", 1<<20)
		write("/d/mid", 64<<10)
		write("/d/tiny", 128)
	})
	files, err := HotFiles(context.Background(), b, "events", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("topN = %d", len(files))
	}
	if files[0].FilePath != "/d/big" || files[1].FilePath != "/d/mid" {
		t.Fatalf("ranking = %+v", files)
	}
	if files[0].Bytes != 1<<20 {
		t.Fatalf("big bytes = %d", files[0].Bytes)
	}
}

func TestCompareSessions(t *testing.T) {
	backend := memStore(t)
	run := func(session string, withSeek bool) {
		k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
		k.MkdirAll("/d")
		tracer, _ := core.NewTracer(core.Config{
			SessionName: session, Index: "events", Backend: backend,
			FlushInterval: time.Millisecond,
		})
		tracer.Start(k)
		task := k.NewProcess("app").NewTask("app")
		fd, _ := task.Openat(kernel.AtFDCWD, "/d/f", kernel.ORdwr|kernel.OCreat, 0o644)
		task.Write(fd, []byte("abc"))
		if withSeek {
			task.Lseek(fd, 100, kernel.SeekSet)
		}
		task.Read(fd, make([]byte, 8))
		task.Close(fd)
		task.Stat("/nope") // one failing syscall
		tracer.Stop()
	}
	run("a", true)
	run("b", false)

	deltas, err := CompareSessions(context.Background(), backend, "events", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]SessionDelta)
	for _, d := range deltas {
		byName[d.Syscall] = d
	}
	if d := byName["lseek"]; d.CountA != 1 || d.CountB != 0 {
		t.Fatalf("lseek delta = %+v", d)
	}
	if d := byName["stat"]; d.ErrsA != 1 || d.ErrsB != 1 {
		t.Fatalf("stat errors = %+v", d)
	}
	if d := byName["write"]; d.CountA != 1 || d.CountB != 1 {
		t.Fatalf("write delta = %+v", d)
	}
	if out := ComparisonTable(deltas, "a", "b").String(); !strings.Contains(out, "write") || !strings.Contains(out, "errors(a)") {
		t.Fatalf("rendered comparison:\n%s", out)
	}
}

func TestPatternsErrorOnMissingIndex(t *testing.T) {
	st := memStore(t)
	ctx := context.Background()
	if _, err := FileOffsetPattern(ctx, st, "missing", "s", "/f"); err == nil {
		t.Fatal("FileOffsetPattern succeeded on missing index")
	}
	if _, err := HotFiles(ctx, st, "missing", "s", 5); err == nil {
		t.Fatal("HotFiles succeeded on missing index")
	}
	if _, err := CompareSessions(ctx, st, "missing", "a", "b"); err == nil {
		t.Fatal("CompareSessions succeeded on missing index")
	}
	if _, err := NewEngine(DefaultRegistry()).Run(ctx, st, "missing", "s"); err == nil {
		t.Fatal("Engine.Run succeeded on missing index")
	}
}
