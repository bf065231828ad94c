package dio_test

import (
	"context"
	"fmt"
	"time"

	dio "github.com/dsrhaslab/dio-go"
)

// Example traces a tiny application end-to-end: simulated kernel, tracing
// session, backend query, and visualization.
func Example() {
	k := dio.NewVirtualKernel()
	if err := k.MkdirAll("/tmp"); err != nil {
		fmt.Println("mkdir:", err)
		return
	}
	backend := dio.NewStore()
	tracer, err := dio.NewTracer(dio.TracerConfig{
		SessionName:   "example",
		Backend:       backend,
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		fmt.Println("new tracer:", err)
		return
	}
	if err := tracer.Start(k); err != nil {
		fmt.Println("start:", err)
		return
	}

	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(dio.AtFDCWD, "/tmp/file", dio.OWronly|dio.OCreat, 0o644)
	task.Write(fd, []byte("hello"))
	task.Close(fd)

	stats, _ := tracer.Stop()
	fmt.Printf("events traced: %d, dropped: %d\n", stats.Shipped, stats.Dropped)

	// Visualize the session as a per-syscall histogram.
	hist, _ := dio.SyscallHistogram(backend, tracer.Index(), tracer.Session())
	fmt.Printf("distinct syscalls: %d\n", len(hist.Labels))
	// Output:
	// events traced: 3, dropped: 0
	// distinct syscalls: 3
}

// ExampleFilter shows kernel-side filtering: only write syscalls of the
// chosen process reach the tracer.
func ExampleFilter() {
	k := dio.NewVirtualKernel()
	k.MkdirAll("/tmp")
	backend := dio.NewStore()

	writeSys, _ := dio.SyscallByName("write")
	proc := k.NewProcess("db")
	task := proc.NewTask("db")

	tracer, _ := dio.NewTracer(dio.TracerConfig{
		SessionName:   "filtered",
		Backend:       backend,
		Filter:        dio.Filter{Syscalls: []dio.Syscall{writeSys}, PIDs: []int{proc.PID()}},
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)

	fd, _ := task.Openat(dio.AtFDCWD, "/tmp/data", dio.OWronly|dio.OCreat, 0o644)
	task.Write(fd, []byte("a"))
	task.Write(fd, []byte("b"))
	task.Close(fd)

	stats, _ := tracer.Stop()
	fmt.Printf("captured %d write events\n", stats.Shipped)
	// Output:
	// captured 2 write events
}

// ExampleFileOffsetPattern classifies a file's access pattern from the
// tracer's offset enrichment.
func ExampleFileOffsetPattern() {
	k := dio.NewVirtualKernel()
	k.MkdirAll("/tmp")
	backend := dio.NewStore()
	tracer, _ := dio.NewTracer(dio.TracerConfig{
		SessionName:   "pattern",
		Backend:       backend,
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)

	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(dio.AtFDCWD, "/tmp/stream", dio.OWronly|dio.OCreat, 0o644)
	chunk := make([]byte, 8192)
	for i := 0; i < 4; i++ {
		task.Write(fd, chunk)
	}
	task.Close(fd)
	tracer.Stop()

	p, _ := dio.FileOffsetPattern(context.Background(), backend, tracer.Index(), tracer.Session(), "/tmp/stream")
	fmt.Printf("%s: %d writes, classification %q\n", p.FilePath, p.Writes, p.Classification())
	// Output:
	// /tmp/stream: 4 writes, classification "sequential"
}

// ExampleDiagnose runs the automated detectors over a traced session.
func ExampleDiagnose() {
	k := dio.NewVirtualKernel()
	k.MkdirAll("/var/log")
	backend := dio.NewStore()
	tracer, _ := dio.NewTracer(dio.TracerConfig{
		SessionName:   "diag",
		Backend:       backend,
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)

	// A reader resumes past EOF on a fresh file — the §III-B bug signature.
	writer := k.NewProcess("app").NewTask("app")
	fd, _ := writer.Openat(dio.AtFDCWD, "/var/log/x.log", dio.OWronly|dio.OCreat, 0o644)
	writer.Write(fd, []byte("0123456789"))
	writer.Close(fd)
	reader := k.NewProcess("tailer").NewTask("tailer")
	rfd, _ := reader.Openat(dio.AtFDCWD, "/var/log/x.log", dio.ORdonly, 0)
	reader.Lseek(rfd, 100, 0) // stale offset past EOF
	reader.Read(rfd, make([]byte, 64))
	reader.Close(rfd)
	tracer.Stop()

	report, _ := dio.Diagnose(context.Background(), backend, tracer.Index(), tracer.Session())
	fmt.Printf("critical finding: %v (%d findings)\n", report.Critical(), len(report.Findings))
	// Output:
	// critical finding: true (1 findings)
}

// fsyncPerWrite is a custom rule written against the public package only:
// it counts fsyncs and writes as the engine streams the session past it,
// and reports when more than half the writes are followed by a flush.
type fsyncPerWrite struct{ fsyncs, writes int }

func (r *fsyncPerWrite) Observe(row dio.Row) {
	switch row.Syscall() {
	case "fsync":
		r.fsyncs++
	case "write":
		r.writes++
	}
}

func (r *fsyncPerWrite) Finish(*dio.DFG) []dio.DiagnosisFinding {
	if r.fsyncs*2 <= r.writes {
		return nil
	}
	return []dio.DiagnosisFinding{{
		Rule: "fsync-per-write", Severity: dio.SeverityWarning,
		Summary: fmt.Sprintf("%d fsyncs for %d writes", r.fsyncs, r.writes),
	}}
}

// ExampleNewDetectorRegistry registers a custom rule next to no built-ins
// and runs it; the engine attributes the finding to the registered name.
func ExampleNewDetectorRegistry() {
	k := dio.NewVirtualKernel()
	k.MkdirAll("/tmp")
	backend := dio.NewStore()
	tracer, _ := dio.NewTracer(dio.TracerConfig{
		SessionName:   "custom",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(dio.AtFDCWD, "/tmp/journal", dio.OWronly|dio.OCreat, 0o644)
	for i := 0; i < 4; i++ {
		task.Write(fd, []byte("entry\n"))
		task.Fsync(fd)
	}
	task.Close(fd)
	tracer.Stop()

	reg := dio.NewDetectorRegistry()
	reg.Register(dio.Detector{
		Name:  "fsync-rate",
		Begin: func(dio.DiagnosisParams) dio.DetectorPass { return &fsyncPerWrite{} },
	})
	report, _ := dio.NewDiagnosisEngine(reg).Run(context.Background(), backend, tracer.Index(), tracer.Session())
	for _, f := range report.Findings {
		fmt.Printf("%s (detector %s): %s\n", f.Rule, f.Detector, f.Summary)
	}
	// Output:
	// fsync-per-write (detector fsync-rate): 4 fsyncs for 4 writes
}
