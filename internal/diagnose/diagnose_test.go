package diagnose

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/experiments"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// traceFluentBit traces one Fluent Bit scenario and returns the backend.
func traceFluentBit(t *testing.T, version fluentbit.Version, session string) *store.Store {
	t.Helper()
	return tracedSession(t, session, fluentBitWorkload(version))
}

// diagnoseSession runs the default engine over one session.
func diagnoseSession(t *testing.T, b store.Backend, session string) Report {
	t.Helper()
	rep, err := NewEngine(DefaultRegistry()).Run(context.Background(), b, "events", session)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// byRule groups a report's findings by rule name.
func byRule(rep Report) map[string][]Finding {
	out := make(map[string][]Finding)
	for _, f := range rep.Findings {
		out[f.Rule] = append(out[f.Rule], f)
	}
	return out
}

func TestEngineFlagsStaleOffsetReadOnBuggyFluentBit(t *testing.T) {
	b := traceFluentBit(t, fluentbit.VersionBuggy, "buggy")
	stale := byRule(diagnoseSession(t, b, "buggy"))["stale-offset-read"]
	if len(stale) != 1 {
		t.Fatalf("stale-offset findings = %+v, want exactly 1", stale)
	}
	f := stale[0]
	if f.Severity != SeverityCritical || f.Detector != "stale-offset-read" {
		t.Fatalf("finding = %+v", f)
	}
	if !strings.Contains(f.Summary, "offset 26") {
		t.Fatalf("summary = %q", f.Summary)
	}
	if f.FilePath != "/var/log/app.log" {
		t.Fatalf("file = %q", f.FilePath)
	}
}

func TestNoStaleOffsetOnFixedFluentBit(t *testing.T) {
	b := traceFluentBit(t, fluentbit.VersionFixed, "fixed")
	if stale := byRule(diagnoseSession(t, b, "fixed"))["stale-offset-read"]; len(stale) != 0 {
		t.Fatalf("false positive on fixed version: %+v", stale)
	}
}

func TestEngineRunSeparatesVersions(t *testing.T) {
	bBuggy := traceFluentBit(t, fluentbit.VersionBuggy, "buggy")
	repBuggy := diagnoseSession(t, bBuggy, "buggy")
	if !repBuggy.Critical() {
		t.Fatalf("buggy session not critical: %s", repBuggy)
	}

	bFixed := traceFluentBit(t, fluentbit.VersionFixed, "fixed")
	repFixed := diagnoseSession(t, bFixed, "fixed")
	if repFixed.Critical() {
		t.Fatalf("fixed session flagged critical: %s", repFixed)
	}
	if repBuggy.HealthScore >= repFixed.HealthScore {
		t.Fatalf("health did not flip: buggy=%d fixed=%d",
			repBuggy.HealthScore, repFixed.HealthScore)
	}
	out := repBuggy.String()
	if !strings.Contains(out, "stale-offset-read") {
		t.Fatalf("report rendering: %q", out)
	}
	// Every registered detector must be attributed in the report.
	if len(repBuggy.Detectors) != len(DefaultRegistry().Detectors()) {
		t.Fatalf("detectors ran = %v", repBuggy.Detectors)
	}
}

// costlyWorkload does random, small I/O on /d/bad and large sequential I/O
// on /d/good.
func costlyWorkload(k *kernel.Kernel) {
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/d/bad", kernel.ORdwr|kernel.OCreat, 0o644)
	task.Write(fd, make([]byte, 64<<10))
	buf := make([]byte, 100)
	for i := 20; i > 0; i-- {
		task.Pread64(fd, buf, int64(i*3000))
	}
	task.Close(fd)
	fd2, _ := task.Openat(kernel.AtFDCWD, "/d/good", kernel.OWronly|kernel.OCreat, 0o644)
	big := make([]byte, 16<<10)
	for i := 0; i < 10; i++ {
		task.Write(fd2, big)
	}
	task.Close(fd2)
}

func TestEngineFlagsCostlyPatterns(t *testing.T) {
	backend := tracedSession(t, "patterns", costlyWorkload)
	rules := byRule(diagnoseSession(t, backend, "patterns"))
	if got := rules["small-io"]; len(got) != 1 || got[0].FilePath != "/d/bad" {
		t.Fatalf("small-io findings = %+v", got)
	}
	if got := rules["random-io"]; len(got) != 1 || got[0].FilePath != "/d/bad" {
		t.Fatalf("random-io findings = %+v", got)
	}
}

// failingWorkload issues three syscalls that return errors.
func failingWorkload(k *kernel.Kernel) {
	task := k.NewProcess("app").NewTask("app")
	task.Stat("/missing1")
	task.Stat("/missing2")
	task.Unlink("/missing3")
}

func TestEngineFlagsFailingSyscalls(t *testing.T) {
	backend := tracedSession(t, "errs", failingWorkload)
	findings := byRule(diagnoseSession(t, backend, "errs"))["failing-syscalls"]
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	if !strings.Contains(findings[0].Summary, "3 syscalls returned errors") {
		t.Fatalf("summary = %q", findings[0].Summary)
	}
}

func TestEngineFlagsContentionOnRocksDBRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second contention run")
	}
	res, err := experiments.RunRocksDB(experiments.RocksDBConfig{
		Duration: 1500 * time.Millisecond,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewEngine(DefaultRegistry()).Run(context.Background(), res.Backend, res.Index, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	findings := byRule(rep)["background-io-contention"]
	if len(findings) == 0 {
		t.Skip("no contention windows matched in this run (timing-dependent)")
	}
	f := findings[0]
	if f.Severity != SeverityWarning || len(f.Evidence) == 0 {
		t.Fatalf("finding = %+v", f)
	}
	if rep.HealthScore == 100 {
		t.Fatalf("contended session scored perfect health: %s", rep)
	}
}

func TestEngineNoContentionSignalOnQuietTrace(t *testing.T) {
	// A single-threaded quiet trace yields no contention findings.
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	k.MkdirAll("/d")
	backend := memStore(t)
	tracer, _ := core.NewTracer(core.Config{
		SessionName: "quiet", Index: "events", Backend: backend,
		Filter:        ebpf.Filter{},
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/d/x", kernel.OWronly|kernel.OCreat, 0o644)
	for i := 0; i < 50; i++ {
		task.Write(fd, []byte("x"))
	}
	task.Close(fd)
	tracer.Stop()

	p := Params{Contention: ContentionParams{
		ClientThread: "app", WindowNS: 1000, MinBackground: 2, DropFraction: 0.5,
	}}
	rep, err := NewEngine(DefaultRegistry()).RunParams(context.Background(), backend, "events", "quiet", p)
	if err != nil {
		t.Fatal(err)
	}
	if got := byRule(rep)["background-io-contention"]; len(got) != 0 {
		t.Fatalf("false positive: %+v", got)
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

// TestSeverityJSON: the three labels round-trip; a number or an unknown
// label is an error, never a finding of weight 0.
func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{SeverityInfo, SeverityWarning, SeverityCritical} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Errorf("%s: %s decoded to %v, %v", s, b, back, err)
		}
	}
	for _, in := range []string{`7`, `-1`, `"fatal"`} {
		var f Finding
		if err := json.Unmarshal([]byte(`{"severity":`+in+`}`), &f); err == nil {
			t.Errorf("severity %s decoded to %v (weight %d), want an error", in, f.Severity, f.Severity.Weight())
		}
	}
}
