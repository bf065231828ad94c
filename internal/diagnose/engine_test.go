package diagnose

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// fakePass reports fixed findings whatever it observes.
type fakePass []Finding

func (fakePass) Observe(*event.Event)    {}
func (p fakePass) Finish(*DFG) []Finding { return p }

func fakeDetector(name string, findings ...Finding) Detector {
	return Detector{Name: name, Begin: func(Params) Pass { return fakePass(findings) }}
}

func TestRegistryRejectsDuplicatesAndEmptyNames(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(fakeDetector("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(fakeDetector("a")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := r.Register(fakeDetector("")); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register(Detector{Name: "b"}); err == nil {
		t.Fatal("nil Begin accepted")
	}
}

func TestEngineRunsDetectorsInRegistrationOrderAndAttributes(t *testing.T) {
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	backend := memStore(t)
	tracer, _ := core.NewTracer(core.Config{
		SessionName: "order", Index: "events", Backend: backend,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)
	k.NewProcess("app").NewTask("app").Stat("/missing")
	tracer.Stop()

	r := NewRegistry()
	r.Register(fakeDetector("first", Finding{Rule: "r1", Severity: SeverityWarning, Summary: "w"}))
	r.Register(fakeDetector("second", Finding{Rule: "r2", Severity: SeverityCritical, Summary: "c"}))
	rep, err := NewEngine(r).Run(context.Background(), backend, "events", "order")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Detectors) != 2 || rep.Detectors[0] != "first" || rep.Detectors[1] != "second" {
		t.Fatalf("detector order = %v", rep.Detectors)
	}
	if len(rep.Findings) != 2 || rep.Findings[0].Detector != "first" || rep.Findings[1].Detector != "second" {
		t.Fatalf("attribution = %+v", rep.Findings)
	}
	// 100 - 15 (warning) - 40 (critical) = 45.
	if rep.HealthScore != 45 {
		t.Fatalf("health = %d, want 45", rep.HealthScore)
	}
}

func TestEngineTelemetry(t *testing.T) {
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	backend := memStore(t)
	tracer, _ := core.NewTracer(core.Config{
		SessionName: "tm", Index: "events", Backend: backend,
		FlushInterval: time.Millisecond,
	})
	tracer.Start(k)
	k.NewProcess("app").NewTask("app").Stat("/missing")
	tracer.Stop()

	reg := telemetry.NewRegistry()
	e := NewEngine(DefaultRegistry(), WithTelemetry(reg))
	if _, err := e.Run(context.Background(), backend, "events", "tm"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dio_diagnose_runs_total", "").Value(); got != 1 {
		t.Fatalf("runs counter = %d", got)
	}
	if got := reg.Counter("dio_dfg_builds_total", "").Value(); got != 1 {
		t.Fatalf("dfg builds counter = %d", got)
	}
	hists := reg.Snapshot().Histograms
	if got := hists["dio_diagnose_run_ns"].Count; got != 1 {
		t.Fatalf("run latency observations = %d", got)
	}
	if _, ok := hists["dio_dfg_build_ns"]; ok {
		t.Fatal("dio_dfg_build_ns still exported: one pass has no separate DFG phase to time")
	}
}

// tracedFluentBitPair traces both Fluent Bit versions into one backend as
// differently named sessions, the setup dio diff exercises.
func tracedFluentBitPair(t *testing.T) *store.Store {
	t.Helper()
	backend := memStore(t)
	traced(fluentBitWorkload(fluentbit.VersionBuggy))(t, backend, "buggy")
	traced(fluentBitWorkload(fluentbit.VersionFixed))(t, backend, "fixed")
	return backend
}

func TestDiffSessionsClassifiesBugFixAsImprovement(t *testing.T) {
	backend := tracedFluentBitPair(t)
	res, err := NewEngine(DefaultRegistry()).DiffSessions(
		context.Background(), backend, "events", "buggy", "fixed", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassImprovement {
		t.Fatalf("class = %s (%s)", res.Class, res)
	}
	if res.HealthDelta <= 0 {
		t.Fatalf("health delta = %d, want positive", res.HealthDelta)
	}
	var resolvedStale bool
	for _, d := range res.Deltas {
		if d.Kind == "finding" && d.Rule == "stale-offset-read" {
			if d.Class != ClassImprovement {
				t.Fatalf("stale-offset delta = %+v", d)
			}
			resolvedStale = true
		}
	}
	if !resolvedStale {
		t.Fatalf("stale-offset resolution not reported: %s", res)
	}
	// And in the opposite direction the same fix reads as a regression.
	rev, err := NewEngine(DefaultRegistry()).DiffSessions(
		context.Background(), backend, "events", "fixed", "buggy", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Class != ClassRegression {
		t.Fatalf("reverse class = %s", rev.Class)
	}
}

func TestDiffClassifiesSeverityShifts(t *testing.T) {
	a := Report{Session: "a", Findings: []Finding{
		{Rule: "x", FilePath: "/f", Severity: SeverityWarning},
		{Rule: "gone", Severity: SeverityCritical},
	}}
	b := Report{Session: "b", Findings: []Finding{
		{Rule: "x", FilePath: "/f", Severity: SeverityCritical},
		{Rule: "new", Severity: SeverityInfo},
	}}
	a.HealthScore = HealthScore(a.Findings)
	b.HealthScore = HealthScore(b.Findings)
	res := Diff(a, b, nil, nil)
	byRule := make(map[string]Delta)
	for _, d := range res.Deltas {
		if d.Kind == "finding" {
			byRule[d.Rule] = d
		}
	}
	if byRule["x"].Class != ClassRegression {
		t.Fatalf("severity escalation = %+v", byRule["x"])
	}
	if byRule["gone"].Class != ClassImprovement {
		t.Fatalf("resolved finding = %+v", byRule["gone"])
	}
	if byRule["new"].Class != ClassRegression {
		t.Fatalf("new finding = %+v", byRule["new"])
	}
	if !strings.Contains(res.String(), "health") {
		t.Fatalf("diff rendering: %q", res.String())
	}
}

func TestRenderTables(t *testing.T) {
	backend := tracedFluentBitPair(t)
	e := NewEngine(DefaultRegistry())
	rep, dfg, err := e.Analyze(context.Background(), backend, "events", "buggy", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ReportTable(rep).String(); !strings.Contains(out, "stale-offset-read") {
		t.Fatalf("report table:\n%s", out)
	}
	if out := DFGTable(dfg, 5).String(); !strings.Contains(out, "->") {
		t.Fatalf("dfg table:\n%s", out)
	}
	res, err := e.DiffSessions(context.Background(), backend, "events", "buggy", "fixed", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if out := DiffTable(res).String(); !strings.Contains(out, "improvement") {
		t.Fatalf("diff table:\n%s", out)
	}
}
