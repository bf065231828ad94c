package diagnose

import (
	"context"
	"net/http/httptest"
	"reflect"
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

func (fakePass) Observe(store.Row)       {}
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

// TestEachRowOverClientEqualsInProcess: over a store.Client the walk packs
// each page's hits into its page shard, so a pass reads the same row form as
// in process. At page size 7 over a session of hundreds of pages, the walk
// yields the same rows in the same order over the Client as over the
// *store.Store, and Engine.Analyze gives an equal report and DFG.
func TestEachRowOverClientEqualsInProcess(t *testing.T) {
	const pageSize = 7
	ctx := context.Background()
	st := memStore(t)
	syntheticSession(t, st, "synthetic")
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	client := store.NewClient(srv.URL)
	req := store.SearchRequest{Query: store.Term(store.FieldSession, "synthetic"), Sort: []store.SortField{{Field: store.FieldTimeEnter}}}
	walk := func(b store.Backend) []event.Event {
		var out []event.Event
		err := store.EachRow(ctx, b, "events", req, pageSize, func(r store.Row) {
			var e event.Event
			r.Event(&e)
			out = append(out, e)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := walk(st), walk(client)
	if len(want) <= 3*pageSize {
		t.Fatalf("the session holds %d rows, want more than three pages", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("over the Client the walk yielded %d rows, in process %d, or others or in another order", len(got), len(want))
	}
	eng := NewEngine(DefaultRegistry())
	p := Params{PageSize: pageSize}
	repIn, dfgIn, err := eng.Analyze(ctx, st, "events", "synthetic", p)
	if err != nil {
		t.Fatal(err)
	}
	repC, dfgC, err := eng.Analyze(ctx, client, "events", "synthetic", p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repC, repIn) {
		t.Fatalf("over the Client the report is\n%+v\nin process\n%+v", repC, repIn)
	}
	if dfgC.Fingerprint() != dfgIn.Fingerprint() {
		t.Fatalf("over the Client the DFG fingerprint is %s, in process %s", dfgC.Fingerprint(), dfgIn.Fingerprint())
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
