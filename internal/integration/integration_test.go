// Package integration exercises the full paper deployment (§II-F): a
// standalone backend server (the Elasticsearch role), tracers on "other
// machines" shipping events over HTTP, correlation on the server, and
// visualizer queries from a third party — all composed exactly like the
// cmd/diod, cmd/dio, and cmd/dioviz binaries.
package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/cluster"
	"github.com/dsrhaslab/dio-go/internal/comparators"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/replay"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

func TestFullPipelineOverHTTP(t *testing.T) {
	// The "analysis server": one store behind HTTP, as cmd/diod runs it.
	st := memStore(t)
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()

	// "Machine 1": trace the Fluent Bit scenario, shipping remotely.
	k1 := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, time.Microsecond)})
	tr1, err := core.NewTracer(core.Config{
		SessionName:   "m1-fluentbit",
		Index:         "dio-events",
		Backend:       store.NewClient(srv.URL),
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr1.Start(k1); err != nil {
		t.Fatal(err)
	}
	if _, err := fluentbit.RunScenario(k1, "/var/log", fluentbit.VersionBuggy); err != nil {
		t.Fatal(err)
	}
	stats1, err := tr1.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Shipped == 0 || stats1.ShipErrors != 0 {
		t.Fatalf("machine 1 stats = %+v", stats1)
	}

	// "Machine 2": a different workload into the same backend.
	k2 := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	tr2, err := core.NewTracer(core.Config{
		SessionName:   "m2-synthetic",
		Index:         "dio-events",
		Backend:       store.NewClient(srv.URL),
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Start(k2); err != nil {
		t.Fatal(err)
	}
	task := k2.NewProcess("synthetic").NewTask("synthetic")
	if err := comparators.RunWorkload(k2, task, comparators.WorkloadConfig{}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Stop(); err != nil {
		t.Fatal(err)
	}

	// The "visualizer machine": query through a fresh HTTP client, as
	// cmd/dioviz does.
	client := store.NewClient(srv.URL)

	names, err := client.ListIndices(context.Background())
	if err != nil || len(names) != 1 || names[0] != "dio-events" {
		t.Fatalf("indices = (%v, %v)", names, err)
	}

	table, err := viz.AccessPatternTable(client, "dio-events", "m1-fluentbit")
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	if !strings.Contains(out, "fluent-bit") || !strings.Contains(out, "lseek") {
		t.Fatalf("fig2-style table over HTTP missing content:\n%s", out)
	}

	hist, err := viz.SyscallHistogram(client, "dio-events", "m2-synthetic")
	if err != nil || len(hist.Labels) == 0 {
		t.Fatalf("histogram = (%v, %v)", hist, err)
	}

	// Cross-session comparison through HTTP.
	deltas, err := diagnose.CompareSessions(context.Background(), client, "dio-events", "m1-fluentbit", "m2-synthetic")
	if err != nil {
		t.Fatal(err)
	}
	foundFsync := false
	for _, d := range deltas {
		if d.Syscall == "fsync" && d.CountA == 0 && d.CountB > 0 {
			foundFsync = true
		}
	}
	if !foundFsync {
		t.Fatalf("comparison did not separate the workloads: %+v", deltas)
	}

	// Offset-pattern analysis over HTTP (machine 2's synthetic files were
	// correlated server-side at tracer Stop).
	p, err := diagnose.FileOffsetPattern(context.Background(), client, "dio-events", "m2-synthetic", "/data/f000.dat")
	if err != nil {
		t.Fatal(err)
	}
	if p.Writes == 0 || p.Classification() == "no data I/O" {
		t.Fatalf("offset pattern = %+v", p)
	}

	// Both sessions' tagged events fully path-correlated on the server.
	unresolved, err := client.Count(context.Background(), "dio-events", store.Must(
		store.Exists(store.FieldFileTag),
		store.MustNot(store.Exists(store.FieldFilePath)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if unresolved != 0 {
		t.Fatalf("%d events left unresolved after server-side correlation", unresolved)
	}
}

func TestMultipleTracersSameKernelDifferentBackends(t *testing.T) {
	// DIO and a Sysdig-style tracer observing the same kernel at once, as
	// in the §III-D comparison runs.
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	k.MkdirAll("/data")

	backend := memStore(t)
	dioTracer, _ := core.NewTracer(core.Config{
		SessionName:   "both-dio",
		Index:         "events",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	dioTracer.Start(k)
	sysdig := comparators.NewSysdigTracer(comparators.SysdigConfig{Clock: k.Clock(), RingBytes: 1 << 20})
	sysdig.Attach(k)

	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/data/x", kernel.OWronly|kernel.OCreat, 0o644)
	task.Write(fd, []byte("hello"))
	task.Close(fd)

	sysdig.Detach()
	sysdig.Consume()
	dioStats, err := dioTracer.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if dioStats.Shipped != 3 {
		t.Fatalf("dio shipped = %d", dioStats.Shipped)
	}
	if got := sysdig.Stats().Consumed; got != 3 {
		t.Fatalf("sysdig consumed = %d", got)
	}
}

func TestVisualizerViewsOverHTTP(t *testing.T) {
	st := memStore(t)
	server := store.NewServer(st)
	diagnose.Install(server) // as cmd/diod wires it
	srv := httptest.NewServer(server)
	defer srv.Close()

	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	tr, _ := core.NewTracer(core.Config{
		SessionName:   "views",
		Index:         "dio-events",
		Backend:       store.NewClient(srv.URL),
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	tr.Start(k)
	if _, err := fluentbit.RunScenario(k, "/var/log", fluentbit.VersionBuggy); err != nil {
		t.Fatal(err)
	}
	tr.Stop()

	client := store.NewClient(srv.URL)

	// HTML dashboard renders through the remote backend.
	var html strings.Builder
	if err := viz.HTMLDashboard(&html, client, "dio-events", "views", int64(time.Millisecond)); err != nil {
		t.Fatalf("html dashboard: %v", err)
	}
	if !strings.Contains(html.String(), "<svg") || !strings.Contains(html.String(), "fluent-bit") {
		t.Fatal("html dashboard incomplete")
	}

	// Heatmap via the remote timeline.
	ts, err := viz.SyscallTimeline(client, "dio-events", "views", int64(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hm := viz.HeatmapFromTimeSeries(ts)
	if len(hm.RowLabels) == 0 {
		t.Fatal("empty heatmap")
	}

	// Automated diagnosis through HTTP: the engine runs server-side behind
	// the /{index}/_diagnose op, as cmd/dioviz's remote mode uses it.
	diag := diagnose.NewClient(client)
	rep, err := diag.Diagnose(context.Background(), "dio-events", "views")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Critical() {
		t.Fatalf("remote diagnosis missed the bug: %s", rep)
	}

	// The DFG endpoint serves the same session's follows-graph.
	g, err := diag.DFG(context.Background(), "dio-events", "views")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Procs) == 0 {
		t.Fatal("remote DFG is empty")
	}

	// Trace replay through HTTP.
	k2 := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	res, err := replay.Session(client, "dio-events", "views", k2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed == 0 || len(res.Mismatches) != 0 {
		t.Fatalf("remote replay = %+v", res)
	}
}

// newCluster boots a coordinator over n partitions, each a store server behind
// a one-member failover client, as cmd/diod -cluster wires them.
func newCluster(t *testing.T, n int) *cluster.Coordinator {
	t.Helper()
	nodes := make([]cluster.Node, n)
	for p := range nodes {
		srv := httptest.NewServer(store.NewServer(memStore(t)))
		t.Cleanup(srv.Close)
		fc, err := store.NewFailoverClient(store.NewClient(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = fc
	}
	co, err := cluster.New(cluster.Config{}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestRemoteReadsAreExact: a hit read over the wire is the event the store
// holds, field for field — nanosecond timestamps, offsets and return values
// that no float64 can carry included — whichever remote reader fetched it.
func TestRemoteReadsAreExact(t *testing.T) {
	ctx := context.Background()
	const ns = int64(1687859999123456789) // float64 reads ...456768
	evs := []event.Event{
		{Session: "ns", Syscall: "pread64", TimeEnterNS: ns, TimeExitNS: ns + 210, Offset: 1<<53 + 1, HasOffset: true, RetVal: 4097},
		{Session: "ns", Syscall: "pwrite64", TimeEnterNS: ns + 1, TimeExitNS: ns + 3, Offset: math.MaxInt64, HasOffset: true, RetVal: -9007199254740993},
		{Session: "ns", Syscall: "read", TimeEnterNS: math.MaxInt64 - 1, TimeExitNS: math.MaxInt64, RetVal: math.MaxInt64},
		{Session: "ns", Syscall: "lseek", TimeEnterNS: -ns, TimeExitNS: -ns + 255, ArgOff: -1234567890123456789, RetVal: math.MinInt64},
		{Session: "ns", Syscall: "write", TimeEnterNS: ns + 257, TimeExitNS: ns + 513, FileTag: event.FileTag{Dev: 1<<63 + 1, Ino: 1<<53 + 1, BirthNS: ns}},
		{Session: "ns", Syscall: "fsync", TimeEnterNS: 1, TimeExitNS: 2, RetVal: -1},
		{Session: "ns", Syscall: "close", TimeEnterNS: ns + 2, TimeExitNS: ns + 2, Offset: -255, HasOffset: true},
	}
	st := memStore(t)
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	client := store.NewClient(srv.URL)
	failover, err := store.NewFailoverClient(store.NewClient(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	co := newCluster(t, 2)
	cserver := store.NewServer(co)
	diagnose.Install(cserver)
	csrv := httptest.NewServer(cserver)
	defer csrv.Close()
	for _, b := range []store.Backend{st, co} {
		if err := b.BulkEvents(ctx, "exact", append([]event.Event(nil), evs...)); err != nil {
			t.Fatal(err)
		}
	}

	req := store.SearchRequest{
		Query: store.Term(store.FieldSession, "ns"), Size: -1,
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	}
	want, err := st.SearchEvents(ctx, "exact", req)
	if err != nil || len(want.Hits) != len(evs) {
		t.Fatalf("in-process read: %d hits, %v", len(want.Hits), err)
	}
	hitsOf := func(b store.Backend) func() ([]event.Event, error) {
		return func() ([]event.Event, error) {
			res, err := b.SearchEvents(ctx, "exact", req)
			return res.Hits, err
		}
	}
	for _, tc := range []struct {
		name string
		read func() ([]event.Event, error)
	}{
		{"Client.SearchEvents", hitsOf(client)},
		{"FailoverClient.SearchEvents", hitsOf(failover)},
		{"EachEventPage over three pages", func() ([]event.Event, error) {
			var all []event.Event
			pages := 0
			err := store.EachEventPage(ctx, client, "exact", req, 3, func(p store.EventsResult) error {
				pages++
				all = append(all, p.Hits...)
				return nil
			})
			if pages != 3 {
				t.Errorf("walked %d pages, want 3", pages)
			}
			return all, err
		}},
		{"Client to a 2-partition coordinator", hitsOf(store.NewClient(csrv.URL))},
	} {
		got, err := tc.read()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != len(want.Hits) {
			t.Errorf("%s: %d hits, want %d", tc.name, len(got), len(want.Hits))
			continue
		}
		for i := range got {
			if got[i] != want.Hits[i] {
				t.Errorf("%s: hit %d\n got  %+v\n want %+v", tc.name, i, got[i], want.Hits[i])
			}
		}
	}
}

// TestDiagnoseThroughCoordinator: the coordinator is a store.Backend that
// correlates, so a tracer ships straight into a 4-partition coordinator
// behind HTTP, the end-of-session correlation runs across the partitions,
// and the engine reads the cluster exactly as one store — the Fluent Bit
// pair's reports equal the goldens the diagnose package pins.
func TestDiagnoseThroughCoordinator(t *testing.T) {
	ctx := context.Background()
	for session, version := range map[string]fluentbit.Version{
		"fluentbit-buggy": fluentbit.VersionBuggy,
		"fluentbit-fixed": fluentbit.VersionFixed,
	} {
		csrv := httptest.NewServer(store.NewServer(newCluster(t, 4)))
		defer csrv.Close()
		c := store.NewClient(csrv.URL)
		k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
		if err := k.MkdirAll("/d"); err != nil {
			t.Fatal(err)
		}
		tr, err := core.NewTracer(core.Config{
			SessionName: session, Index: "events", Backend: c,
			AutoCorrelate: true, FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(k); err != nil {
			t.Fatal(err)
		}
		if _, err := fluentbit.RunScenario(k, "/var/log", version); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Stop(); err != nil {
			t.Fatal(err)
		}
		rep, err := diagnose.NewEngine(diagnose.DefaultRegistry()).Run(ctx, c, "events", session)
		if err != nil {
			t.Fatalf("%s: %v", session, err)
		}
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("../diagnose/testdata/reports/" + session + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: report through the coordinator differs from the golden:\n%s", session, got)
		}
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
