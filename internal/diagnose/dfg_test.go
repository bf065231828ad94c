package diagnose

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// pingPongWorkload issues alternating read/lseek calls — the positional-IO
// anti-pattern — plus an open/close churn loop with no data I/O.
func pingPongWorkload(k *kernel.Kernel) {
	task := k.NewProcess("pingpong").NewTask("pingpong")
	fd, _ := task.Openat(kernel.AtFDCWD, "/d/data", kernel.ORdwr|kernel.OCreat, 0o644)
	task.Write(fd, make([]byte, 64<<10))
	task.Lseek(fd, 0, kernel.SeekSet)
	buf := make([]byte, 4096)
	for i := 0; i < 12; i++ {
		task.Read(fd, buf)
		task.Lseek(fd, int64(i*4096), kernel.SeekSet)
	}
	task.Close(fd)

	churn := k.NewProcess("churner").NewTask("churner")
	for i := 0; i < 10; i++ {
		cfd, _ := churn.Openat(kernel.AtFDCWD, "/d/meta", kernel.ORdonly|kernel.OCreat, 0o644)
		churn.Close(cfd)
	}
}

// traceWorkload traces fn into a backend with the given shard count.
func traceWorkload(t *testing.T, shards int, session string, fn func(k *kernel.Kernel)) *store.Store {
	t.Helper()
	backend, err := store.Open(store.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	traced(fn)(t, backend, session)
	return backend
}

func TestDFGDeterministicAcrossShardCounts(t *testing.T) {
	type build struct {
		shards int
		raw    []byte
		fp     string
	}
	var builds []build
	for _, shards := range []int{1, 4, 16} {
		b := traceWorkload(t, shards, "det", pingPongWorkload)
		g, err := BuildDFG(context.Background(), b, "events", "det", 7 /* force paging */)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, build{shards: shards, raw: raw, fp: g.Fingerprint()})
	}
	for _, b := range builds[1:] {
		if string(b.raw) != string(builds[0].raw) {
			t.Fatalf("DFG differs between %d and %d shards:\n%s\nvs\n%s",
				builds[0].shards, b.shards, builds[0].raw, b.raw)
		}
		if b.fp != builds[0].fp {
			t.Fatalf("fingerprint differs: %s vs %s", builds[0].fp, b.fp)
		}
	}
}

func TestDFGStructure(t *testing.T) {
	b := traceWorkload(t, 4, "struct", pingPongWorkload)
	g, err := BuildDFG(context.Background(), b, "events", "struct", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Session != "struct" || g.Events == 0 {
		t.Fatalf("header = %+v", g)
	}
	if len(g.Procs) != 2 {
		t.Fatalf("processes = %d, want 2 (pingpong + churner)", len(g.Procs))
	}
	// Procs sorted by PID; find the ping-pong process by name.
	var pp *ProcessDFG
	for i := range g.Procs {
		if g.Procs[i].Proc == "pingpong" {
			pp = &g.Procs[i]
		}
		if g.Procs[i].PID <= 0 {
			t.Fatalf("bad pid in %+v", g.Procs[i])
		}
	}
	if pp == nil {
		t.Fatalf("no pingpong process: %+v", g.Procs)
	}
	edges := make(map[string]int64)
	for _, e := range pp.Edges {
		edges[e.From+"->"+e.To] = e.Count
	}
	if edges["read->lseek"] < 11 || edges["lseek->read"] < 11 {
		t.Fatalf("ping-pong edges missing: %v", edges)
	}
	nodes := make(map[string]Node)
	for _, n := range pp.Nodes {
		nodes[n.Syscall] = n
	}
	if nodes["read"].Count != 12 {
		t.Fatalf("read node = %+v", nodes["read"])
	}
}

// TestDFGOrdersAMigratedThreadInsideOneUlp: a thread that migrates between
// CPUs has its syscalls drained from two per-CPU rings, so its read at
// base+100 can be stored before its openat at base+10. At epoch scale the two
// stamps share one float64 (its ulp is 256 ns), so a float compare ties them
// and falls back to row order: read → openat, an edge the thread never took.
// The graph must draw openat → read, in process at 1, 4 and 16 shards and
// through _dfg on a 2- and a 4-partition coordinator's server.
func TestDFGOrdersAMigratedThreadInsideOneUlp(t *testing.T) {
	const base = int64(1_697_000_000_000_000_000)
	ctx := context.Background()
	migrated := []event.Event{
		{Session: "mig", Syscall: "read", Class: "io", PID: 7, TID: 8, ProcName: "app", ThreadName: "worker",
			FD: 3, Count: 4096, RetVal: 4096, TimeEnterNS: base + 100, TimeExitNS: base + 180},
		{Session: "mig", Syscall: "openat", Class: "io", PID: 7, TID: 8, ProcName: "app", ThreadName: "worker",
			RetVal: 3, TimeEnterNS: base + 10, TimeExitNS: base + 60},
	}
	edges := func(g *DFG) string {
		var out []string
		for _, p := range g.Procs {
			for _, e := range p.Edges {
				out = append(out, fmt.Sprintf("%s->%s x%d", e.From, e.To, e.Count))
			}
		}
		return strings.Join(out, ", ")
	}
	const want = "openat->read x1"
	for _, shards := range []int{1, 4, 16} {
		b, err := store.Open(store.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.BulkEvents(ctx, "events", append([]event.Event(nil), migrated...)); err != nil {
			t.Fatal(err)
		}
		g, err := BuildDFG(ctx, b, "events", "mig", 0)
		if err != nil || edges(g) != want {
			t.Fatalf("shards=%d: edges %q (%v), want %q", shards, edges(g), err, want)
		}
		if shards != 1 {
			continue
		}
		for _, P := range []int{2, 4} {
			server := store.NewServer(stripeAcross(t, b, P))
			Install(server)
			srv := httptest.NewServer(server)
			g, err := NewClient(store.NewClient(srv.URL)).DFG(ctx, "events", "mig")
			srv.Close()
			if err != nil || edges(g) != want {
				t.Fatalf("_dfg on a %d-partition coordinator: edges %q (%v), want %q", P, edges(g), err, want)
			}
		}
	}
}

func TestDFGDetectorFlagsAntiPatterns(t *testing.T) {
	b := traceWorkload(t, 4, "anti", pingPongWorkload)
	rep := diagnoseSession(t, b, "anti")
	rules := byRule(rep)
	if got := rules["read-lseek-ping-pong"]; len(got) != 1 {
		t.Fatalf("ping-pong findings = %+v (report %s)", got, rep)
	}
	churn := rules["open-close-churn"]
	found := false
	for _, f := range churn {
		if f.Detector != "dfg-antipatterns" {
			t.Fatalf("churn finding from wrong detector: %+v", f)
		}
		found = found || strings.Contains(f.Summary, "churner")
	}
	if !found {
		t.Fatalf("churner process not flagged: %+v", churn)
	}
}

// pagingBackend records every request the engine makes of its backend, to
// prove the whole diagnosis is one cursor pass and nothing else.
type pagingBackend struct {
	*store.Store
	pageSizes []int // Size of each SearchEvents call, in order
	others    int   // Count calls
}

func (p *pagingBackend) SearchEvents(ctx context.Context, index string, req store.SearchRequest) (store.EventsResult, error) {
	p.pageSizes = append(p.pageSizes, req.Size)
	return p.Store.SearchEvents(ctx, index, req)
}

func (p *pagingBackend) Count(ctx context.Context, index string, q store.Query) (int, error) {
	p.others++
	return p.Store.Count(ctx, index, q)
}

// TestEngineStreamsThroughCursors is ROADMAP item 3's "≤ 1 cursor pass"
// bar: a run over N events at page size P costs exactly the ⌈(N+1)/P⌉ pages
// of one pass (the cursor stops at the first short page), and no other
// backend call; a DFG build costs the same, a diff two passes. Over a
// wrapper of the store (pagingBackend) each page is a SearchEvents call of
// Size P. Over the *store.Store itself each page is read in place: it counts
// one search in the store's telemetry and puts nothing in the query cache.
func TestEngineStreamsThroughCursors(t *testing.T) {
	const pageSize = 16
	ctx := context.Background()
	b := traceWorkload(t, 4, "page", pingPongWorkload)
	traced(fluentBitWorkload(fluentbit.VersionBuggy))(t, b, "other")
	onePass := func(session string) int {
		n, err := b.Count(ctx, "events", store.Term(store.FieldSession, session))
		if err != nil || n == 0 {
			t.Fatalf("count %s = %d, %v", session, n, err)
		}
		return (n + pageSize) / pageSize // ⌈(n+1)/pageSize⌉
	}
	eng := NewEngine(DefaultRegistry())
	p := Params{PageSize: pageSize}
	reg := b.Telemetry()
	searches := reg.Counter(telemetry.MetricSearches, "")
	cachePuts := reg.Counter(telemetry.MetricQueryCacheMisses, "")
	for _, tc := range []struct {
		name string
		want int
		run  func(b store.Backend) error
	}{
		{"Engine.Run", onePass("page"), func(b store.Backend) error {
			_, err := eng.RunParams(ctx, b, "events", "page", p)
			return err
		}},
		{"BuildDFG", onePass("page"), func(b store.Backend) error {
			_, err := BuildDFG(ctx, b, "events", "page", pageSize)
			return err
		}},
		{"DiffSessions", onePass("page") + onePass("other"), func(b store.Backend) error {
			_, err := eng.DiffSessions(ctx, b, "events", "page", "other", p)
			return err
		}},
	} {
		pb := &pagingBackend{Store: b}
		if err := tc.run(pb); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(pb.pageSizes) != tc.want {
			t.Errorf("%s issued %d cursor pages, want %d", tc.name, len(pb.pageSizes), tc.want)
		}
		for _, size := range pb.pageSizes {
			if size != pageSize {
				t.Errorf("%s requested a page of Size %d, want %d", tc.name, size, pageSize)
			}
		}
		if pb.others != 0 {
			t.Errorf("%s made %d Count calls, want 0", tc.name, pb.others)
		}

		s0, p0 := searches.Value(), cachePuts.Value()
		if err := tc.run(b); err != nil {
			t.Fatalf("%s on the store: %v", tc.name, err)
		}
		if n := int(searches.Value() - s0); n != tc.want {
			t.Errorf("%s on the store walked %d pages, want %d", tc.name, n, tc.want)
		}
		if n := cachePuts.Value() - p0; n != 0 {
			t.Errorf("%s on the store put %d pages in the query cache, want 0", tc.name, n)
		}
	}
}

// TestAnalyzeCopiesNoPage: over an in-process store, a diagnosis pass reads
// every row where it is stored, so a run over a 60k-event session allocates
// at most 64 B per event, where one that copied each page out of the store
// allocated a whole event (about 300 B) per event more. The store has its
// query cache; a row in another session lands between the two runs, as a
// live store's ingest does, so the measured run cannot be answered from it.
func TestAnalyzeCopiesNoPage(t *testing.T) {
	const events, batch = 60_000, 1000
	ctx := context.Background()
	b := memStore(t)
	syscalls := []string{"openat", "read", "lseek", "read", "write", "close"}
	evs := make([]event.Event, batch)
	for n := 0; n < events; n += batch {
		for i := range evs {
			seq := n + i
			enter := int64(1_000_000_000 + seq*25_000)
			evs[i] = event.Event{
				Session: "alloc", Syscall: syscalls[seq%len(syscalls)], Class: "read",
				RetVal: 4096, FD: 5, Count: 4096, Offset: int64(seq%64) * 4096, HasOffset: true,
				PID: 100, TID: 101 + seq%4, ProcName: "app", ThreadName: "worker",
				FilePath: fmt.Sprintf("/data/f%02d", seq%16), TimeEnterNS: enter, TimeExitNS: enter + 1200,
			}
		}
		if err := b.BulkEvents(ctx, "events", evs); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(DefaultRegistry())
	run := func() {
		rep, _, err := eng.Analyze(ctx, b, "events", "alloc", Params{})
		if err != nil || rep.Events != events {
			t.Fatalf("analyze: %d events, %v", rep.Events, err)
		}
	}
	run()
	if err := b.BulkEvents(ctx, "events", []event.Event{{Session: "tick", Syscall: "read", TimeEnterNS: 1}}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / events
	if per > 64 {
		t.Fatalf("a run allocated %.0f B per event, want at most 64", per)
	}
	t.Logf("a run allocated %.1f B per event", per)
}
