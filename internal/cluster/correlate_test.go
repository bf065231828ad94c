package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

const corrSession = "corr"

// corrTag is the file tag of fixture file n.
func corrTag(n int) event.FileTag { return event.FileTag{Dev: 8, Ino: uint64(n), BirthNS: 1} }

// correlationFixture builds rounds of one file-naming pattern, in ingest
// order, with the path each tag must end up named by (empty: unresolved).
// Round-robin striping puts a file's open and its reads on different
// partitions at P = 2 and 4, and a partition that named its rows alone
// would pick the wrong anchor or none.
func correlationFixture(rounds int) ([]event.Event, map[event.FileTag]string) {
	const t0 = int64(1_700_000_000_000_000_000)
	var evs []event.Event
	want := make(map[event.FileTag]string)
	for r := 0; r < rounds; r++ {
		base := t0 + int64(r)*1_000_000
		at := base
		row := func(sys string, file int, path string, enter int64) {
			e := event.Event{Session: corrSession, Syscall: sys, PID: 7, TID: 7 + r, ProcName: "app", ThreadName: "app",
				KernelPath: path, TimeEnterNS: enter, TimeExitNS: enter + 40, RetVal: 4096, Count: 4096}
			if file > 0 {
				e.FileTag, e.FD = corrTag(file), 3+file%5
			}
			evs = append(evs, e)
		}
		next := func() int64 { at += 1_000; return at }
		f := r * 10
		// One open, its reads after it on other partitions.
		row("openat", f+1, fmt.Sprintf("/data/%d/a.log", r), base+10)
		for range 3 {
			row("read", f+1, "", next())
		}
		want[corrTag(f+1)] = fmt.Sprintf("/data/%d/a.log", r)
		// Two opens of one tag: the earlier one, ingested second, names it.
		row("openat", f+2, fmt.Sprintf("/data/%d/reused", r), base+500)
		row("open", f+2, fmt.Sprintf("/data/%d/first", r), base+100)
		row("write", f+2, "", next())
		row("write", f+2, "", next())
		want[corrTag(f+2)] = fmt.Sprintf("/data/%d/first", r)
		// A tag whose only anchor is a stat.
		row("stat", f+3, fmt.Sprintf("/data/%d/stat-only", r), base+200)
		row("read", f+3, "", next())
		row("read", f+3, "", next())
		want[corrTag(f+3)] = fmt.Sprintf("/data/%d/stat-only", r)
		// An earlier stat and a later open: the open wins.
		row("stat", f+4, fmt.Sprintf("/data/%d/stat-first", r), base+50)
		row("openat", f+4, fmt.Sprintf("/data/%d/opened", r), base+300)
		row("write", f+4, "", next())
		row("write", f+4, "", next())
		want[corrTag(f+4)] = fmt.Sprintf("/data/%d/opened", r)
		// Two opens at one time: the smaller path wins.
		row("openat", f+5, fmt.Sprintf("/data/%d/tie-b", r), base+400)
		row("openat", f+5, fmt.Sprintf("/data/%d/tie-a", r), base+400)
		row("read", f+5, "", next())
		row("read", f+5, "", next())
		want[corrTag(f+5)] = fmt.Sprintf("/data/%d/tie-a", r)
		// A tag nothing anchors, and rows with no tag.
		row("read", f+6, "", next())
		row("read", f+6, "", next())
		want[corrTag(f+6)] = ""
		row("fsync", 0, "", next())
		row("close", 0, "", next())
	}
	return evs, want
}

// checkNames fails unless every tagged row of hits carries its own kernel
// path, else the path want gives its tag.
func checkNames(t *testing.T, at string, hits []event.Event, want map[event.FileTag]string) {
	t.Helper()
	for _, e := range hits {
		if e.FileTag.Zero() {
			continue
		}
		if path := cmp.Or(e.KernelPath, want[e.FileTag]); e.FilePath != path {
			t.Fatalf("%s: %s of tag %v named %q, want %q", at, e.Syscall, e.FileTag, e.FilePath, path)
		}
	}
}

// corrStores opens n stores: in memory, or durable in dirs (created when nil).
func corrStores(t *testing.T, n int, dirs []string) ([]*store.Store, []string) {
	t.Helper()
	stores := make([]*store.Store, n)
	for i := range stores {
		if dirs == nil {
			stores[i] = memStore(t)
			continue
		}
		if dirs[i] == "" {
			dirs[i] = t.TempDir()
		}
		st, err := store.Open(store.WithDataDir(dirs[i]), store.WithFsyncPolicy(store.FsyncOff), store.WithSnapshotInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stores[i] = st
	}
	return stores, dirs
}

// corrBackend puts a coordinator over stores, in process or behind HTTP
// (each partition a node server, the coordinator's own server running the
// diagnosis routes), and returns the backend a client uses plus a diagnoser.
func corrBackend(t *testing.T, stores []*store.Store, overHTTP bool) (store.Backend, func(context.Context) (diagnose.Report, error)) {
	t.Helper()
	nodes := make([]Node, len(stores))
	for p, st := range stores {
		if !overHTTP {
			nodes[p] = &memNode{st: st, name: fmt.Sprintf("mem-%d", p)}
			continue
		}
		srv := httptest.NewServer(store.NewServer(st))
		t.Cleanup(srv.Close)
		fc, err := store.NewFailoverClient(store.NewClient(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = fc
	}
	co, err := New(Config{Clock: clock.NewVirtual(0)}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	engine := diagnose.NewEngine(diagnose.DefaultRegistry())
	if !overHTTP {
		return co, func(ctx context.Context) (diagnose.Report, error) { return engine.Run(ctx, co, testIndex, corrSession) }
	}
	server := store.NewServer(co)
	diagnose.Install(server)
	csrv := httptest.NewServer(server)
	t.Cleanup(csrv.Close)
	c := store.NewClient(csrv.URL)
	return c, func(ctx context.Context) (diagnose.Report, error) {
		return diagnose.NewClient(c).Diagnose(ctx, testIndex, corrSession)
	}
}

// TestClusterCorrelationMatchesOneNode: the coordinator correlates as one
// node does — it harvests the anchors through its merged search and every
// partition names its rows with that one record — so on 1, 2 and 4
// partitions, in memory and durable with a cold half, in process and over
// HTTP, the result, the post-pass rows and the _diagnose report equal a
// single node's over the same ingest, every tag is named by its best
// anchor, a second pass updates nothing, and a durable reopen keeps every
// name.
func TestClusterCorrelationMatchesOneNode(t *testing.T) {
	ctx := context.Background()
	evs, want := correlationFixture(3)
	all := store.SearchRequest{Query: store.MatchAll(), Size: -1}
	for _, P := range []int{1, 2, 4} {
		for _, durable := range []bool{false, true} {
			for _, overHTTP := range []bool{false, true} {
				at := fmt.Sprintf("P=%d durable=%v http=%v", P, durable, overHTTP)
				var singleDir, dirs []string
				if durable {
					singleDir, dirs = make([]string, 1), make([]string, P)
				}
				singles, singleDir := corrStores(t, 1, singleDir)
				parts, dirs := corrStores(t, P, dirs)
				single := singles[0]
				b, diag := corrBackend(t, parts, overHTTP)
				for i := 0; i < len(evs); i += 5 {
					batch := evs[i:min(i+5, len(evs))]
					for _, tg := range []store.Backend{single, b} {
						if err := tg.BulkEvents(ctx, testIndex, batch); err != nil {
							t.Fatalf("%s: bulk: %v", at, err)
						}
					}
					if durable && i+5 == 30 { // half the rows go cold
						for _, st := range append(singles, parts...) {
							if err := st.Snapshot(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}

				wantRes, err := single.Correlate(ctx, testIndex, corrSession)
				if err != nil {
					t.Fatalf("%s: node correlate: %v", at, err)
				}
				gotRes, err := b.Correlate(ctx, testIndex, corrSession)
				if err != nil || gotRes != wantRes {
					t.Fatalf("%s: cluster correlate = %+v (%v), node %+v", at, gotRes, err, wantRes)
				}
				if wantRes.TagsResolved != 15 || wantRes.EventsUnresolved != 6 {
					t.Fatalf("%s: node correlate = %+v, want 15 tags and 6 unresolved rows", at, wantRes)
				}
				wantRows, err := single.SearchEvents(ctx, testIndex, all)
				if err != nil {
					t.Fatal(err)
				}
				checkNames(t, at+" node", wantRows.Hits, want)
				gotDocs, err := documents(ctx, b, testIndex, all)
				if err != nil || fingerprint(t, gotDocs) != fingerprint(t, wantRows.Documents()) {
					t.Fatalf("%s: post-pass rows differ from the node's (%v)", at, err)
				}
				wantRep, err := diagnose.NewEngine(diagnose.DefaultRegistry()).Run(ctx, single, testIndex, corrSession)
				if err != nil {
					t.Fatal(err)
				}
				if gotRep, err := diag(ctx); err != nil || !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("%s: _diagnose differs from the node's (%v)\n got %+v\nwant %+v", at, err, gotRep, wantRep)
				}

				if durable {
					for _, st := range append(singles, parts...) {
						if err := st.Close(); err != nil {
							t.Fatal(err)
						}
					}
					singles, _ = corrStores(t, 1, singleDir)
					parts, _ = corrStores(t, P, dirs)
					single = singles[0]
					b, _ = corrBackend(t, parts, overHTTP)
					for name, c := range map[string]store.Backend{"node": single, "cluster": b} {
						got, err := documents(ctx, c, testIndex, all)
						if err != nil || fingerprint(t, got) != fingerprint(t, wantRows.Documents()) {
							t.Fatalf("%s: %s rows after reopen differ from the node's before it (%v)", at, name, err)
						}
					}
				}
				for name, c := range map[string]store.Backend{"node": single, "cluster": b} {
					if res, err := c.Correlate(ctx, testIndex, corrSession); err != nil || res.EventsUpdated != 0 ||
						res.EventsAlreadyResolved != wantRes.EventsUpdated {
						t.Fatalf("%s: %s second pass = %+v (%v), want nothing updated", at, name, res, err)
					}
				}
			}
		}
	}
}

// TestClusterCorrelationPartialBroadcast: a partition that fails the naming
// broadcast fails the pass, which names it; the partitions that answered
// keep what they journaled; once the partition recovers a rerun finishes the
// pass and the cluster equals one node. A follower partition refuses the
// broadcast with 409, and a partition that never saw the index counts as
// empty.
func TestClusterCorrelationPartialBroadcast(t *testing.T) {
	ctx := context.Background()
	evs, _ := correlationFixture(2)
	all := store.SearchRequest{Query: store.MatchAll(), Size: -1}
	single := memStore(t)
	if err := single.BulkEvents(ctx, testIndex, evs); err != nil {
		t.Fatal(err)
	}
	wantRes, err := single.Correlate(ctx, testIndex, corrSession)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := single.SearchEvents(ctx, testIndex, all)
	if err != nil {
		t.Fatal(err)
	}

	co, mems := newTestCluster(t, 4)
	if err := co.BulkEvents(ctx, testIndex, evs); err != nil {
		t.Fatal(err)
	}
	named := func(p int) int {
		n, err := mems[p].st.Count(ctx, testIndex, store.Exists(store.FieldFilePath))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	boom := errors.New("connection reset by peer")
	// Partition 2 answers the harvest, then fails: the broadcast reaches it
	// faulted.
	co.nodes[2] = &faultAfterScatter{memNode: mems[2], err: boom}
	_, err = co.Correlate(ctx, testIndex, corrSession)
	if err == nil || !strings.Contains(err.Error(), "partition 2") || !errors.Is(err, boom) {
		t.Fatalf("correlate with a failing partition: %v, want an error naming partition 2", err)
	}
	if named(2) != 0 {
		t.Fatalf("the failed partition named %d rows", named(2))
	}
	for _, p := range []int{0, 1, 3} {
		if named(p) == 0 {
			t.Fatalf("partition %d lost the naming it journaled", p)
		}
	}
	// Over HTTP the failure is the coordinator's 502.
	csrv := httptest.NewServer(store.NewServer(co))
	defer csrv.Close()
	if code, body := doRaw(t, http.MethodPost, csrv.URL+"/"+testIndex+"/_correlate?session="+corrSession, nil); code != http.StatusBadGateway ||
		!strings.Contains(string(body), "partition 2") {
		t.Fatalf("HTTP correlate with a failing partition = %d %s, want 502 naming partition 2", code, body)
	}

	co.nodes[2] = mems[2]
	mems[2].setFault(nil)
	res, err := co.Correlate(ctx, testIndex, corrSession)
	if err != nil || res.TagsResolved != wantRes.TagsResolved || res.EventsWithTag != wantRes.EventsWithTag ||
		res.EventsUnresolved != wantRes.EventsUnresolved {
		t.Fatalf("rerun after recovery = %+v (%v), node %+v", res, err, wantRes)
	}
	gotDocs, err := documents(ctx, co, testIndex, all)
	if err != nil || fingerprint(t, gotDocs) != fingerprint(t, wantRows.Documents()) {
		t.Fatalf("rows after the rerun differ from the node's (%v)", err)
	}

	// A follower partition refuses the broadcast: 409 from its node, and the
	// pass fails naming it.
	mems[1].st.SetFollower()
	nsrv := httptest.NewServer(store.NewServer(mems[1].st))
	defer nsrv.Close()
	rec := event.PathsRecord{Session: corrSession}
	var he *store.HTTPError
	if _, err := store.NewClient(nsrv.URL).NamePaths(ctx, testIndex, rec); !errors.As(err, &he) || he.Status != http.StatusConflict {
		t.Fatalf("follower _paths: %v, want 409", err)
	}
	if _, err := co.Correlate(ctx, testIndex, corrSession); !errors.Is(err, store.ErrReadOnlyFollower) ||
		!strings.Contains(err.Error(), "partition 1") {
		t.Fatalf("correlate over a follower partition: %v", err)
	}
	mems[1].st.Promote()

	// Two rows on four partitions: two partitions lack the index.
	co2, _ := newTestCluster(t, 4)
	if err := co2.BulkEvents(ctx, "small", evs[:2]); err != nil {
		t.Fatal(err)
	}
	if res, err := co2.Correlate(ctx, "small", corrSession); err != nil || res.TagsResolved != 1 || res.EventsUpdated != 2 {
		t.Fatalf("correlate with empty partitions = %+v (%v)", res, err)
	}
	if _, err := co2.Correlate(ctx, "nope", ""); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("correlate on an index no partition holds: %v", err)
	}
}

// faultAfterScatter is a partition that fails every call after its first
// scatter.
type faultAfterScatter struct {
	*memNode
	err error
}

func (n *faultAfterScatter) Scatter(ctx context.Context, index string, sreq store.ScatterRequest) (store.ScatterResponse, error) {
	defer n.setFault(n.err)
	return n.memNode.Scatter(ctx, index, sreq)
}
