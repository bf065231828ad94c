package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/repl"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// The HTTP half of the harness: real store servers behind httptest, real
// FailoverClients per partition, the coordinator's own HTTP server on top,
// and the ordinary store.Client pointed at it. These tests pin the
// transparency claim — a client cannot tell a coordinator from a node — down
// to the raw response bytes.

// newHTTPCluster boots n single-node in-memory partitions under a coordinator
// HTTP server.
func newHTTPCluster(t *testing.T, n int) (*Coordinator, *httptest.Server, []*store.Store) {
	t.Helper()
	stores := make([]*store.Store, n)
	for i := range stores {
		stores[i] = memStore(t)
	}
	co, csrv := newHTTPClusterOver(t, stores)
	return co, csrv, stores
}

// newHTTPClusterOver makes each store a partition — a store server behind a
// one-member FailoverClient — under a coordinator HTTP server.
func newHTTPClusterOver(t *testing.T, stores []*store.Store) (*Coordinator, *httptest.Server) {
	t.Helper()
	nodes := make([]Node, len(stores))
	for i, st := range stores {
		srv := httptest.NewServer(store.NewServer(st))
		t.Cleanup(srv.Close)
		fc, err := store.NewFailoverClient(store.NewClient(srv.URL))
		if err != nil {
			t.Fatalf("failover client: %v", err)
		}
		nodes[i] = fc
	}
	co, err := New(Config{Clock: clock.NewVirtual(0)}, nodes...)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	csrv := httptest.NewServer(store.NewServer(co))
	t.Cleanup(csrv.Close)
	return co, csrv
}

// postRaw POSTs a body and returns status plus the exact response bytes.
func postRaw(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	code, _, b := postAccepting(t, url, contentType, "", body)
	return code, b
}

// postAccepting is postRaw with an Accept header (none when empty), also
// returning the response's content type.
func postAccepting(t *testing.T, url, contentType, accept string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

// TestClusterNDJSONEdge pins the coordinator's NDJSON front door to the
// node's: both run the store's strict edge decoder, so a nanosecond
// timestamp float64 cannot hold lands exactly on its owner partition, and
// every malformed body is refused with the node's own status and message —
// naming the offending field — before anything is striped.
func TestClusterNDJSONEdge(t *testing.T) {
	ssrv := httptest.NewServer(store.NewServer(memStore(t)))
	defer ssrv.Close()
	_, csrv, stores := newHTTPCluster(t, 3)

	const exact = int64(1687859999123456789) // float64 would store ...456768
	ok := `{"index":{}}` + "\n" + `{"session":"ns","syscall":"write","time_enter_ns":1687859999123456789,"time_exit_ns":1687859999123456799}` + "\n"
	if code, body := postRaw(t, csrv.URL+"/"+testIndex+"/_bulk", "application/x-ndjson", []byte(ok)); code != http.StatusOK {
		t.Fatalf("ndjson bulk via coordinator: %d %s", code, body)
	}
	var got []int64
	for _, st := range stores {
		res, err := st.SearchEvents(context.Background(), testIndex, store.SearchRequest{Query: store.MatchAll()})
		if err != nil {
			continue // this partition owns no row of the index
		}
		for _, e := range res.Hits {
			got = append(got, e.TimeEnterNS, e.TimeExitNS)
		}
	}
	if len(got) != 2 || got[0] != exact || got[1] != exact+10 {
		t.Fatalf("stored times = %v, want [%d %d]", got, exact, exact+10)
	}

	for _, tc := range []struct{ name, doc, names string }{
		{"unknown key", `{"custom_note":"x"}`, "custom_note"},
		{"string where integer expected", `{"time_enter_ns":"12"}`, "time_enter_ns"},
		{"non-integral number in an integer field", `{"ret_val":1.5}`, "ret_val"},
		{"unparseable file_tag", `{"file_tag":"dev1:ino7"}`, "file_tag"},
		{"dangling action line", `{"session":"s"}` + "\n" + `{"index":{}}`, "line 3"},
	} {
		body := []byte(`{"index":{}}` + "\n" + tc.doc + "\n")
		scode, sbody := postRaw(t, ssrv.URL+"/rej/_bulk", "application/x-ndjson", body)
		ccode, cbody := postRaw(t, csrv.URL+"/rej/_bulk", "application/x-ndjson", body)
		if ccode != http.StatusBadRequest || !bytes.Contains(cbody, []byte(tc.names)) {
			t.Errorf("%s: coordinator answered %d %s; want 400 naming %q", tc.name, ccode, cbody, tc.names)
		}
		if scode != ccode || !bytes.Equal(sbody, cbody) {
			t.Errorf("%s: node %d %s, coordinator %d %s", tc.name, scode, sbody, ccode, cbody)
		}
	}
}

// TestClusterHTTPTransparency is the end-to-end byte-identity check: the
// same ingest through a 4-partition coordinator's HTTP API and through a
// bare node, then every query compared as raw response bodies, JSON and
// typed — including the aggregation partials' JSON round-trip across the
// real wire.
func TestClusterHTTPTransparency(t *testing.T) {
	singleStore := memStore(t)
	ssrv := httptest.NewServer(store.NewServer(singleStore))
	defer ssrv.Close()

	_, csrv, _ := newHTTPCluster(t, 4)

	// Ingest through both HTTP front doors: binary frames and NDJSON bulks.
	singleC := store.NewClient(ssrv.URL)
	clusterC := store.NewClient(csrv.URL)
	ingestBoth(t, singleC, clusterC)

	var ndjson bytes.Buffer
	for _, e := range clusterDocs(7, 9) {
		ndjson.WriteString(`{"index":{}}` + "\n")
		b, _ := json.Marshal(store.EventToDoc(&e))
		ndjson.Write(b)
		ndjson.WriteByte('\n')
	}
	for _, base := range []string{ssrv.URL, csrv.URL} {
		code, body := postRaw(t, base+"/"+testIndex+"/_bulk", "application/x-ndjson", ndjson.Bytes())
		if code != http.StatusOK {
			t.Fatalf("ndjson bulk via %s: %d %s", base, code, body)
		}
	}

	for name, req := range differentialRequests() {
		rb, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		scode, sbody := postRaw(t, ssrv.URL+"/"+testIndex+"/_search", "application/json", rb)
		ccode, cbody := postRaw(t, csrv.URL+"/"+testIndex+"/_search", "application/json", rb)
		if scode != http.StatusOK || ccode != http.StatusOK {
			t.Fatalf("%s: statuses single=%d cluster=%d", name, scode, ccode)
		}
		if !bytes.Equal(sbody, cbody) {
			t.Fatalf("%s: HTTP bodies diverged\nsingle:  %s\ncluster: %s", name, sbody, cbody)
		}
		// Two empty bodies are equal too: a 200 must carry the response.
		var decoded store.SearchResponse
		if err := json.Unmarshal(cbody, &decoded); err != nil {
			t.Fatalf("%s: 200 with an undecodable body %q: %v", name, cbody, err)
		}
		// The typed body a client's SearchEvents reads is the same bytes too.
		scode, sct, sbody := postAccepting(t, ssrv.URL+"/"+testIndex+"/_search", "application/json", event.ContentTypeBinaryV2, rb)
		ccode, cct, cbody := postAccepting(t, csrv.URL+"/"+testIndex+"/_search", "application/json", event.ContentTypeBinaryV2, rb)
		if scode != http.StatusOK || ccode != http.StatusOK || sct != event.ContentTypeBinaryV2 || cct != sct {
			t.Fatalf("%s: typed answers: single %d %q, cluster %d %q", name, scode, sct, ccode, cct)
		}
		if !bytes.Equal(sbody, cbody) {
			t.Fatalf("%s: typed bodies diverged\nsingle:  %q\ncluster: %q", name, sbody, cbody)
		}
	}

	// The ordinary client decodes a coordinator response transparently.
	ctx := context.Background()
	resp, err := clusterC.Search(ctx, testIndex, store.SearchRequest{
		Query: store.Term(store.FieldProcName, "loader"), Size: 5,
		Sort: []store.SortField{{Field: store.FieldTimeEnter, Desc: true}},
	})
	if err != nil {
		t.Fatalf("client search via coordinator: %v", err)
	}
	if len(resp.Hits) != 5 || resp.NextAfter == nil {
		t.Fatalf("client search via coordinator: %d hits, next_after %v", len(resp.Hits), resp.NextAfter)
	}

	// Error statuses match a node's, too.
	badReq, _ := json.Marshal(store.SearchRequest{
		Query: store.MatchAll(), Size: 3, From: 1, SearchAfter: []any{float64(4)},
	})
	scode, _ := postRaw(t, ssrv.URL+"/"+testIndex+"/_search", "application/json", badReq)
	ccode, _ := postRaw(t, csrv.URL+"/"+testIndex+"/_search", "application/json", badReq)
	if scode != http.StatusBadRequest || ccode != http.StatusBadRequest {
		t.Fatalf("From+cursor: single=%d cluster=%d, want 400/400", scode, ccode)
	}
	scode, _ = postRaw(t, ssrv.URL+"/nope/_search", "application/json", []byte(`{}`))
	ccode, _ = postRaw(t, csrv.URL+"/nope/_search", "application/json", []byte(`{}`))
	if scode != http.StatusNotFound || ccode != http.StatusNotFound {
		t.Fatalf("missing index: single=%d cluster=%d, want 404/404", scode, ccode)
	}

	// Stats through the coordinator aggregates with a partition breakdown.
	hresp, err := http.Get(csrv.URL + "/" + testIndex + "/_stats")
	if err != nil {
		t.Fatalf("GET _stats: %v", err)
	}
	defer hresp.Body.Close()
	var cs ClusterStats
	if err := json.NewDecoder(hresp.Body).Decode(&cs); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	want, err := singleC.Count(ctx, testIndex, store.MatchAll())
	if err != nil {
		t.Fatalf("single count: %v", err)
	}
	if cs.Docs != want || len(cs.Partitions) != 4 {
		t.Fatalf("cluster stats %+v, want %d docs over 4 partitions", cs, want)
	}
}

// TestClusterHealthAndMetricsHTTP: the coordinator's observability endpoints
// report per-node routing state and fan-out counters.
func TestClusterHealthAndMetricsHTTP(t *testing.T) {
	_, csrv, _ := newHTTPCluster(t, 2)
	clusterC := store.NewClient(csrv.URL)
	ingestBoth(t, clusterC)
	if _, err := clusterC.Search(context.Background(), testIndex, store.SearchRequest{Query: store.MatchAll(), Size: 1}); err != nil {
		t.Fatalf("search: %v", err)
	}

	hresp, err := http.Get(csrv.URL + "/_health")
	if err != nil {
		t.Fatalf("GET _health: %v", err)
	}
	defer hresp.Body.Close()
	var h ClusterHealth
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if h.Status != "ok" || h.Partitions != 2 || len(h.Nodes) != 2 {
		t.Fatalf("cluster health = %+v", h)
	}
	for p, n := range h.Nodes {
		if n.Partition != p || n.Breaker != "closed" || n.Role != "primary" {
			t.Fatalf("node %d health = %+v", p, n)
		}
	}

	mresp, err := http.Get(csrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"dio_cluster_fanouts_total",
		"dio_cluster_routed_rows_total",
		"dio_cluster_node0_calls_total",
		"dio_cluster_node1_breaker_open",
	} {
		if !bytes.Contains(mb, []byte(want)) {
			t.Fatalf("/metrics missing %s:\n%s", want, mb)
		}
	}
}

// TestClusterCursorResumeAcrossPartitionFailover is the satellite scenario:
// a sorted search_after walk through the coordinator keeps returning
// byte-identical pages when one partition's primary dies between pages and
// its WAL-shipped follower is promoted — the FailoverClient under that
// partition re-picks, and the cursor (cluster-global coordinates) is valid
// on the follower because replication preserves row ids.
func TestClusterCursorResumeAcrossPartitionFailover(t *testing.T) {
	ctx := context.Background()

	// Partition 0: durable primary + durable follower behind a WAL-shipping
	// replicator, fronted by a two-member FailoverClient.
	dir, err := os.MkdirTemp("", "dio-cluster-failover-")
	if err != nil {
		t.Fatalf("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	primary, err := store.Open(
		store.WithDataDir(dir),
		store.WithFsyncPolicy(store.FsyncInterval),
		store.WithSnapshotInterval(0))
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	defer primary.Close()
	psrv := httptest.NewServer(store.NewServer(primary))
	follower, err := store.Open(
		store.WithDataDir(t.TempDir()),
		store.WithFsyncPolicy(store.FsyncInterval),
		store.WithSnapshotInterval(0))
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	defer follower.Close()
	if err := follower.SetFollower(); err != nil {
		t.Fatalf("set follower: %v", err)
	}
	fsrv := httptest.NewServer(store.NewServer(follower))
	defer fsrv.Close()
	shipper := repl.New(primary, repl.ClientTransport{C: store.NewClient(fsrv.URL)}, repl.Config{
		Interval: 5 * time.Millisecond,
	})
	shipper.Start()
	fo0, err := store.NewFailoverClient(
		store.NewClient(psrv.URL),
		store.NewClient(fsrv.URL))
	if err != nil {
		t.Fatalf("failover client: %v", err)
	}

	// Partition 1: a plain single-member node.
	st1 := memStore(t)
	srv1 := httptest.NewServer(store.NewServer(st1))
	defer srv1.Close()
	fo1, err := store.NewFailoverClient(store.NewClient(srv1.URL))
	if err != nil {
		t.Fatalf("failover client: %v", err)
	}

	co, err := New(Config{Clock: clock.NewVirtual(0)}, fo0, fo1)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}

	// Control: the same rows in a single store, walked uninterrupted.
	control := memStore(t)
	ingestBoth(t, control, co)

	// Drain replication so the follower holds exactly the primary's state
	// before the kill (the repl suite's own lossless-handover precondition).
	if err := shipper.Stop(); err != nil {
		t.Fatalf("drain shipper: %v", err)
	}

	req := store.SearchRequest{
		Query: store.MatchAll(), Size: 13,
		Sort: []store.SortField{
			{Field: store.FieldProcName},
			{Field: store.FieldTimeEnter},
		},
	}
	want, err := control.Search(ctx, testIndex, req)
	if err != nil {
		t.Fatalf("control page 1: %v", err)
	}
	got, err := documents(ctx, co, testIndex, req)
	if err != nil {
		t.Fatalf("cluster page 1: %v", err)
	}
	if fingerprint(t, got) != fingerprint(t, want) {
		t.Fatal("page 1 diverged before the failover")
	}

	// Partition 0's primary dies between pages; the follower is promoted.
	psrv.Close()
	follower.Promote()

	creq, sreq := req, req
	page := 2
	for {
		sreq.SearchAfter, creq.SearchAfter = want.NextAfter, got.NextAfter
		want, err = control.Search(ctx, testIndex, sreq)
		if err != nil {
			t.Fatalf("control page %d: %v", page, err)
		}
		got, err = documents(ctx, co, testIndex, creq)
		if err != nil {
			t.Fatalf("cluster page %d (after failover): %v", page, err)
		}
		if fingerprint(t, got) != fingerprint(t, want) {
			t.Fatalf("page %d diverged after partition failover", page)
		}
		if want.NextAfter == nil {
			break
		}
		if page++; page > 60 {
			t.Fatal("cursor walk did not terminate")
		}
	}
	if fo0.Switches() == 0 {
		t.Fatal("partition 0 never failed over — the test did not exercise the handover")
	}

	// The promoted follower also accepts new writes routed to partition 0.
	if err := co.BulkEvents(ctx, testIndex, clusterEvents(30, 6)); err != nil {
		t.Fatalf("bulk after promote: %v", err)
	}

	// Count still exact across the promoted partition.
	cn, err := co.Count(ctx, testIndex, store.MatchAll())
	if err != nil {
		t.Fatalf("count after failover: %v", err)
	}
	sn, _ := control.Count(ctx, testIndex, store.MatchAll())
	if cn != sn+6 {
		t.Fatalf("post-failover count %d, want %d", cn, sn+6)
	}
}

// TestClusterHTTPNode404Sentinel pins the node detail the empty-partition
// logic rides on: an HTTP 404 from a node surfaces as ErrIndexNotFound.
func TestClusterHTTPNode404Sentinel(t *testing.T) {
	ctx := context.Background()
	st := memStore(t)
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	fc, err := store.NewFailoverClient(store.NewClient(srv.URL))
	if err != nil {
		t.Fatalf("failover client: %v", err)
	}
	var n Node = fc
	if _, err := n.Count(ctx, "missing", store.MatchAll()); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("count on missing index: %v, want ErrIndexNotFound", err)
	}
	if _, err := n.Scatter(ctx, "missing", store.ScatterRequest{
		Req: store.SearchRequest{Query: store.MatchAll()}, Partitions: 1,
	}); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("scatter on missing index: %v, want ErrIndexNotFound", err)
	}
	if _, err := n.Stats(ctx, "missing"); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("stats on missing index: %v, want ErrIndexNotFound", err)
	}
}

// TestClusterUnreadableSegmentFailsLoudly: two partitions of durable tiered
// nodes, every row evicted into a cold segment, then one node's segment file
// disappears. That node can no longer answer a query that must read it, and
// the coordinator must say so — a node's failure is not "this partition owns
// no rows", so neither _search nor _count may come back 200 with the other
// partition's share alone. The file goes before any query reads it: a node
// reads and verifies a segment once, on its first cold read after Open, and
// answers from that verified image afterwards.
func TestClusterUnreadableSegmentFailsLoudly(t *testing.T) {
	ctx := context.Background()
	dirs := []string{t.TempDir(), t.TempDir()}
	stores := make([]*store.Store, len(dirs))
	for i, dir := range dirs {
		st, err := store.Open(store.WithDataDir(dir), store.WithRetention(200_000*time.Hour),
			store.WithSnapshotInterval(0), store.WithFsyncPolicy(store.FsyncOff))
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		t.Cleanup(func() { st.Close() })
		stores[i] = st
	}
	co, csrv := newHTTPClusterOver(t, stores)
	ingestBoth(t, co)
	reads := store.Term(store.FieldSyscall, "read")
	whole, err := co.Count(ctx, testIndex, reads)
	if err != nil || whole == 0 {
		t.Fatalf("count before the loss: %d, %v", whole, err)
	}
	for i, st := range stores {
		if err := st.Snapshot(); err != nil { // flush + evict: the rows are cold now
			t.Fatalf("flush node %d: %v", i, err)
		}
	}

	segs, err := filepath.Glob(filepath.Join(dirs[1], "*", "seg-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("node 1 segment files: %v, %v", segs, err)
	}
	for _, f := range segs {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := co.Count(ctx, testIndex, reads); err == nil {
		t.Fatalf("count answered %d of %d rows though node 1 cannot read its segment", n, whole)
	}
	if res, err := co.SearchEvents(ctx, testIndex, store.SearchRequest{Query: reads, Size: 5}); err == nil {
		t.Fatalf("search answered total %d of %d though node 1 cannot read its segment", res.Total, whole)
	}
	body, _ := json.Marshal(reads)
	if code, b := postRaw(t, csrv.URL+"/"+testIndex+"/_count", "application/json", body); code < 500 {
		t.Fatalf("coordinator _count = %d %s; want a 5xx", code, b)
	}
	body, _ = json.Marshal(store.SearchRequest{Query: reads, Size: 5})
	if code, b := postRaw(t, csrv.URL+"/"+testIndex+"/_search", "application/json", body); code < 500 {
		t.Fatalf("coordinator _search = %d %s; want a 5xx", code, b)
	}
}

// TestClusterMalformedFrameAnswersAsNode: a binary bulk the codec cannot
// parse is the client's error on a coordinator exactly as on a node — the
// same 400 and the same bytes, never a retryable gateway failure — and
// nothing of it is striped.
func TestClusterMalformedFrameAnswersAsNode(t *testing.T) {
	ssrv := httptest.NewServer(store.NewServer(memStore(t)))
	defer ssrv.Close()
	_, csrv, stores := newHTTPCluster(t, 3)

	good := event.EncodeBatch(nil, clusterEvents(0, 8))
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"bad magic", append([]byte("XIOE"), good[4:]...)},
		{"truncated", good[:len(good)-3]},
		{"empty body", nil},
	} {
		scode, sbody := postRaw(t, ssrv.URL+"/rej/_bulk", event.ContentTypeBinaryV2, tc.frame)
		ccode, cbody := postRaw(t, csrv.URL+"/rej/_bulk", event.ContentTypeBinaryV2, tc.frame)
		if scode != http.StatusBadRequest {
			t.Fatalf("%s: node answered %d %s, want 400", tc.name, scode, sbody)
		}
		if ccode != scode || !bytes.Equal(cbody, sbody) {
			t.Errorf("%s: node %d %s, coordinator %d %s", tc.name, scode, sbody, ccode, cbody)
		}
	}
	for p, st := range stores {
		if names, _ := st.ListIndices(context.Background()); len(names) != 0 {
			t.Fatalf("partition %d holds %v after refused frames", p, names)
		}
	}
}

// TestClusterMissingIndexBodiesMatchNode: an index no partition holds is
// the node's 404 with the node's own message, body for body.
func TestClusterMissingIndexBodiesMatchNode(t *testing.T) {
	ssrv := httptest.NewServer(store.NewServer(memStore(t)))
	defer ssrv.Close()
	_, csrv, _ := newHTTPCluster(t, 2)

	for _, tc := range []struct{ method, route, body string }{
		{http.MethodPost, "/nope/_search", `{}`},
		{http.MethodPost, "/nope/_count", `{}`},
		{http.MethodGet, "/nope/_stats", ``},
	} {
		var codes [2]int
		var bodies [2][]byte
		for i, base := range []string{ssrv.URL, csrv.URL} {
			codes[i], bodies[i] = doRaw(t, tc.method, base+tc.route, []byte(tc.body))
		}
		if codes[0] != http.StatusNotFound || codes[1] != codes[0] || !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("%s %s: node %d %s, coordinator %d %s", tc.method, tc.route, codes[0], bodies[0], codes[1], bodies[1])
		}
	}
}

// TestClusterPartitionWithoutScatterRouteFails: a partition served by a
// front end without _scatter (here another coordinator's) answers the
// scatter 400, an unknown operation, and the search fails naming the
// partition. Only a 404 is an empty partition, so a search never answers a
// share of the rows the count reports.
func TestClusterPartitionWithoutScatterRouteFails(t *testing.T) {
	_, innerSrv := newHTTPClusterOver(t, []*store.Store{memStore(t)})
	own := httptest.NewServer(store.NewServer(memStore(t)))
	t.Cleanup(own.Close)
	nodes := make([]Node, 2)
	for i, u := range []string{own.URL, innerSrv.URL} {
		fc, err := store.NewFailoverClient(store.NewClient(u))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = fc
	}
	co, err := New(Config{Clock: clock.NewVirtual(0)}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := co.BulkEvents(ctx, testIndex, clusterEvents(0, 10)); err != nil {
		t.Fatal(err)
	}
	if n, err := co.Count(ctx, testIndex, store.MatchAll()); err != nil || n != 10 {
		t.Fatalf("count = %d, %v; want 10", n, err)
	}
	res, err := co.SearchEvents(ctx, testIndex, store.SearchRequest{Query: store.MatchAll(), Size: 20})
	if err == nil || !strings.Contains(err.Error(), "partition 1") || store.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("search = total %d, %v; want partition 1's 400", res.Total, err)
	}
}

// TestClusterNodeOnlyRoutesStayOnNodes: one front end serves both, but the
// partition scatter, the correlation broadcast and the replication routes
// mount only over a store — a coordinator answers them 400, as it does any
// route it does not serve — and HandleOp
// still refuses to shadow a built-in operation, mounted or not.
func TestClusterNodeOnlyRoutesStayOnNodes(t *testing.T) {
	_, csrv, _ := newHTTPCluster(t, 2)
	for _, tc := range []struct{ method, route string }{
		{http.MethodPost, "/" + testIndex + "/_scatter"},
		{http.MethodPost, "/" + testIndex + "/_scatter"},
		{http.MethodPost, "/" + testIndex + "/_paths"},
		{http.MethodPost, "/" + testIndex + "/_paths"},
		{http.MethodGet, "/_repl/status"},
		{http.MethodPost, "/_repl/apply"},
		{http.MethodPost, "/_repl/bootstrap"},
		{http.MethodPost, "/_repl/promote"},
		{http.MethodPost, "/_repl/promote"},
	} {
		if code, body := doRaw(t, tc.method, csrv.URL+tc.route, []byte(`{}`)); code != http.StatusBadRequest {
			t.Errorf("coordinator %s %s = %d %s, want 400", tc.method, tc.route, code, body)
		}
	}

	co, err := New(Config{Clock: clock.NewVirtual(0)}, newMemNode(t, "n0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"_scatter", "_paths", "_search"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HandleOp(%q) on a coordinator server did not panic", op)
				}
			}()
			store.NewServer(co).HandleOp(op, func(*http.Request, string) (any, error) { return nil, nil })
		}()
	}
}

// doRaw sends one request and returns status plus the exact response bytes.
func doRaw(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

// TestClusterPagesSubUlpRowsInExactTimeOrder: 240 rows 3 ns apart at epoch
// scale, shuffled, so that about 85 share each float64, striped across 2 and
// 4 durable partitions whose first half is a cold segment. Paged by time,
// asc and desc, at page sizes 1, 7 and 1000, the coordinator, in process and
// through a Client over its HTTP server, answers every page byte-identically
// to one node holding the same rows, and the walk visits every row once in
// strictly monotone time. A range from 50 ns past the base counts exactly
// the rows at or past it.
func TestClusterPagesSubUlpRowsInExactTimeOrder(t *testing.T) {
	const n, base = 240, int64(1_697_000_000_000_000_000)
	rows := make([]event.Event, n)
	for i, r := range rand.New(rand.NewSource(41)).Perm(n) {
		ts := base + int64(r)*3
		rows[i] = event.Event{Session: "ulp", Syscall: "read", Class: "io", PID: 1, TID: 2, ProcName: "app",
			TimeEnterNS: ts, TimeExitNS: ts + 700, RetVal: int64(r)}
	}
	durableStore := func() *store.Store {
		st, err := store.Open(store.WithDataDir(t.TempDir()), store.WithFsyncPolicy(store.FsyncOff), store.WithSnapshotInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	ctx := context.Background()
	from := base + 50
	count := store.Query{Range: &store.RangeQuery{Field: store.FieldTimeEnter, GTE: &from}}
	for _, P := range []int{2, 4} {
		single, parts := durableStore(), make([]*store.Store, P)
		for p := range parts {
			parts[p] = durableStore()
		}
		co, csrv := newHTTPClusterOver(t, parts)
		for at := 0; at < n; at += 40 {
			for _, b := range []store.Backend{single, co} {
				if err := b.BulkEvents(ctx, testIndex, rows[at:at+40]); err != nil {
					t.Fatal(err)
				}
			}
			if at+40 == n/2 {
				for _, st := range append([]*store.Store{single}, parts...) {
					if err := st.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for name, b := range map[string]store.Backend{"coordinator": co, "http": store.NewClient(csrv.URL)} {
			at := fmt.Sprintf("P=%d %s", P, name)
			if c, err := b.Count(ctx, testIndex, count); err != nil || c != n-17 {
				t.Fatalf("%s: count from base+50 = %d (%v), want %d", at, c, err, n-17)
			}
			for _, desc := range []bool{false, true} {
				for _, size := range []int{1, 7, 1000} {
					req := store.SearchRequest{Query: store.Term(store.FieldSession, "ulp"), Size: size,
						Sort: []store.SortField{{Field: store.FieldTimeEnter, Desc: desc}}}
					walked := 0
					for {
						want, err := single.Search(ctx, testIndex, req)
						if err != nil {
							t.Fatal(err)
						}
						got, err := documents(ctx, b, testIndex, req)
						if err != nil || fingerprint(t, got) != fingerprint(t, want) {
							t.Fatalf("%s desc=%v size %d after %v: page differs from the node's (%v)", at, desc, size, req.SearchAfter, err)
						}
						for _, h := range got.Hits {
							rank := walked
							if desc {
								rank = n - 1 - walked
							}
							if fmt.Sprint(h[store.FieldRetVal]) != fmt.Sprint(rank) {
								t.Fatalf("%s desc=%v size %d: hit %d is rank %v, want %d", at, desc, size, walked, h[store.FieldRetVal], rank)
							}
							walked++
						}
						if got.NextAfter == nil {
							break
						}
						req.SearchAfter = got.NextAfter
					}
					if walked != n {
						t.Fatalf("%s desc=%v size %d: walked %d rows, want %d", at, desc, size, walked, n)
					}
				}
			}
		}
	}
}

// clientNode is a partition served by one bare client, with no failover
// client in front of it.
type clientNode struct{ *store.Client }

func (n clientNode) Target() string { return n.Base() }

// TestClusterHungNodeTripsBreaker: a node that never answers fails each call
// on the client's own request deadline while the caller's context is live,
// which counts against its circuit — so the breaker opens at its threshold
// and the next call fails fast without touching the wire.
func TestClusterHungNodeTripsBreaker(t *testing.T) {
	var arrived atomic.Int64
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hung.Close()
	defer close(release)
	c := store.NewClient(hung.URL)
	c.SetRequestTimeout(50 * time.Millisecond)
	co, err := New(Config{Clock: clock.NewVirtual(0), BreakerThreshold: 2}, clientNode{c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		if _, err := co.Count(ctx, testIndex, store.MatchAll()); err == nil || errors.Is(err, ErrNodeUnavailable) {
			t.Fatalf("call %d against the hung node = %v, want its timeout", i, err)
		}
	}
	if st := co.BreakerState(0); st != resilience.BreakerOpen {
		t.Fatalf("breaker after 2 timeouts = %v, want open", st)
	}
	if _, err := co.Count(ctx, testIndex, store.MatchAll()); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("call 3 = %v, want ErrNodeUnavailable", err)
	}
	if n := arrived.Load(); n != 2 {
		t.Fatalf("the hung node saw %d requests, want 2 (the open breaker must not touch the wire)", n)
	}
}
