package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

func newTestServerClient(t *testing.T) (*Store, *Client) {
	t.Helper()
	st := memStore(t)
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	return st, NewClient(srv.URL)
}

func TestHTTPBulkSearchCount(t *testing.T) {
	_, c := newTestServerClient(t)

	if err := c.BulkEvents(context.Background(), "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	n, err := c.Count(context.Background(), "run1", Term("session", "s1"))
	if err != nil || n != 4 {
		t.Fatalf("count = (%d, %v), want 4", n, err)
	}
	resp, err := c.Search(context.Background(), "run1", SearchRequest{
		Query: Term("syscall", "read"),
		Sort:  []SortField{{Field: "time_enter_ns"}},
	})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if resp.Total != 2 || len(resp.Hits) != 2 {
		t.Fatalf("search resp = %+v", resp)
	}
	if resp.Hits[0]["proc_name"] != "fluent-bit" {
		t.Fatalf("hit = %v", resp.Hits[0])
	}
}

func TestHTTPSearchWithAggs(t *testing.T) {
	_, c := newTestServerClient(t)
	if err := c.BulkEvents(context.Background(), "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	resp, err := c.Search(context.Background(), "run1", SearchRequest{
		Query: MatchAll(),
		Size:  1,
		Aggs: map[string]Agg{
			"by_proc": {Terms: &TermsAgg{Field: "proc_name"}},
			"lat":     {Percentiles: &PercentilesAgg{Field: "duration_ns", Percents: []float64{99}}},
		},
	})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(resp.Aggs["by_proc"].Buckets) != 2 {
		t.Fatalf("agg buckets = %+v", resp.Aggs["by_proc"])
	}
	if resp.Aggs["lat"].Percentiles["99"] != 50 {
		t.Fatalf("p99 = %v", resp.Aggs["lat"].Percentiles)
	}
}

// TestHTTPEmptyPercentiles: percentiles over zero numeric values (no fixture
// row carries count), top-level and as a sub-aggregation, answer with no
// percentiles — in process and over real HTTP alike. NaN has no JSON
// encoding, so the NaN-valued answer used to reach the client as a 200 with
// an empty body ("decode response: EOF").
func TestHTTPEmptyPercentiles(t *testing.T) {
	st, c := newTestServerClient(t)
	ctx := context.Background()
	if err := c.BulkEvents(ctx, "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	pcts := Agg{Percentiles: &PercentilesAgg{Field: FieldCount}}
	req := SearchRequest{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{
		"p":      pcts,
		"by_sys": {Terms: &TermsAgg{Field: FieldSyscall}, Aggs: map[string]Agg{"p": pcts}},
	}}
	local, err := st.Search(ctx, "run1", req)
	if err != nil {
		t.Fatalf("in-process search: %v", err)
	}
	remote, err := c.Search(ctx, "run1", req)
	if err != nil {
		t.Fatalf("HTTP search: %v", err)
	}
	if !reflect.DeepEqual(local.Aggs, remote.Aggs) {
		t.Fatalf("in-process and HTTP answers differ:\n local  %+v\n remote %+v", local.Aggs, remote.Aggs)
	}
	if p := remote.Aggs["p"].Percentiles; p != nil {
		t.Fatalf("top-level percentiles over no values = %v, want none", p)
	}
	if len(remote.Aggs["by_sys"].Buckets) != 4 {
		t.Fatalf("by_sys buckets = %+v, want 4", remote.Aggs["by_sys"].Buckets)
	}
	for _, b := range remote.Aggs["by_sys"].Buckets {
		if sub, ok := b.Sub["p"]; !ok || sub.Percentiles != nil {
			t.Fatalf("bucket %q: sub = %+v, want an empty \"p\" result", b.Key, b.Sub)
		}
	}
}

// TestWriteJSONEncodeFailureIsTyped500: a response value JSON cannot carry
// must not go out as the promised status over an empty body.
func TestWriteJSONEncodeFailureIsTyped500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"p50": math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(body["error"], "encode response") {
		t.Fatalf("status %d body %q (decode err %v), want a 500 naming the encode failure", rec.Code, rec.Body.String(), err)
	}
}

func TestHTTPCorrelate(t *testing.T) {
	_, c := newTestServerClient(t)
	if err := c.BulkEvents(context.Background(), "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	res, err := c.Correlate(context.Background(), "run1", "s1")
	if err != nil {
		t.Fatalf("correlate: %v", err)
	}
	if res.TagsResolved != 1 || res.EventsUpdated != 4 {
		t.Fatalf("res = %+v", res)
	}
}

// TestHTTPPathsChecksTheRecord: POST _paths names a node's rows with a
// harvested record sent in its JSON form, and answers 400 to every record
// event.DecodePaths refuses, naming nothing.
func TestHTTPPathsChecksTheRecord(t *testing.T) {
	st, c := newTestServerClient(t)
	ctx := context.Background()
	if err := c.BulkEvents(ctx, "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	rec, err := HarvestPaths(ctx, st, "run1", "s1")
	if err != nil || len(rec.Pairs) != 1 {
		t.Fatalf("harvest = %+v (%v)", rec, err)
	}
	named := func() int {
		n, err := st.Count(ctx, "run1", Exists(FieldFilePath))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := named()
	unsorted := event.PathsRecord{Pairs: []event.PathPair{
		{Tag: event.FileTag{Dev: 1, Ino: 2, BirthNS: 1}, Path: "/b"},
		{Tag: event.FileTag{Dev: 1, Ino: 1, BirthNS: 1}, Path: "/a"},
	}}
	overrun := binary.LittleEndian.AppendUint32(event.PathsRecord{}.Encode()[:10], 1000)
	for name, payload := range map[string][]byte{
		"unsorted pairs":          unsorted.Encode(),
		"pair count past the end": overrun,
		"trailing bytes":          append(rec.Encode(), 0),
	} {
		body, _ := json.Marshal(payload)
		resp, err := http.Post(c.Base()+"/run1/_paths", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n := named(); n != before {
		t.Fatalf("refused records named %d rows", n-before)
	}
	res, err := c.NamePaths(ctx, "run1", rec)
	if err != nil || res.TagsResolved != 1 || res.EventsUpdated != 4 || named() != before+4 {
		t.Fatalf("_paths = %+v (%v)", res, err)
	}
}

func TestHTTPIndicesAndErrors(t *testing.T) {
	_, c := newTestServerClient(t)
	if err := c.BulkEvents(context.Background(), "a", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	if err := c.BulkEvents(context.Background(), "b", docFixture()[:1]); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	names, err := c.ListIndices(context.Background())
	if err != nil || len(names) != 2 {
		t.Fatalf("indices = (%v, %v)", names, err)
	}
	if _, err := c.Search(context.Background(), "missing", SearchRequest{}); err == nil {
		t.Fatal("search on missing index succeeded")
	}
	if _, err := c.Correlate(context.Background(), "missing", ""); err == nil {
		t.Fatal("correlate on missing index succeeded")
	}
}

func TestHTTPStats(t *testing.T) {
	st, c := newTestServerClient(t)
	if err := c.BulkEvents(context.Background(), "run1", docFixture()); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	ix, _ := st.GetIndex("run1")

	resp, err := http.Get(c.base + "/run1/_stats")
	if err != nil {
		t.Fatalf("get stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var stats IndexStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if stats.Index != "run1" || stats.Docs != ix.Len() || stats.Shards != ix.NumShards() {
		t.Fatalf("stats = %+v, want docs=%d shards=%d", stats, ix.Len(), ix.NumShards())
	}

	// POST is rejected; missing index is a 404.
	post, _ := http.Post(c.base+"/run1/_stats", "", nil)
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats status = %d", post.StatusCode)
	}
	miss, _ := http.Get(c.base + "/nope/_stats")
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-index stats status = %d", miss.StatusCode)
	}
}

func TestHTTPBackendInterchangeable(t *testing.T) {
	st, c := newTestServerClient(t)
	for _, b := range []Backend{st, c} {
		if err := b.BulkEvents(context.Background(), "x", docEvents(Document{"syscall": "read"})); err != nil {
			t.Fatalf("bulk via %T: %v", b, err)
		}
	}
	n, _ := st.Count(context.Background(), "x", MatchAll())
	if n != 2 {
		t.Fatalf("count = %d, want 2 (one via each backend)", n)
	}
}

func TestHTTPServerErrorPaths(t *testing.T) {
	st := memStore(t)
	st.BulkEvents(context.Background(), "x", docFixture())
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post %s: %v", path, err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if code := post("/x/_bulk", "{\"index\":{}}\nnot-json\n"); code != http.StatusBadRequest {
		t.Fatalf("bad bulk doc status = %d", code)
	}
	if code := post("/x/_search", "{bad"); code != http.StatusBadRequest {
		t.Fatalf("bad search status = %d", code)
	}
	if code := post("/x/_unknownop", ""); code != http.StatusBadRequest {
		t.Fatalf("unknown op status = %d", code)
	}
	if code := post("/a/b/c", ""); code != http.StatusBadRequest {
		t.Fatalf("deep path status = %d", code)
	}

	// GET where POST is required.
	resp, err := http.Get(srv.URL + "/x/_bulk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET bulk status = %d", resp.StatusCode)
	}

	// DELETE an index through HTTP.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/x", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if _, ok := st.GetIndex("x"); ok {
		t.Fatal("index survived HTTP delete")
	}
}

// TestDeleteIndexDropsDocsSeries: after DELETE /{index}, /metrics reports no
// doc count for the index, where its gauge once kept the dropped index (and
// every hot row of it) reachable and reported its old count.
func TestDeleteIndexDropsDocsSeries(t *testing.T) {
	st := memStore(t)
	defer st.Close()
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if err := st.BulkEvents(context.Background(), "gone", []event.Event{{Session: "s", Syscall: "read"}}); err != nil {
		t.Fatal(err)
	}
	series := telemetry.MetricDocs + `{index="gone"}`
	if !strings.Contains(scrape(), series+" 1\n") {
		t.Fatalf("no %s 1 before the delete", series)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/gone", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if body := scrape(); strings.Contains(body, series) {
		t.Fatalf("/metrics still reports the deleted index:\n%s", body)
	}
}

// TestHTTPStatusTellsMissingIndexFromFailure: 404 means exactly "no such
// index" — a cluster coordinator reads it as an empty partition — so a node
// that cannot read a cold segment must answer 500 on every route a scatter, a
// dashboard or a correlation pass uses, and a missing index 404 on the same
// routes.
func TestHTTPStatusTellsMissingIndexFromFailure(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	defer st.Close()
	bulkRound(t, st, 0)
	if err := st.Snapshot(); err != nil { // flush + evict: the rows are cold now
		t.Fatal(err)
	}
	for _, f := range segmentFiles(t, dir) {
		if err := os.Remove(filepath.Join(indexDir(dir), f)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	status := func(method, path, body string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	reads := `{"term":{"field":"syscall","value":"read"}}`
	routes := []struct{ method, op, body string }{
		{http.MethodPost, "_count", reads},
		{http.MethodPost, "_search", `{"query":` + reads + `}`},
		{http.MethodPost, "_scatter", `{"req":{"query":` + reads + `},"partition":0,"partitions":1}`},
		{http.MethodPost, "_correlate", ""},
	}
	for _, r := range routes {
		if code, body := status(r.method, "/"+crashIndex+"/"+r.op, r.body); code != http.StatusInternalServerError {
			t.Errorf("%s over an unreadable segment = %d %s; want 500", r.op, code, body)
		}
	}
	routes = append(routes, struct{ method, op, body string }{http.MethodGet, "_stats", ""})
	for _, r := range routes {
		if code, body := status(r.method, "/missing/"+r.op, r.body); code != http.StatusNotFound {
			t.Errorf("%s on a missing index = %d %s; want 404", r.op, code, body)
		}
	}
	// The client maps the two back apart.
	c := NewClient(srv.URL)
	if _, err := c.Count(context.Background(), "missing", MatchAll()); !errors.Is(err, ErrIndexNotFound) {
		t.Errorf("client count on a missing index: %v, want ErrIndexNotFound", err)
	}
	if _, err := c.Count(context.Background(), crashIndex, Term(FieldSyscall, "read")); err == nil || errors.Is(err, ErrIndexNotFound) {
		t.Errorf("client count over an unreadable segment: %v, want a failure that is not ErrIndexNotFound", err)
	}
}
