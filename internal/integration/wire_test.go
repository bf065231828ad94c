package integration

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/cluster"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// wireRequest is one request a wireRecorder saw.
type wireRequest struct{ method, path, contentType string }

// wireRecorder sits in front of a node's handler and logs every request. While
// a refusal is set, it answers each _bulk itself with that status and body
// instead of forwarding it.
type wireRecorder struct {
	next http.Handler

	mu         sync.Mutex
	seen       []wireRequest
	refuseCode int
	refuseBody string
}

func (w *wireRecorder) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	w.seen = append(w.seen, wireRequest{r.Method, r.URL.Path, r.Header.Get("Content-Type")})
	code, body := w.refuseCode, w.refuseBody
	w.mu.Unlock()
	if code != 0 && strings.HasSuffix(r.URL.Path, "/_bulk") {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(code)
		rw.Write([]byte(body))
		return
	}
	w.next.ServeHTTP(rw, r)
}

func (w *wireRecorder) refuse(code int, body string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.refuseCode, w.refuseBody = code, body
}

func (w *wireRecorder) requests() []wireRequest {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]wireRequest(nil), w.seen...)
}

// wireEvents is a small two-session trace: an open, a write and a read of
// one file per session.
func wireEvents() []event.Event {
	var evs []event.Event
	for i, session := range []string{"s1", "s2"} {
		tag := event.FileTag{Dev: 1, Ino: uint64(10 + i), BirthNS: 5}
		base := int64(1_000_000 * (i + 1))
		evs = append(evs,
			event.Event{Session: session, Syscall: "openat", ProcName: "app", ThreadName: "app", RetVal: 3,
				TimeEnterNS: base, TimeExitNS: base + 10, KernelPath: "/tmp/" + session, FileTag: tag},
			event.Event{Session: session, Syscall: "write", ProcName: "app", ThreadName: "app", RetVal: 26,
				TimeEnterNS: base + 100, TimeExitNS: base + 120, FileTag: tag, HasOffset: true},
			event.Event{Session: session, Syscall: "read", ProcName: "app", ThreadName: "app", RetVal: 26,
				TimeEnterNS: base + 200, TimeExitNS: base + 230, FileTag: tag, HasOffset: true})
	}
	return evs
}

// driveBackend runs the ingest, read and correlation calls of one backend.
func driveBackend(t *testing.T, name string, b store.Backend, index string) {
	t.Helper()
	ctx := context.Background()
	if err := b.BulkEvents(ctx, index, wireEvents()); err != nil {
		t.Fatalf("%s: bulk: %v", name, err)
	}
	if _, err := b.SearchEvents(ctx, index, store.SearchRequest{Query: store.MatchAll(), Size: -1}); err != nil {
		t.Fatalf("%s: search: %v", name, err)
	}
	if _, err := b.Count(ctx, index, store.MatchAll()); err != nil {
		t.Fatalf("%s: count: %v", name, err)
	}
	if _, err := b.Correlate(ctx, index, "s1"); err != nil {
		t.Fatalf("%s: correlate: %v", name, err)
	}
}

// TestClientSpeaksOneWire: every client in the repo — Client,
// diagnose.Client, FailoverClient, and a coordinator's members — speaks the
// unprefixed routes and ships bulks as the binary frame, and a refusal of
// the frame (400, 415, or an empty 200 ack) comes back as the server gave
// it, after exactly one request: no second request in another encoding.
func TestClientSpeaksOneWire(t *testing.T) {
	ctx := context.Background()
	node := store.NewServer(memStore(t))
	diagnose.Install(node)
	rec := &wireRecorder{next: node}
	srv := httptest.NewServer(rec)
	defer srv.Close()

	c := store.NewClient(srv.URL)
	fo, err := store.NewFailoverClient(store.NewClient(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	driveBackend(t, "client", c, "wire")
	driveBackend(t, "failover", fo, "wire")
	if err := c.Health(); err != nil {
		t.Fatalf("health: %v", err)
	}
	if _, err := c.Stats(ctx, "wire"); err != nil {
		t.Fatalf("stats: %v", err)
	}
	dc := diagnose.NewClient(c)
	if _, err := dc.Diagnose(ctx, "wire", "s1"); err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	if _, err := dc.DFG(ctx, "wire", "s1"); err != nil {
		t.Fatalf("dfg: %v", err)
	}
	if _, err := dc.Diff(ctx, "wire", "s1", "s2"); err != nil {
		t.Fatalf("diff: %v", err)
	}

	// A coordinator whose one member is the node behind the recorder.
	member, err := store.NewFailoverClient(store.NewClient(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.New(cluster.Config{Clock: clock.NewVirtual(0)}, member)
	if err != nil {
		t.Fatal(err)
	}
	coSrv := store.NewServer(co)
	diagnose.Install(coSrv)
	csrv := httptest.NewServer(coSrv)
	defer csrv.Close()
	cc := store.NewClient(csrv.URL)
	driveBackend(t, "coordinator", cc, "wire-co")
	if _, err := diagnose.NewClient(cc).Diagnose(ctx, "wire-co", "s1"); err != nil {
		t.Fatalf("coordinator diagnose: %v", err)
	}

	bulks := 0
	for _, r := range rec.requests() {
		first, _, _ := strings.Cut(strings.TrimPrefix(r.path, "/"), "/")
		if first != "wire" && first != "wire-co" && !strings.HasPrefix(first, "_") {
			t.Errorf("%s %s: not an unprefixed route", r.method, r.path)
		}
		if strings.HasSuffix(r.path, "/_bulk") {
			bulks++
			if r.contentType != event.ContentTypeBinaryV2 {
				t.Errorf("%s %s: content type %q, want the binary frame", r.method, r.path, r.contentType)
			}
		}
	}
	if bulks != 3 {
		t.Fatalf("the node saw %d bulks, want one from each of client, failover and coordinator", bulks)
	}

	for _, tc := range []struct {
		code int
		body string
	}{
		{http.StatusBadRequest, `{"error":"bad frame"}`},
		{http.StatusUnsupportedMediaType, `{"error":"unsupported media type"}`},
		{http.StatusOK, `{"items":0}`},
	} {
		rec.refuse(tc.code, tc.body)
		failover, err := store.NewFailoverClient(store.NewClient(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		// Fresh clients, so no earlier answer shapes this one.
		for name, b := range map[string]store.EventBackend{"client": store.NewClient(srv.URL), "failover": failover} {
			before := len(rec.requests())
			err := b.BulkEvents(ctx, "wire", wireEvents())
			if seen := rec.requests()[before:]; len(seen) != 1 || seen[0].contentType != event.ContentTypeBinaryV2 {
				t.Errorf("%s, answer %d %s: sent %v, want one binary frame", name, tc.code, tc.body, seen)
			}
			var he *store.HTTPError
			if tc.code == http.StatusOK && err != nil {
				t.Errorf("%s, answer %d %s: %v, want the ack as given", name, tc.code, tc.body, err)
			} else if tc.code != http.StatusOK && (!errors.As(err, &he) || he.Status != tc.code) {
				t.Errorf("%s, answer %d %s: %v, want an *HTTPError with status %d", name, tc.code, tc.body, err, tc.code)
			}
		}
	}
}

// TestBulkRefusesRetiredFrame: a bulk under the retired version-1 media type
// is answered 415 naming that type, on a node and on a coordinator — never
// read as NDJSON (which would be a 400 "bad ndjson") — and ingests nothing.
func TestBulkRefusesRetiredFrame(t *testing.T) {
	ctx := context.Background()
	nsrv := httptest.NewServer(store.NewServer(memStore(t)))
	defer nsrv.Close()
	member, err := store.NewFailoverClient(store.NewClient(nsrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.New(cluster.Config{Clock: clock.NewVirtual(0)}, member)
	if err != nil {
		t.Fatal(err)
	}
	csrv := httptest.NewServer(store.NewServer(co))
	defer csrv.Close()
	// The header of a version-1 frame holding one event; the status must not
	// depend on the rest.
	v1 := []byte("DIOE\x01\x01\x00\x00\x00")
	for name, base := range map[string]string{"node": nsrv.URL, "coordinator": csrv.URL} {
		resp, err := http.Post(base+"/old/_bulk", event.ContentTypeRetiredV1, bytes.NewReader(v1))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType || !strings.Contains(string(body), event.ContentTypeRetiredV1) {
			t.Fatalf("%s: %d %s, want 415 naming %s", name, resp.StatusCode, body, event.ContentTypeRetiredV1)
		}
		if _, err := store.NewClient(base).Count(ctx, "old", store.MatchAll()); !errors.Is(err, store.ErrIndexNotFound) {
			t.Fatalf("%s: count after a refused bulk: %v, want ErrIndexNotFound", name, err)
		}
	}
}

// TestIndexNamedV1IsOrdinary: "v1" is an index name like any other, on a
// node and on a coordinator — bulk (binary and NDJSON), _search, _count,
// _diagnose and DELETE all reach it — and /v1/ is no route prefix, so
// GET /v1/_health is a 400, an unknown operation.
func TestIndexNamedV1IsOrdinary(t *testing.T) {
	ctx := context.Background()
	node := store.NewServer(memStore(t))
	diagnose.Install(node)
	nsrv := httptest.NewServer(node)
	defer nsrv.Close()

	msrv := httptest.NewServer(store.NewServer(memStore(t)))
	defer msrv.Close()
	member, err := store.NewFailoverClient(store.NewClient(msrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.New(cluster.Config{Clock: clock.NewVirtual(0)}, member)
	if err != nil {
		t.Fatal(err)
	}
	coSrv := store.NewServer(co)
	diagnose.Install(coSrv)
	csrv := httptest.NewServer(coSrv)
	defer csrv.Close()

	ndjson := `{"index":{}}` + "\n" + `{"session":"s1","syscall":"write","duration_ns":500,"time_enter_ns":1000}` + "\n"
	const total, s1 = 7, 4 // wireEvents and the NDJSON row; s1 has half the trace and the row
	for name, base := range map[string]string{"node": nsrv.URL, "coordinator": csrv.URL} {
		c := store.NewClient(base)
		if err := c.BulkEvents(ctx, "v1", wireEvents()); err != nil {
			t.Fatalf("%s: binary bulk: %v", name, err)
		}
		resp, err := http.Post(base+"/v1/_bulk", "application/x-ndjson", strings.NewReader(ndjson))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: NDJSON bulk: status %d", name, resp.StatusCode)
		}
		res, err := c.SearchEvents(ctx, "v1", store.SearchRequest{Query: store.MatchAll(), Size: -1})
		if err != nil || res.Total != total {
			t.Fatalf("%s: search = (%d, %v), want %d", name, res.Total, err, total)
		}
		if n, err := c.Count(ctx, "v1", store.Term(store.FieldSession, "s1")); err != nil || n != s1 {
			t.Fatalf("%s: count = (%d, %v), want %d", name, n, err, s1)
		}
		rep, err := diagnose.NewClient(c).Diagnose(ctx, "v1", "s1")
		if err != nil || rep.Events != s1 {
			t.Fatalf("%s: diagnose = (%d events, %v), want %d", name, rep.Events, err, s1)
		}
		if err := c.DeleteIndex(ctx, "v1"); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if _, err := c.Count(ctx, "v1", store.MatchAll()); !errors.Is(err, store.ErrIndexNotFound) {
			t.Fatalf("%s: count after delete: %v, want ErrIndexNotFound", name, err)
		}
		hresp, err := http.Get(base + "/v1/_health")
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: GET /v1/_health = %d, want 400", name, hresp.StatusCode)
		}
	}
}
