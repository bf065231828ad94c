package store

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
)

// pump drains primary's WAL into follower through the in-process replication
// surface, exactly as the shipper would: range from the follower's applied
// position, apply, repeat until caught up. Fails the test on a bootstrap
// demand unless allowBootstrap.
func pump(t *testing.T, primary, follower *Store, index string, allowBootstrap bool) {
	t.Helper()
	ctx := context.Background()
	var cur ReplCursor
	for {
		applied := follower.ReplStatus().Indices[index]
		frames, head, bootstrap, err := primary.ReplRange(index, applied, &cur, 0, 0)
		if err != nil {
			t.Fatalf("repl range from %d: %v", applied, err)
		}
		if bootstrap {
			if !allowBootstrap {
				t.Fatalf("unexpected bootstrap demand at applied=%d head=%d", applied, head)
			}
			snap, err := primary.ReplBootstrapFrames(index, 0)
			if err != nil {
				t.Fatalf("bootstrap frames: %v", err)
			}
			if err := follower.ReplBootstrap(ctx, index, snap); err != nil {
				t.Fatalf("bootstrap apply: %v", err)
			}
			continue
		}
		if len(frames) == 0 {
			if applied != head {
				t.Fatalf("caught up at %d but head is %d", applied, head)
			}
			return
		}
		if _, err := follower.ReplApply(ctx, index, applied, frames); err != nil {
			t.Fatalf("repl apply at %d: %v", applied, err)
		}
	}
}

// TestReplStreamToFollower is the core replication invariant: a follower fed
// the primary's WAL frames is fingerprint-identical to the primary and to a
// never-crashed control, and its own WAL file is byte-identical to the
// primary's (same records, same order, same encoding).
func TestReplStreamToFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := openDurable(t, pdir)
	defer primary.Close()
	primary.ArmReplication()
	follower := openDurable(t, fdir)
	defer follower.Close()
	follower.SetFollower()

	for r := 0; r < 3; r++ {
		ingestRound(t, primary, r)
	}
	pump(t, primary, follower, crashIndex, false)

	want := fingerprint(t, primary)
	if got := fingerprint(t, follower); got != want {
		t.Fatalf("follower state diverged from primary")
	}
	if got := fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("replicated state diverged from in-memory control")
	}
	pw, err := os.ReadFile(walFile(pdir, 0))
	if err != nil {
		t.Fatalf("read primary wal: %v", err)
	}
	fw, err := os.ReadFile(walFile(fdir, 0))
	if err != nil {
		t.Fatalf("read follower wal: %v", err)
	}
	if string(pw) != string(fw) {
		t.Fatalf("follower WAL (%d bytes) != primary WAL (%d bytes)", len(fw), len(pw))
	}

	// The follower's applied position must survive its own restart: recovery
	// re-derives the sequence from the manifest offset plus replayed records.
	applied := follower.ReplStatus().Indices[crashIndex]
	if err := follower.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}
	re := openDurable(t, fdir)
	defer re.Close()
	re.SetFollower()
	if got := re.ReplStatus().Indices[crashIndex]; got != applied {
		t.Fatalf("reopened follower at seq %d, want %d", got, applied)
	}
	if got := fingerprint(t, re); got != want {
		t.Fatalf("reopened follower diverged")
	}
}

// TestReplRangeAcrossSnapshot checks that the tail buffer carries a lagging
// follower across a primary snapshot (the live WAL is truncated, but the
// buffered frames remain) — no bootstrap needed. With the buffer disabled the
// same lag must demand a bootstrap, and the bootstrap must converge.
func TestReplRangeAcrossSnapshot(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		primary := openDurable(t, t.TempDir())
		defer primary.Close()
		primary.ArmReplication()
		follower := memStore(t)
		follower.SetFollower()

		ingestRound(t, primary, 0)
		pump(t, primary, follower, crashIndex, false) // catch up pre-snapshot
		ingestRound(t, primary, 1)                    // journaled + buffered
		if err := primary.Snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		ingestRound(t, primary, 2)
		pump(t, primary, follower, crashIndex, false) // must cross the snapshot via the buffer
		if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 3)); got != want {
			t.Fatalf("follower diverged after snapshot-crossing catch-up")
		}
	})
	t.Run("unbuffered-bootstrap", func(t *testing.T) {
		primary := openDurable(t, t.TempDir(), WithReplicationBuffer(0))
		defer primary.Close()
		primary.ArmReplication()
		follower := openDurable(t, t.TempDir())
		defer follower.Close()
		follower.SetFollower()

		ingestRound(t, primary, 0)
		if err := primary.Snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		ingestRound(t, primary, 1)
		// The follower is at 0, the records up to the snapshot are folded into
		// the segment, and there is no buffer: only a bootstrap serves this.
		_, _, bootstrap, err := primary.ReplRange(crashIndex, 0, nil, 0, 0)
		if err != nil {
			t.Fatalf("repl range: %v", err)
		}
		if !bootstrap {
			t.Fatalf("expected bootstrap demand with buffer disabled after snapshot")
		}
		pump(t, primary, follower, crashIndex, true)
		if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 2)); got != want {
			t.Fatalf("bootstrapped follower diverged")
		}
	})
}

// TestReplApplySeqReject checks the follower's duplicate/reorder guard: a
// push from any position other than the applied sequence bounces with the
// follower's position inside *ReplSeqError, and applies nothing.
func TestReplApplySeqReject(t *testing.T) {
	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	primary.ArmReplication()
	follower := memStore(t)
	follower.SetFollower()
	ctx := context.Background()

	ingestRound(t, primary, 0)
	frames, head, _, err := primary.ReplRange(crashIndex, 0, nil, 0, 0)
	if err != nil {
		t.Fatalf("repl range: %v", err)
	}
	if _, err := follower.ReplApply(ctx, crashIndex, 0, frames); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	want := fingerprint(t, follower)

	// Duplicate push (network retry of an acked batch): rejected, state intact.
	_, err = follower.ReplApply(ctx, crashIndex, 0, frames)
	var se *ReplSeqError
	if !errors.As(err, &se) || se.Want != head || se.Got != 0 {
		t.Fatalf("duplicate push: err=%v, want ReplSeqError{Want:%d, Got:0}", err, head)
	}
	// Future push (reordered ahead of a lost batch): rejected too.
	future := []ReplFrame{{Seq: head + 5, Type: durable.RecordEvents}}
	if _, err := follower.ReplApply(ctx, crashIndex, head+5, future); !errors.As(err, &se) {
		t.Fatalf("future push: err=%v, want ReplSeqError", err)
	}
	// Frame whose Seq disagrees with its position in the batch: rejected.
	bad := append([]ReplFrame{}, frames...)
	bad[0].Seq = head + 1 // claims to be the second next record, not the next
	if _, err := follower.ReplApply(ctx, crashIndex, head, bad[:1]); !errors.As(err, &se) {
		t.Fatalf("mis-sequenced frame: err=%v, want ReplSeqError", err)
	}
	if got := fingerprint(t, follower); got != want {
		t.Fatalf("rejected pushes mutated follower state")
	}
	// A primary must never accept pushes at all.
	if _, err := primary.ReplApply(ctx, crashIndex, 0, frames); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("primary accepted replication push: %v", err)
	}
}

// TestFollowerRejectsWrites checks the read-only guard on every mutating
// entry point, and that promotion lifts it.
func TestFollowerRejectsWrites(t *testing.T) {
	st := memStore(t)
	st.SetFollower()
	ctx := context.Background()
	if err := st.BulkEvents(ctx, crashIndex, crashEvents(0)); !errors.Is(err, ErrReadOnlyFollower) {
		t.Fatalf("BulkEvents on follower: %v", err)
	}
	if _, err := st.Correlate(ctx, crashIndex, "s"); !errors.Is(err, ErrReadOnlyFollower) {
		t.Fatalf("Correlate on follower: %v", err)
	}
	st.Promote()
	if st.Role() != RolePrimary {
		t.Fatalf("role after promote = %v", st.Role())
	}
	if err := st.BulkEvents(ctx, crashIndex, crashDocs(0)); err != nil {
		t.Fatalf("BulkEvents after promote: %v", err)
	}
}

// TestReplHTTPEndpoints drives the whole wire surface through real servers
// and the Client: status, apply (including the 409 mismatch mapping), write
// rejection, bootstrap, and promote.
func TestReplHTTPEndpoints(t *testing.T) {
	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	primary.ArmReplication()
	follower := memStore(t)
	follower.SetFollower()
	fsrv := httptest.NewServer(NewServer(follower))
	defer fsrv.Close()
	fc := NewClient(fsrv.URL)
	ctx := context.Background()

	st, err := fc.ReplStatus(ctx)
	if err != nil {
		t.Fatalf("repl status: %v", err)
	}
	if st.Role != "follower" {
		t.Fatalf("status role = %q", st.Role)
	}

	ingestRound(t, primary, 0)
	frames, head, _, err := primary.ReplRange(crashIndex, 0, nil, 0, 0)
	if err != nil {
		t.Fatalf("repl range: %v", err)
	}
	applied, err := fc.ReplApply(ctx, crashIndex, 0, frames)
	if err != nil {
		t.Fatalf("apply over HTTP: %v", err)
	}
	if applied != head {
		t.Fatalf("applied = %d, want %d", applied, head)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatalf("HTTP-replicated follower diverged from primary")
	}

	// Duplicate push → 409, non-temporary (the shipper must not blind-retry).
	_, err = fc.ReplApply(ctx, crashIndex, 0, frames)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != 409 {
		t.Fatalf("duplicate over HTTP: %v, want 409", err)
	}
	if he.Temporary() {
		t.Fatalf("409 mismatch reported as temporary; the ladder would retry it")
	}
	// Direct writes to the follower → 409 as well.
	if err := fc.BulkEvents(ctx, crashIndex, crashDocs(9)); !errors.As(err, &he) || he.Status != 409 {
		t.Fatalf("bulk to follower over HTTP: %v, want 409", err)
	}
	// So is dropping the replica: the follower keeps every row.
	if err := fc.DeleteIndex(ctx, crashIndex); !errors.As(err, &he) || he.Status != 409 {
		t.Fatalf("delete index on follower over HTTP: %v, want 409", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatalf("rejected delete mutated follower state")
	}
	// Pushing to a primary → 403.
	psrv := httptest.NewServer(NewServer(primary))
	defer psrv.Close()
	pc := NewClient(psrv.URL)
	if _, err := pc.ReplApply(ctx, crashIndex, 0, frames); !errors.As(err, &he) || he.Status != 403 {
		t.Fatalf("apply to primary over HTTP: %v, want 403", err)
	}

	// Bootstrap over HTTP, then promote over HTTP.
	snap, err := primary.ReplBootstrapFrames(crashIndex, 0)
	if err != nil {
		t.Fatalf("bootstrap frames: %v", err)
	}
	if err := fc.ReplBootstrap(ctx, crashIndex, snap); err != nil {
		t.Fatalf("bootstrap over HTTP: %v", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatalf("HTTP-bootstrapped follower diverged")
	}
	if err := fc.Promote(ctx); err != nil {
		t.Fatalf("promote over HTTP: %v", err)
	}
	if follower.Role() != RolePrimary {
		t.Fatalf("role after HTTP promote = %v", follower.Role())
	}
	if err := fc.BulkEvents(ctx, crashIndex, crashDocs(3)); err != nil {
		t.Fatalf("bulk after promote: %v", err)
	}
}

// TestHealthEndpointShape checks the enriched /_health body: the legacy
// fields keep their exact names and types, and the new role/durability/
// replication detail rides along.
func TestHealthEndpointShape(t *testing.T) {
	st := openDurable(t, t.TempDir())
	defer st.Close()
	ingestRound(t, st, 0)
	st.RegisterReplicaHealth(func() ReplHealth {
		return ReplHealth{Target: "http://follower:9200", Lag: 7, LastSyncMS: 12}
	})
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()

	h, err := NewClient(srv.URL).HealthStatus(context.Background())
	if err != nil {
		t.Fatalf("health status: %v", err)
	}
	if h.Status != "ok" || h.Indices != 1 || h.Role != "primary" || !h.Durable {
		t.Fatalf("health basics = %+v", h)
	}
	ih, ok := h.Index[crashIndex]
	if !ok {
		t.Fatalf("no per-index health for %q: %+v", crashIndex, h.Index)
	}
	if ih.Docs == 0 || ih.WALBytes == 0 || ih.HeadSeq == 0 || ih.DirtyRecords == 0 {
		t.Fatalf("index health not populated: %+v", ih)
	}
	if ih.FsyncAgeMS < 0 || ih.SnapshotAgeMS != -1 {
		t.Fatalf("freshness ages = fsync %d, snapshot %d (want ≥0 and -1)", ih.FsyncAgeMS, ih.SnapshotAgeMS)
	}
	if len(h.Replication) != 1 || h.Replication[0].Target != "http://follower:9200" || h.Replication[0].Lag != 7 {
		t.Fatalf("replication health = %+v", h.Replication)
	}

	// Legacy probes decode the same body into the old two-field shape.
	var legacy struct {
		Status  string `json:"status"`
		Indices int    `json:"indices"`
	}
	blob, _ := json.Marshal(h)
	if err := json.Unmarshal(blob, &legacy); err != nil || legacy.Status != "ok" || legacy.Indices != 1 {
		t.Fatalf("legacy health shape broken: %+v err=%v", legacy, err)
	}
}

// TestFailoverClientRedirects kills the primary mid-session and checks that
// the failover client finds the promoted follower, resumes a search_after
// cursor across the switch, and routes subsequent writes to the new primary.
func TestFailoverClientRedirects(t *testing.T) {
	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	primary.ArmReplication()
	follower := openDurable(t, t.TempDir())
	defer follower.Close()
	follower.SetFollower()

	psrv := httptest.NewServer(NewServer(primary))
	fsrv := httptest.NewServer(NewServer(follower))
	defer fsrv.Close()

	for r := 0; r < 3; r++ {
		ingestRound(t, primary, r)
	}
	pump(t, primary, follower, crashIndex, false)

	fo, err := NewFailoverClient(
		NewClient(psrv.URL),
		NewClient(fsrv.URL))
	if err != nil {
		t.Fatalf("failover client: %v", err)
	}
	ctx := context.Background()

	// Page 1 from the live primary.
	total, err := fo.Count(ctx, crashIndex, MatchAll())
	if err != nil {
		t.Fatalf("count via primary: %v", err)
	}
	page1, err := fo.SearchEvents(ctx, crashIndex, SearchRequest{
		Query: MatchAll(), Size: total / 2,
		Sort: []SortField{{Field: FieldTimeEnter}},
	})
	if err != nil {
		t.Fatalf("page 1: %v", err)
	}
	if len(page1.NextAfter) == 0 {
		t.Fatalf("page 1 returned no cursor")
	}

	// Kill the primary and promote the follower (the operator's move).
	psrv.Close()
	follower.Promote()

	// Page 2: the first attempt hits the dead primary; the client must probe,
	// find the promoted node, and resume the cursor there.
	page2, err := fo.SearchEvents(ctx, crashIndex, SearchRequest{
		Query: MatchAll(), Size: -1,
		Sort:        []SortField{{Field: FieldTimeEnter}},
		SearchAfter: page1.NextAfter,
	})
	if err != nil {
		t.Fatalf("page 2 after failover: %v", err)
	}
	if got := len(page1.Hits) + len(page2.Hits); got != total {
		t.Fatalf("paged %d events across failover, want %d", got, total)
	}
	if fo.Switches() != 1 {
		t.Fatalf("switches = %d, want 1", fo.Switches())
	}

	// Writes now land on the promoted node without further probing.
	if err := fo.BulkEvents(ctx, crashIndex, crashDocs(7)); err != nil {
		t.Fatalf("bulk after failover: %v", err)
	}
	n, err := follower.Count(ctx, crashIndex, MatchAll())
	if err != nil || n != total+len(crashDocs(7)) {
		t.Fatalf("post-failover count = %d, %v; want %d", n, err, total+len(crashDocs(7)))
	}
	if fo.Switches() != 1 {
		t.Fatalf("extra probe after failover: switches = %d", fo.Switches())
	}
}

// TestFailoverHungPrimary: a primary that never answers fails the request on
// the client's own deadline while the caller's context is live — a 500 in the
// status table — so the client fails over to the live primary beside it.
func TestFailoverHungPrimary(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hung.Close()
	defer close(release)
	live := memStore(t)
	if err := live.BulkEvents(context.Background(), "ix", docFixture()); err != nil {
		t.Fatal(err)
	}
	lsrv := httptest.NewServer(NewServer(live))
	defer lsrv.Close()

	hc := NewClient(hung.URL)
	hc.SetRequestTimeout(50 * time.Millisecond)
	fo, err := NewFailoverClient(hc, NewClient(lsrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	n, err := fo.Count(context.Background(), "ix", MatchAll())
	if err != nil || n != len(docFixture()) {
		t.Fatalf("count through a hung primary = %d, %v; want %d from the live one", n, err, len(docFixture()))
	}
	if fo.Switches() != 1 {
		t.Fatalf("switches = %d, want 1", fo.Switches())
	}
}

// TestReplApplyErrorsThroughStatusTable: the replication routes answer
// through the one status table — an out-of-sequence push is a 409 whose body
// still carries the follower's applied sequence, and a push to a node that
// is not a follower is a 403.
func TestReplApplyErrorsThroughStatusTable(t *testing.T) {
	follower := memStore(t)
	follower.SetFollower()
	push := func(st *Store) (int, map[string]any) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/_repl/apply", strings.NewReader(`{"index":"ix","from":5,"frames":[]}`))
		NewServer(st).ServeHTTP(rec, req)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("decode %q: %v", rec.Body.String(), err)
		}
		return rec.Code, body
	}
	if code, body := push(follower); code != http.StatusConflict || body["applied"] != float64(0) || body["error"] == nil {
		t.Fatalf("out-of-sequence push = %d %v, want 409 carrying applied 0", code, body)
	}
	if code, body := push(memStore(t)); code != http.StatusForbidden {
		t.Fatalf("push to a primary = %d %v, want 403", code, body)
	}
}
