package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
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
			snap, err := primary.ReplBootstrapFrames(index)
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

// openFollower opens a durable store in dir as a follower: a follower
// journals every frame it applies, so it needs a data dir.
func openFollower(t testing.TB, dir string, opts ...Option) *Store {
	t.Helper()
	st := openDurable(t, dir, opts...)
	if err := st.SetFollower(); err != nil {
		t.Fatalf("set follower: %v", err)
	}
	return st
}

// TestFollowerNeedsDataDir: an in-memory store refuses the follower role and
// stays a primary.
func TestFollowerNeedsDataDir(t *testing.T) {
	st := memStore(t)
	if err := st.SetFollower(); err == nil || st.Role() != RolePrimary {
		t.Fatalf("in-memory SetFollower = %v, role %v; want a refusal and a primary", err, st.Role())
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
	follower := openFollower(t, fdir)
	defer follower.Close()

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
	re := openFollower(t, fdir)
	defer re.Close()
	if got := re.ReplStatus().Indices[crashIndex]; got != applied {
		t.Fatalf("reopened follower at seq %d, want %d", got, applied)
	}
	if got := fingerprint(t, re); got != want {
		t.Fatalf("reopened follower diverged")
	}
}

// TestReplRangeAcrossSnapshot checks that the WAL a replicating snapshot
// retires carries a lagging follower across that snapshot — the records
// folded into the segment are still WAL records in wal-<n-1> — so no
// bootstrap is needed. Two snapshots past the follower, the retired WAL is
// gone too: the same lag must demand a bootstrap, and the bootstrap must
// converge.
func TestReplRangeAcrossSnapshot(t *testing.T) {
	t.Run("retired-wal", func(t *testing.T) {
		primary := openDurable(t, t.TempDir())
		defer primary.Close()
		primary.ArmReplication()
		follower := openFollower(t, t.TempDir())
		defer follower.Close()

		ingestRound(t, primary, 0)
		pump(t, primary, follower, crashIndex, false) // catch up pre-snapshot
		ingestRound(t, primary, 1)                    // journaled in wal-000000
		if err := primary.Snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		ingestRound(t, primary, 2)
		pump(t, primary, follower, crashIndex, false) // must cross the snapshot via the retired WAL
		if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 3)); got != want {
			t.Fatalf("follower diverged after snapshot-crossing catch-up")
		}
	})
	t.Run("two-snapshots-bootstrap", func(t *testing.T) {
		primary := openDurable(t, t.TempDir())
		defer primary.Close()
		primary.ArmReplication()
		follower := openFollower(t, t.TempDir())
		defer follower.Close()

		ingestRound(t, primary, 0)
		if err := primary.Snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		ingestRound(t, primary, 1)
		if err := primary.Snapshot(); err != nil {
			t.Fatalf("second snapshot: %v", err)
		}
		// The follower is at 0; round 0's records were in wal-000000, which the
		// second snapshot deleted: only a bootstrap serves this.
		_, _, bootstrap, err := primary.ReplRange(crashIndex, 0, nil, 0, 0)
		if err != nil {
			t.Fatalf("repl range: %v", err)
		}
		if !bootstrap {
			t.Fatalf("expected bootstrap demand two snapshots past the follower")
		}
		pump(t, primary, follower, crashIndex, true)
		if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 2)); got != want {
			t.Fatalf("bootstrapped follower diverged")
		}
	})
}

// TestReplFollowerLagsPastBufferAcrossSnapshot lags a follower by more than
// 5 MiB of frames, all of them folded into a segment by a snapshot: the
// retired WAL still holds every one, so the follower streams on from 0
// without a bootstrap, however large the lag.
func TestReplFollowerLagsPastBufferAcrossSnapshot(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir, WithFsyncPolicy(FsyncOff))
	defer primary.Close()
	primary.ArmReplication()
	follower := openFollower(t, t.TempDir(), WithFsyncPolicy(FsyncOff))
	defer follower.Close()

	ctx := context.Background()
	pad := strings.Repeat("p", 2048)
	for b := 0; b < 64; b++ {
		evs := make([]event.Event, 40)
		for i := range evs {
			evs[i] = event.Event{
				Session: "lag", Syscall: "write", TID: i,
				TimeEnterNS: int64(b*40+i) * 1000, TimeExitNS: int64(b*40+i)*1000 + 10,
				ArgPath: fmt.Sprintf("/%d/%d/%s", b, i, pad), // unique: no frame dictionary shares it
			}
		}
		if err := primary.BulkEvents(ctx, crashIndex, evs); err != nil {
			t.Fatalf("bulk %d: %v", b, err)
		}
	}
	fi, err := os.Stat(walFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= 5<<20 {
		t.Fatalf("wal-000000 holds %d bytes, want more than 5 MiB", fi.Size())
	}
	if err := primary.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	pump(t, primary, follower, crashIndex, false)
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatalf("follower diverged from primary")
	}
}

// TestReplCursorStopsAtHead freezes the race between a range scan and a
// concurrent append: a record lands in the live WAL after head was read but
// before the file is. The scan must serve and step its cursor over the
// records below head only, so the next call resumes where this one stopped
// instead of rescanning the file from its first record.
func TestReplCursorStopsAtHead(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()
	ingestRound(t, primary, 0)
	head, _ := primary.ReplHeadSeq(crashIndex)
	fi, err := os.Stat(walFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The append in flight: a whole record the index has not counted yet.
	w, err := durable.OpenWAL(walFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(durable.RecordEvents, event.EncodeBatch(nil, crashEvents(1))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var cur ReplCursor
	frames, h, bootstrap, err := primary.ReplRange(crashIndex, 0, &cur, 0, 0)
	if err != nil || bootstrap {
		t.Fatalf("repl range: bootstrap=%v err=%v", bootstrap, err)
	}
	if int64(len(frames)) != head || h != head {
		t.Fatalf("got %d frames of head %d, want %d of %d", len(frames), h, head, head)
	}
	if cur.Seq != head || cur.Off != fi.Size() {
		t.Fatalf("cursor at sequence %d offset %d, want %d at %d (the end of the counted records)", cur.Seq, cur.Off, head, fi.Size())
	}
}

// TestArmedIngestAllocatesAsUnarmed holds the write path to one shape: a
// store that replicates journals and forgets exactly as one that does not,
// so arming it adds no allocation to BulkEvents or BulkFrame. Under -race
// both stores still ingest, but the counts are not compared: the race
// detector's pool drops make them differ by one at random.
func TestArmedIngestAllocatesAsUnarmed(t *testing.T) {
	frame := event.EncodeBatch(nil, crashEvents(0))
	allocs := func(armed bool) float64 {
		st := openDurable(t, t.TempDir(), WithFsyncPolicy(FsyncOff))
		defer st.Close()
		if armed {
			st.ArmReplication()
		}
		ctx, evs := context.Background(), crashEvents(0)
		return testing.AllocsPerRun(200, func() {
			if err := st.BulkEvents(ctx, crashIndex, evs); err != nil {
				t.Fatal(err)
			}
			if _, err := st.BulkFrame(ctx, crashIndex, frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	unarmed, armed := allocs(false), allocs(true)
	if raceEnabled {
		t.Skipf("the race detector's sync.Pool drops pooled buffers at random: armed %.0f, unarmed %.0f", armed, unarmed)
	}
	if armed > unarmed {
		t.Fatalf("armed ingest allocates %.0f per BulkEvents+BulkFrame, unarmed %.0f", armed, unarmed)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestReplApplySeqReject checks the follower's duplicate/reorder guard: a
// push from any position other than the applied sequence bounces with the
// follower's position inside *ReplSeqError, and applies nothing.
func TestReplApplySeqReject(t *testing.T) {
	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	primary.ArmReplication()
	follower := openFollower(t, t.TempDir())
	defer follower.Close()
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
	st := openFollower(t, t.TempDir())
	defer st.Close()
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
	follower := openFollower(t, t.TempDir())
	defer follower.Close()
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
	snap, err := primary.ReplBootstrapFrames(crashIndex)
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
	follower := openFollower(t, t.TempDir())
	defer follower.Close()

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
	follower := openFollower(t, t.TempDir())
	defer follower.Close()
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

// TestFollowerPromotedAfterBootstrapServesPeers checks that a bootstrapped
// follower numbers records as its primary does: once promoted, the peer
// that had streamed from the old primary resumes from the new one at its
// own applied sequence and ends with every row the new primary holds.
func TestFollowerPromotedAfterBootstrapServesPeers(t *testing.T) {
	ctx := context.Background()
	p := openDurable(t, t.TempDir())
	defer p.Close()
	p.ArmReplication()
	g := openFollower(t, t.TempDir())
	defer g.Close()
	f := openFollower(t, t.TempDir())
	defer f.Close()

	ingestRound(t, p, 0)
	if err := p.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, p, 1)
	pump(t, p, g, crashIndex, false) // G streams to the head, 5
	snap, err := p.ReplBootstrapFrames(crashIndex)
	if err != nil {
		t.Fatalf("bootstrap frames: %v", err)
	}
	if err := f.ReplBootstrap(ctx, crashIndex, snap); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if got, want := f.ReplStatus().Indices[crashIndex], g.ReplStatus().Indices[crashIndex]; got != want {
		t.Fatalf("bootstrapped follower at %d, the streamed one at %d", got, want)
	}

	f.Promote()
	f.ArmReplication()
	for r := 2; r < 6; r++ {
		bulkRound(t, f, r)
	}
	pump(t, f, g, crashIndex, false)
	gn, err := g.Count(ctx, crashIndex, MatchAll())
	if err != nil {
		t.Fatalf("peer count: %v", err)
	}
	fn, err := f.Count(ctx, crashIndex, MatchAll())
	if err != nil {
		t.Fatalf("promoted count: %v", err)
	}
	if gn != fn {
		t.Fatalf("peer holds %d rows, the promoted node %d", gn, fn)
	}
	if fingerprint(t, g) != fingerprint(t, f) {
		t.Fatalf("peer diverged from the promoted node")
	}
}

// TestReplBootstrapRefusesBadSnapshot checks that a snapshot a follower
// cannot restore is refused whole, before the existing index is dropped,
// as a bad request (400 over HTTP, never retried).
func TestReplBootstrapRefusesBadSnapshot(t *testing.T) {
	ctx := context.Background()
	p := openDurable(t, t.TempDir(), WithShards(2))
	defer p.Close()
	p.ArmReplication()
	bulkRound(t, p, 0)
	if err := p.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	bulkRound(t, p, 1)
	f := openFollower(t, t.TempDir())
	defer f.Close()
	pump(t, p, f, crashIndex, false)
	bulkRound(t, p, 2) // the follower lags the snapshot below

	good, err := p.ReplBootstrapFrames(crashIndex)
	if err != nil {
		t.Fatalf("bootstrap frames: %v", err)
	}
	if len(good.Images) == 0 || len(good.Frames) < 2 {
		t.Fatalf("fixture: %d images, %d frames", len(good.Images), len(good.Frames))
	}
	// edit copies the snapshot's segment list and images, so a case never
	// writes through to the primary's own.
	edit := func(fn func(*ReplSnapshot)) ReplSnapshot {
		s := good
		s.Manifest.Segments = append([]durable.SegmentMeta(nil), good.Manifest.Segments...)
		s.Images = make([][]byte, len(good.Images))
		for i, img := range good.Images {
			s.Images[i] = bytes.Clone(img)
		}
		s.Frames = append([]ReplFrame(nil), good.Frames...)
		fn(&s)
		return s
	}
	cases := []struct {
		name string
		snap ReplSnapshot
	}{
		{"an image missing", edit(func(s *ReplSnapshot) { s.Images = s.Images[:len(s.Images)-1] })},
		{"frames out of sequence", edit(func(s *ReplSnapshot) { s.Frames[0], s.Frames[1] = s.Frames[1], s.Frames[0] })},
		{"frames short of Seq", edit(func(s *ReplSnapshot) { s.Seq++ })},
		{"frames past Seq", edit(func(s *ReplSnapshot) { s.Seq-- })},
		{"a flipped image byte", edit(func(s *ReplSnapshot) { s.Images[0][len(s.Images[0])/2] ^= 0x40 })},
		{"an entry's row count lies", edit(func(s *ReplSnapshot) { s.Manifest.Segments[0].Rows++ })},
		{"an entry's time range lies", edit(func(s *ReplSnapshot) { s.Manifest.Segments[0].MaxTime++ })},
		{"an entry's row span too short", edit(func(s *ReplSnapshot) { s.Manifest.Segments[0].EndRow-- })},
		{"no shards", edit(func(s *ReplSnapshot) { s.Manifest.Shards = 0 })},
		{"a shard count past the bound", edit(func(s *ReplSnapshot) { s.Manifest.Shards = maxSnapshotShards + 1 })},
	}
	for _, tc := range cases {
		before, applied := fingerprint(t, f), f.ReplStatus().Indices[crashIndex]
		err := f.ReplBootstrap(ctx, crashIndex, tc.snap)
		if err == nil || !IsBadRequest(err) || StatusOf(err) != http.StatusBadRequest {
			t.Fatalf("%s: bootstrap = %v, want a bad request", tc.name, err)
		}
		if fingerprint(t, f) != before || f.ReplStatus().Indices[crashIndex] != applied {
			t.Fatalf("%s: a refused snapshot changed the follower's index", tc.name)
		}
	}

	// Over HTTP the refusal is a 400 the ladder does not retry.
	srv := httptest.NewServer(NewServer(f))
	defer srv.Close()
	var he *HTTPError
	err = NewClient(srv.URL).ReplBootstrap(ctx, crashIndex, cases[0].snap)
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest || he.Temporary() {
		t.Fatalf("HTTP bootstrap of a bad snapshot = %v, want a permanent 400", err)
	}

	// The snapshot itself applies, and the follower streams on from it.
	if err := f.ReplBootstrap(ctx, crashIndex, good); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	pump(t, p, f, crashIndex, false)
	if fingerprint(t, f) != fingerprint(t, p) {
		t.Fatalf("follower diverged after a good bootstrap")
	}
}

// TestCrashFollowerReplOffsetFolded reopens a follower whose manifest an
// older build wrote: its records numbered from zero, base_seq local and
// repl_offset the distance to its primary's numbering. It must come back
// at the primary sequence it last reported, with the same state.
func TestCrashFollowerReplOffsetFolded(t *testing.T) {
	ctx := context.Background()
	p := openDurable(t, t.TempDir())
	defer p.Close()
	ingestRound(t, p, 0)
	if err := p.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, p, 1)
	fdir := t.TempDir()
	f := openFollower(t, fdir)
	snap, err := p.ReplBootstrapFrames(crashIndex)
	if err != nil {
		t.Fatalf("bootstrap frames: %v", err)
	}
	if err := f.ReplBootstrap(ctx, crashIndex, snap); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	applied, want := f.ReplStatus().Indices[crashIndex], fingerprint(t, f)
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	path := filepath.Join(indexDir(fdir), durable.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	base, _ := m["base_seq"].(float64)
	const k = 2
	if base < k {
		t.Fatalf("fixture: base_seq %v, want at least %d", m["base_seq"], k)
	}
	m["base_seq"], m["repl_offset"] = base-k, k
	if data, err = json.Marshal(m); err != nil {
		t.Fatalf("encode manifest: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write manifest: %v", err)
	}

	re := openFollower(t, fdir)
	defer re.Close()
	if got := re.ReplStatus().Indices[crashIndex]; got != applied {
		t.Fatalf("reopened at sequence %d, want %d", got, applied)
	}
	if fingerprint(t, re) != want {
		t.Fatalf("reopened follower diverged")
	}
	pump(t, p, re, crashIndex, false)
}

// TestFollowerApplyAllocatesAsBulk holds a follower's apply to the shape of
// a client write: a replicated events frame decodes into a pooled batch and
// journals verbatim through the one record path, so ReplApply of a 512-event
// frame allocates no more than BulkFrame of the same frame.
func TestFollowerApplyAllocatesAsBulk(t *testing.T) {
	var evs []event.Event
	for r := 0; r < 64; r++ {
		evs = append(evs, crashEvents(r)...)
	}
	frame := event.EncodeBatch(nil, evs)
	ctx := context.Background()
	primary := openDurable(t, t.TempDir(), WithFsyncPolicy(FsyncOff))
	defer primary.Close()
	follower := openFollower(t, t.TempDir(), WithFsyncPolicy(FsyncOff))
	defer follower.Close()

	bulk := testing.AllocsPerRun(50, func() {
		if _, err := primary.BulkFrame(ctx, crashIndex, frame); err != nil {
			t.Fatal(err)
		}
	})
	frames := []ReplFrame{{Type: durable.RecordEvents, Payload: frame}}
	apply := testing.AllocsPerRun(50, func() {
		if _, err := follower.ReplApply(ctx, crashIndex, frames[0].Seq, frames); err != nil {
			t.Fatal(err)
		}
		frames[0].Seq++
	})
	t.Logf("allocs per 512-event frame: BulkFrame %.0f, ReplApply %.0f", bulk, apply)
	if apply > bulk {
		t.Fatalf("ReplApply allocates %.0f per 512-event frame, BulkFrame %.0f", apply, bulk)
	}
}

// TestReplApplyBadFrameIsBadRequest: a replicated frame that does not
// decode, or carries a record type nothing writes, is the pusher's fault, as
// an undecodable bulk frame is: POST /_repl/apply answers 400, which the
// shipper's ladder does not retry, and the follower applies nothing.
func TestReplApplyBadFrameIsBadRequest(t *testing.T) {
	follower := openFollower(t, t.TempDir())
	defer follower.Close()
	srv := NewServer(follower)
	for _, tc := range []struct {
		name  string
		frame ReplFrame
	}{
		{"undecodable events", ReplFrame{Type: durable.RecordEvents, Payload: []byte("not a frame")}},
		{"undecodable paths", ReplFrame{Type: durable.RecordPaths, Payload: []byte{1, 2, 3}}},
		{"unknown record type", ReplFrame{Type: 9, Payload: event.EncodeBatch(nil, crashEvents(0))}},
	} {
		body, err := json.Marshal(replApplyRequest{Index: crashIndex, Frames: []ReplFrame{tc.frame}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/_repl/apply", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: POST /_repl/apply = %d %s, want 400", tc.name, rec.Code, rec.Body)
		}
	}
	if got := follower.ReplStatus().Indices[crashIndex]; got != 0 {
		t.Fatalf("follower at sequence %d after refused frames, want 0", got)
	}
}

// TestReplCorrelationPassJournalsVerbatim streams a primary's correlation
// pass, which names cold and hot rows, to a follower bootstrapped past the
// primary's snapshot: the follower journals the paths record as the primary
// wrote it, so its live WAL stays byte-identical to the primary's.
func TestReplCorrelationPassJournalsVerbatim(t *testing.T) {
	ctx := context.Background()
	pdir, fdir := t.TempDir(), t.TempDir()
	p := openDurable(t, pdir)
	defer p.Close()
	p.ArmReplication()
	bulkRound(t, p, 0)
	if err := p.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	bulkRound(t, p, 1)
	f := openFollower(t, fdir)
	defer f.Close()
	snap, err := p.ReplBootstrapFrames(crashIndex)
	if err != nil {
		t.Fatalf("bootstrap frames: %v", err)
	}
	if err := f.ReplBootstrap(ctx, crashIndex, snap); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if res, err := p.Correlate(ctx, crashIndex, "crash"); err != nil || res.EventsUpdated == 0 {
		t.Fatalf("correlate: %+v, %v", res, err)
	}
	bulkRound(t, p, 2)
	pump(t, p, f, crashIndex, false)

	pw, perr := os.ReadFile(walFile(pdir, snap.Manifest.WALSeq))
	fw, ferr := os.ReadFile(walFile(fdir, snap.Manifest.WALSeq))
	if perr != nil || ferr != nil || !bytes.Equal(pw, fw) {
		t.Fatalf("follower WAL (%d bytes, %v) != primary WAL (%d bytes, %v)", len(fw), ferr, len(pw), perr)
	}
	if fingerprint(t, f) != fingerprint(t, p) {
		t.Fatalf("follower diverged from primary")
	}
}
