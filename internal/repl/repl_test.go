package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

const testIndex = "events"

// ingestRound applies one deterministic round of mixed writes — a dense
// event batch, a sparse one, and (odd rounds) a correlation pass — both
// journal record types the replication stream carries. The round's three file
// tags are per-round; its two openat rows carry their kernel path, so the pass
// names two tags' rows and leaves the third unresolved.
func ingestRound(t *testing.T, st *store.Store, round int) {
	t.Helper()
	ctx := context.Background()
	base := int64(1<<60) + int64(round)*1_000_000
	evs := make([]event.Event, 0, 8)
	for i := 0; i < 8; i++ {
		e := event.Event{
			Session: "repl", Syscall: []string{"read", "write", "openat", "fsync"}[i%4],
			Class: "file", ProcName: "app", ThreadName: "app-worker",
			PID: 100 + round, TID: 200 + i,
			RetVal: int64(i * 13), FD: 3 + i, Count: 4096,
			TimeEnterNS: base + int64(i)*1000, TimeExitNS: base + int64(i)*1000 + 500,
			FileTag: event.FileTag{Dev: 8, Ino: uint64(40 + i%3), BirthNS: base},
			ArgPath: "/data/f" + string(rune('a'+i%3)),
		}
		if e.Syscall == "openat" {
			e.KernelPath = "/mnt" + e.ArgPath
		}
		evs = append(evs, e)
	}
	if err := st.BulkEvents(ctx, testIndex, evs); err != nil {
		t.Fatalf("round %d: bulk events: %v", round, err)
	}
	sparse := make([]event.Event, 0, 4)
	for i := 0; i < 4; i++ {
		sparse = append(sparse, event.Event{
			Session: "repl", Syscall: "ioctl",
			RetVal: int64(round*10 + i), PID: 100 + round,
			TimeEnterNS: base + int64(900+i),
		})
	}
	if err := st.BulkEvents(ctx, testIndex, sparse); err != nil {
		t.Fatalf("round %d: bulk sparse events: %v", round, err)
	}
	if round%2 == 1 {
		if res, err := st.Correlate(ctx, testIndex, "repl"); err != nil || res.EventsUpdated == 0 {
			t.Fatalf("round %d: correlate: %+v, %v", round, res, err)
		}
	}
}

// rowsPerRound is how many rows one ingestRound adds (8 dense + 4 sparse events).
const rowsPerRound = 12

// fingerprint serializes everything a reader can observe from the index.
func fingerprint(t *testing.T, st *store.Store) string {
	t.Helper()
	ctx := context.Background()
	req := store.SearchRequest{Query: store.MatchAll(), Size: -1, Aggs: map[string]store.Agg{
		"by_syscall": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
		"ret_stats":  {Stats: &store.StatsAgg{Field: store.FieldRetVal}},
	}}
	evs, err := st.SearchEvents(ctx, testIndex, req)
	if err != nil {
		t.Fatalf("fingerprint typed search: %v", err)
	}
	docs, err := st.Search(ctx, testIndex, req)
	if err != nil {
		t.Fatalf("fingerprint doc search: %v", err)
	}
	n, err := st.Count(ctx, testIndex, store.MatchAll())
	if err != nil {
		t.Fatalf("fingerprint count: %v", err)
	}
	blob, err := json.Marshal(struct {
		Events store.EventsResult
		Docs   store.SearchResponse
		Count  int
	}{evs, docs, n})
	if err != nil {
		t.Fatalf("fingerprint marshal: %v", err)
	}
	return string(blob)
}

// controlStore replays rounds [0, rounds) into a fresh in-memory store.
func controlStore(t *testing.T, rounds int) *store.Store {
	t.Helper()
	st := memStore(t)
	for r := 0; r < rounds; r++ {
		ingestRound(t, st, r)
	}
	return st
}

func openDurable(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(
		store.WithDataDir(dir),
		store.WithFsyncPolicy(store.FsyncAlways),
		store.WithSnapshotInterval(0))
	if err != nil {
		t.Fatalf("open durable store: %v", err)
	}
	return st
}

// newFollower opens a durable follower on a temp dir: a follower journals
// every frame it applies, so it needs a data dir.
func newFollower(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open(
		store.WithDataDir(tb.TempDir()),
		store.WithFsyncPolicy(store.FsyncOff),
		store.WithSnapshotInterval(0))
	if err != nil {
		tb.Fatalf("open follower: %v", err)
	}
	tb.Cleanup(func() { st.Close() })
	if err := st.SetFollower(); err != nil {
		tb.Fatalf("set follower: %v", err)
	}
	return st
}

// faultTransport is the in-process fake transport: it applies frames
// directly to a follower store and injects network faults on the way —
// dropped calls (partition), delayed calls, duplicated deliveries, and a
// reordered delivery (the tail of a batch arriving before its head).
type faultTransport struct {
	mu sync.Mutex
	st *store.Store
	// target names the follower; empty is "fake://follower".
	target string
	// clk, when set with delay, advances/sleeps before every delivery.
	clk   clock.Clock
	delay time.Duration
	// failN makes the next N calls fail with failErr (partition).
	failN   int
	failErr error
	// dupApply delivers every Apply twice (network duplication).
	dupApply bool
	// reorderOnce delivers the next multi-frame Apply tail-first.
	reorderOnce bool

	statusCalls, applyCalls, bootstrapCalls int
}

func (f *faultTransport) Target() string {
	if f.target == "" {
		return "fake://follower"
	}
	return f.target
}

// fault consumes one injected fault, if armed.
func (f *faultTransport) fault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.clk != nil && f.delay > 0 {
		f.clk.Sleep(f.delay)
	}
	if f.failN > 0 {
		f.failN--
		if f.failErr != nil {
			return f.failErr
		}
		return errors.New("fake: connection refused")
	}
	return nil
}

func (f *faultTransport) Status(ctx context.Context) (store.ReplState, error) {
	f.mu.Lock()
	f.statusCalls++
	f.mu.Unlock()
	if err := f.fault(); err != nil {
		return store.ReplState{}, err
	}
	return f.st.ReplStatus(), nil
}

func (f *faultTransport) Apply(ctx context.Context, index string, from int64, frames []store.ReplFrame) (int64, error) {
	f.mu.Lock()
	f.applyCalls++
	reorder := f.reorderOnce && len(frames) > 1
	if reorder {
		f.reorderOnce = false
	}
	dup := f.dupApply
	f.mu.Unlock()
	if err := f.fault(); err != nil {
		return 0, err
	}
	if reorder {
		// The batch's tail arrives before its head: the follower must bounce
		// it, and the shipper must resync rather than trust partial delivery.
		_, err := f.st.ReplApply(ctx, index, from+1, frames[1:])
		return 0, err
	}
	applied, err := f.st.ReplApply(ctx, index, from, frames)
	if dup && err == nil {
		// The network delivers the same push again; the follower must reject
		// the duplicate without double-applying.
		if _, derr := f.st.ReplApply(ctx, index, from, frames); derr == nil {
			return applied, errors.New("fake: duplicate delivery was accepted")
		}
	}
	return applied, err
}

func (f *faultTransport) Bootstrap(ctx context.Context, index string, snap store.ReplSnapshot) error {
	f.mu.Lock()
	f.bootstrapCalls++
	f.mu.Unlock()
	if err := f.fault(); err != nil {
		return err
	}
	return f.st.ReplBootstrap(ctx, index, snap)
}

// hintedErr is a retryable failure carrying a Retry-After hint, as the HTTP
// client surfaces 429/503 responses.
type hintedErr struct{ after time.Duration }

func (e hintedErr) Error() string                 { return fmt.Sprintf("fake: back off %v", e.after) }
func (e hintedErr) Temporary() bool               { return true }
func (e hintedErr) RetryAfterHint() time.Duration { return e.after }

// newPair builds a primary and a follower, both durable, the follower behind
// a fault transport, plus a replicator wired with a virtual clock.
func newPair(t *testing.T, cfg Config) (*store.Store, *store.Store, *faultTransport, *Replicator) {
	t.Helper()
	primary := openDurable(t, t.TempDir())
	t.Cleanup(func() { primary.Close() })
	follower := newFollower(t)
	tr := &faultTransport{st: follower}
	r := New(primary, tr, cfg)
	return primary, follower, tr, r
}

// TestSyncDrainsAndReports is the happy path: one pass drains every record,
// the follower fingerprints identical to a never-replicated control, and the
// stats/health surfaces report a caught-up target.
func TestSyncDrainsAndReports(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary, follower, _, r := newPair(t, Config{Policy: resilience.Policy{Clock: vclk}})
	for round := 0; round < 3; round++ {
		ingestRound(t, primary, round)
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("follower diverged from control")
	}
	st := r.Stats()
	if st.Lag != 0 || st.ShippedRecords == 0 || st.Pushes == 0 || st.Retries != 0 {
		t.Fatalf("stats after clean drain: %+v", st)
	}
	// /metrics reads the memory Stats reads.
	counters := primary.Telemetry().Snapshot().Counters
	for name, want := range map[string]uint64{
		telemetry.MetricReplShippedRecs:  st.ShippedRecords,
		telemetry.MetricReplShippedBytes: st.ShippedBytes,
		telemetry.MetricReplPushes:       st.Pushes,
		telemetry.MetricReplBootstraps:   st.Bootstraps,
		telemetry.MetricReplPushRetries:  st.Retries,
	} {
		name += `{target="fake://follower"}`
		if got, ok := counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), Stats says %d", name, got, ok, want)
		}
	}
	h := primary.Health(context.Background())
	if len(h.Replication) != 1 || h.Replication[0].Target != "fake://follower" || h.Replication[0].Lag != 0 {
		t.Fatalf("primary health replication entry: %+v", h.Replication)
	}
	// Nothing new → next pass pushes nothing.
	pushes := st.Pushes
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("idle sync: %v", err)
	}
	if got := r.Stats().Pushes; got != pushes {
		t.Fatalf("idle sync pushed: %d → %d", pushes, got)
	}
}

// TestReplTelemetryPerTarget checks that every replicator registers its
// series on the primary's own registry, with no registry passed in, each
// labelled with its target, so two followers do not overwrite each other,
// and that a push is an Apply or a Bootstrap: the Status probe a first sync
// runs is not one, so three applies read three pushes.
func TestReplTelemetryPerTarget(t *testing.T) {
	primary := openDurable(t, t.TempDir())
	t.Cleanup(func() { primary.Close() })
	rs, trs := map[string]*Replicator{}, map[string]*faultTransport{}
	for _, target := range []string{"fake://a", "fake://b"} {
		trs[target] = &faultTransport{st: newFollower(t), target: target}
		rs[target] = New(primary, trs[target], Config{})
	}
	ingestRound(t, primary, 0)
	for _, r := range rs {
		if err := r.Sync(context.Background()); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	for round := 1; round < 3; round++ { // b alone ships rounds 1 and 2
		ingestRound(t, primary, round)
		if err := rs["fake://b"].Sync(context.Background()); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	snap := primary.Telemetry().Snapshot()
	for target, r := range rs {
		st, label, tr := r.Stats(), `{target="`+target+`"}`, trs[target]
		if want := uint64(tr.applyCalls + tr.bootstrapCalls); st.Pushes != want {
			t.Errorf("%s: %d pushes for %d applies and %d bootstraps", target, st.Pushes, tr.applyCalls, tr.bootstrapCalls)
		}
		for name, want := range map[string]uint64{
			telemetry.MetricReplShippedRecs: st.ShippedRecords,
			telemetry.MetricReplPushes:      st.Pushes,
		} {
			if got, ok := snap.Counters[name+label]; !ok || got != want {
				t.Errorf("%s%s = %d (registered %v), Stats says %d", name, label, got, ok, want)
			}
		}
		if got, ok := snap.Gauges[telemetry.MetricReplLag+label]; !ok || got != float64(st.Lag) {
			t.Errorf("%s%s = %v (registered %v), Stats says %d", telemetry.MetricReplLag, label, got, ok, st.Lag)
		}
	}
	if got := rs["fake://b"].Stats().Pushes; got != 3 {
		t.Errorf("fake://b: %d pushes for three applies", got)
	}
	if a, b := rs["fake://a"].Stats(), rs["fake://b"].Stats(); a.ShippedRecords == b.ShippedRecords {
		t.Fatalf("both targets shipped %d records; the test needs them apart", a.ShippedRecords)
	}
}

// TestPartitionHeals drops enough calls to exhaust attempts and open the
// breaker, then heals the partition and checks the stream catches up with no
// lost or duplicated records.
func TestPartitionHeals(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary, follower, tr, r := newPair(t, Config{Policy: resilience.Policy{
		Clock: vclk, MaxAttempts: 2, BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
	}})
	ingestRound(t, primary, 0)
	tr.mu.Lock()
	tr.failN = 50 // partition: every call fails for a while
	tr.mu.Unlock()
	if err := r.Sync(context.Background()); err == nil {
		t.Fatalf("sync through partition succeeded")
	}
	if err := r.Sync(context.Background()); !errors.Is(err, ErrFollowerDown) {
		t.Fatalf("partitioned sync error = %v, want ErrFollowerDown", err)
	}
	if r.Stats().Retries == 0 {
		t.Fatalf("no retries recorded during partition")
	}
	// Heal: clear the fault, wait out the breaker cooldown, resync.
	tr.mu.Lock()
	tr.failN = 0
	tr.mu.Unlock()
	vclk.Advance(time.Second)
	ingestRound(t, primary, 1)
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 2)); got != want {
		t.Fatalf("follower diverged after partition heal")
	}
	if lag := r.Stats().Lag; lag != 0 {
		t.Fatalf("lag after heal = %d", lag)
	}
}

// TestDelayedDuplicatedReordered runs the stream through a transport that
// delays every delivery, duplicates every apply, and reorders one batch:
// the follower's sequence guard plus the shipper's resync must yield exactly
// the control state anyway.
func TestDelayedDuplicatedReordered(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary, follower, tr, r := newPair(t, Config{Policy: resilience.Policy{Clock: vclk}})
	tr.clk, tr.delay = vclk, 5*time.Millisecond
	tr.dupApply = true
	tr.reorderOnce = true
	for round := 0; round < 4; round++ {
		ingestRound(t, primary, round)
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("sync under faults: %v", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 4)); got != want {
		t.Fatalf("follower diverged under delay+dup+reorder")
	}
	st := r.Stats()
	if st.SeqRejects == 0 {
		t.Fatalf("reordered delivery did not surface as a seq reject: %+v", st)
	}
	n, err := follower.Count(context.Background(), testIndex, store.MatchAll())
	if err != nil || n != 4*rowsPerRound {
		t.Fatalf("follower rows = %d, %v; want %d (duplicates applied?)", n, err, 4*rowsPerRound)
	}
}

// TestFollowerCrashMidReplay kills a durable follower mid-stream — torn WAL
// tail included, exactly as the crash matrix does for primaries — restarts
// it, and checks the shipper resyncs from the follower's recovered position
// and converges without a bootstrap.
func TestFollowerCrashMidReplay(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	fdir := t.TempDir()
	follower := openDurable(t, fdir)
	if err := follower.SetFollower(); err != nil {
		t.Fatalf("set follower: %v", err)
	}
	tr := &faultTransport{st: follower}
	r := New(primary, tr, Config{Policy: resilience.Policy{Clock: vclk}})

	ingestRound(t, primary, 0)
	ingestRound(t, primary, 1)
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	// Crash: close, then tear the last WAL record as a mid-write kill would.
	if err := follower.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}
	wals, err := filepath.Glob(filepath.Join(fdir, "*", "wal-*"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("follower wal files = %v, %v", wals, err)
	}
	info, err := os.Stat(wals[0])
	if err != nil {
		t.Fatalf("stat follower wal: %v", err)
	}
	if err := os.Truncate(wals[0], info.Size()-3); err != nil {
		t.Fatalf("tear follower wal: %v", err)
	}

	restarted := openDurable(t, fdir)
	defer restarted.Close()
	if err := restarted.SetFollower(); err != nil {
		t.Fatalf("set follower: %v", err)
	}
	tr.mu.Lock()
	tr.st = restarted
	tr.mu.Unlock()

	ingestRound(t, primary, 2)
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("sync after follower crash: %v", err)
	}
	if got, want := fingerprint(t, restarted), fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("restarted follower diverged from never-crashed control")
	}
	st := r.Stats()
	if st.Bootstraps != 0 {
		t.Fatalf("follower restart forced a bootstrap; resync from the torn record should have sufficed")
	}
	if st.SeqRejects == 0 {
		t.Fatalf("expected a seq reject when pushing past the restarted follower's position")
	}
}

// TestPrimaryKillMidIngestFailover is the failover oracle: the primary dies
// with journaled-but-unshipped records, the follower promotes, and the
// promoted state must equal the never-crashed control at the last replicated
// boundary — a consistent prefix, conservation intact — and then accept new
// writes as primary.
func TestPrimaryKillMidIngestFailover(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary, follower, _, r := newPair(t, Config{Policy: resilience.Policy{Clock: vclk}})
	for round := 0; round < 3; round++ {
		ingestRound(t, primary, round)
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// The primary journals one more round that never ships: the kill point.
	ingestRound(t, primary, 3)

	// Failover: the primary is gone; promote the follower.
	follower.Promote()
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("promoted state != never-crashed control at the replicated boundary")
	}
	n, err := follower.Count(context.Background(), testIndex, store.MatchAll())
	if err != nil || n != 3*rowsPerRound {
		t.Fatalf("conservation: promoted rows = %d, %v; want %d", n, err, 3*rowsPerRound)
	}
	// The promoted node is a primary now: it takes the lost round directly.
	ingestRound(t, follower, 3)
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 4)); got != want {
		t.Fatalf("promoted primary diverged after taking over writes")
	}
}

// TestGracefulStopDrainsAndResumes covers the clean-handoff satellite: Stop
// runs a final drain so nothing journaled is left unshipped, and a new
// replicator over the same pair resumes from the follower's position — no
// bootstrap, no re-shipping of acked records.
func TestGracefulStopDrainsAndResumes(t *testing.T) {
	primary, follower, tr, r := newPair(t, Config{Interval: time.Millisecond})
	ingestRound(t, primary, 0)
	r.Start()
	ingestRound(t, primary, 1)
	if err := r.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 2)); got != want {
		t.Fatalf("graceful stop left unshipped records")
	}
	shipped := r.Stats().ShippedRecords

	// A successor replicator (the restarted process) resumes exactly where
	// the handoff left the follower.
	r2 := New(primary, tr, Config{Policy: resilience.Policy{Clock: clock.NewVirtual(0)}})
	ingestRound(t, primary, 2)
	if err := r2.Sync(context.Background()); err != nil {
		t.Fatalf("successor sync: %v", err)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("successor replicator diverged")
	}
	st := r2.Stats()
	if st.Bootstraps != 0 || st.SeqRejects != 0 {
		t.Fatalf("successor did not resume cleanly: %+v", st)
	}
	if st.ShippedRecords >= shipped {
		t.Fatalf("successor re-shipped acked records: first %d, successor %d", shipped, st.ShippedRecords)
	}
}

// TestRetryAfterFloorHonored checks the reconnect contract: when the
// follower sends Retry-After hints, every retry delay is floored by the
// hint — measured exactly on the virtual clock.
func TestRetryAfterFloorHonored(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary, _, tr, r := newPair(t, Config{Policy: resilience.Policy{Clock: vclk, MaxAttempts: 4}})
	ingestRound(t, primary, 0)
	const hint = 2 * time.Second
	tr.mu.Lock()
	tr.failN, tr.failErr = 2, hintedErr{after: hint}
	tr.mu.Unlock()

	before := vclk.NowNS()
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("sync with hinted failures: %v", err)
	}
	slept := time.Duration(vclk.NowNS() - before)
	if slept < 2*hint {
		t.Fatalf("slept %v across 2 hinted retries, want ≥ %v (Retry-After floor ignored)", slept, 2*hint)
	}
	if got := r.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestChaosReplShipping is the HTTP end-to-end: a real follower server
// behind the fault handler faulting the replication pushes, a
// ClientTransport shipper, and random 503s — the stream must converge to the
// control fingerprint anyway.
func TestChaosReplShipping(t *testing.T) {
	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	follower := newFollower(t)
	chaos := resilience.NewFaultHandler(store.NewServer(follower), 42)
	chaos.SetErrorRate(0.4)
	srv := httptest.NewServer(chaos)
	defer srv.Close()

	r := New(primary, ClientTransport{C: store.NewClient(srv.URL)}, Config{
		Policy:    resilience.Policy{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		MaxFrames: 4, // many small pushes → many chances to be faulted
	})
	for round := 0; round < 4; round++ {
		ingestRound(t, primary, round)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := r.Sync(context.Background()); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("stream never converged under chaos: %v", err)
		}
	}
	if got, want := fingerprint(t, follower), fingerprint(t, controlStore(t, 4)); got != want {
		t.Fatalf("follower diverged under HTTP chaos")
	}
	if chaos.Injected() == 0 {
		t.Fatalf("chaos injected nothing; test exercised no faults")
	}
	if r.Stats().Retries == 0 {
		t.Fatalf("no retries under chaos; injector not hitting the repl path")
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

// cancelTransport is a follower link whose caller gives up mid-call: each
// status read cancels the caller's context and answers its error.
type cancelTransport struct {
	*faultTransport
	cancel context.CancelFunc
	calls  int
}

func (c *cancelTransport) Status(ctx context.Context) (store.ReplState, error) {
	c.calls++
	c.cancel()
	return store.ReplState{}, ctx.Err()
}

// TestReplCallerCancelEndsLadder: a caller's cancellation ends the push
// ladder at once — one transport call per pass, no backoff slept, and no
// breaker failure, so the breaker is still closed after more passes than its
// threshold.
func TestReplCallerCancelEndsLadder(t *testing.T) {
	vclk := clock.NewVirtual(0)
	primary := openDurable(t, t.TempDir())
	t.Cleanup(func() { primary.Close() })
	follower := newFollower(t)
	tr := &cancelTransport{faultTransport: &faultTransport{st: follower}}
	r := New(primary, tr, Config{Policy: resilience.Policy{Clock: vclk}})
	ingestRound(t, primary, 0)
	threshold := resilience.Policy{}.WithDefaults().BreakerThreshold
	for i := 1; i <= threshold+1; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		tr.cancel = cancel
		if err := r.Sync(ctx); !errors.Is(err, context.Canceled) || errors.Is(err, ErrFollowerDown) {
			t.Fatalf("pass %d = %v, want the caller's cancellation", i, err)
		}
		if tr.calls != i {
			t.Fatalf("after pass %d the follower saw %d calls, want one per pass", i, tr.calls)
		}
	}
	if slept := vclk.NowNS(); slept != 0 {
		t.Fatalf("slept %v after the caller gave up", time.Duration(slept))
	}
	if st := r.Breaker().State(); st != resilience.BreakerClosed || r.Stats().Retries != 0 {
		t.Fatalf("a caller's cancellation fed the ladder: breaker %v, stats %+v", st, r.Stats())
	}
}
