package store

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/durable/durabletest"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// The crash matrix: every test in this file simulates one kill point of the
// durability protocol by doing to the data directory exactly what a crash
// would (torn WAL tails, orphan temporaries, superseded files that were
// never deleted), then recovers and requires the reopened store to be
// byte-identical — full typed search, document search, aggregations, and
// counts — to a control store that never crashed.

const crashIndex = "events"

// crashEvents builds one deterministic typed batch. Timestamps exceed 2^53
// so any float64 coercion on the journal path would corrupt them. The round's
// three file tags are per-round (BirthNS); its two openat rows carry the
// kernel path of inodes 42 and 40, so a correlation pass resolves those from
// the row itself and through the dictionary and leaves inode 41 unresolved.
func crashEvents(round int) []event.Event {
	base := int64(1<<60) + int64(round)*1_000_000
	evs := make([]event.Event, 0, 8)
	for i := 0; i < 8; i++ {
		e := event.Event{
			Session: "crash", Syscall: []string{"read", "write", "openat", "fsync"}[i%4],
			Class: "file", ProcName: "app", ThreadName: "app-worker",
			PID: 100 + round, TID: 200 + i,
			RetVal: int64(i * 13), FD: 3 + i, Count: 4096,
			TimeEnterNS: base + int64(i)*1000, TimeExitNS: base + int64(i)*1000 + 500,
			FileTag: event.FileTag{Dev: 8, Ino: uint64(40 + i%3), BirthNS: base},
			Offset:  int64(i) * 4096, HasOffset: i%2 == 0,
			ArgPath: "/data/f" + string(rune('a'+i%3)),
		}
		if e.Syscall == "openat" {
			e.KernelPath = "/mnt" + e.ArgPath
		}
		evs = append(evs, e)
	}
	return evs
}

// crashDocs builds a second deterministic batch, sparse where crashEvents is
// dense: written as Document literals (the NDJSON ingest shape) and turned
// into events by docEvents.
func crashDocs(round int) []event.Event {
	docs := make([]Document, 0, 4)
	for i := 0; i < 4; i++ {
		docs = append(docs, Document{
			FieldSession: "crash", FieldSyscall: "ioctl",
			FieldRetVal: int64(round*10 + i), FieldPID: int64(100 + round),
			FieldTimeEnter: int64(1<<60) + int64(round)*1_000_000 + int64(900+i),
		})
	}
	return docEvents(docs...)
}

// ingestRound applies one round of mixed writes: two event batches and (on
// odd rounds) a correlation pass over both rounds since the last — both
// journal record types.
func ingestRound(t *testing.T, st *Store, round int) {
	t.Helper()
	bulkRound(t, st, round)
	if round%2 == 1 {
		// 16 tagged rows and 4 tags since the last pass; inode 41 has no anchor.
		res, err := st.Correlate(context.Background(), crashIndex, "crash")
		if err != nil || res.EventsUpdated != 10 || res.EventsUnresolved != 3*(round+1) {
			t.Fatalf("round %d: correlate: %+v, %v", round, res, err)
		}
	}
}

// controlStore replays rounds [0, rounds) into a fresh in-memory store: the
// never-crashed reference state.
func controlStore(t *testing.T, rounds int) *Store {
	t.Helper()
	st := memStore(t)
	for r := 0; r < rounds; r++ {
		ingestRound(t, st, r)
	}
	return st
}

// fingerprint serializes everything a reader can observe: the full typed
// result set, the full document result set, a three-way aggregation, and
// the total count. Two stores with equal fingerprints are indistinguishable
// to every consumer in the repository.
func fingerprint(t *testing.T, st *Store) string {
	t.Helper()
	ctx := context.Background()
	req := SearchRequest{Query: MatchAll(), Size: -1, Aggs: map[string]Agg{
		"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}},
		"ret_stats":  {Stats: &StatsAgg{Field: FieldRetVal}},
		"timeline":   {DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 1_000_000}},
	}}
	evs, err := st.SearchEvents(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("fingerprint typed search: %v", err)
	}
	docs, err := st.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("fingerprint doc search: %v", err)
	}
	n, err := st.Count(ctx, crashIndex, MatchAll())
	if err != nil {
		t.Fatalf("fingerprint count: %v", err)
	}
	blob, err := json.Marshal(struct {
		Events EventsResult
		Docs   SearchResponse
		Count  int
	}{evs, docs, n})
	if err != nil {
		t.Fatalf("fingerprint marshal: %v", err)
	}
	return string(blob)
}

func openDurable(t testing.TB, dir string, opts ...Option) *Store {
	t.Helper()
	st, err := Open(append([]Option{
		WithDataDir(dir),
		WithFsyncPolicy(FsyncAlways),
		WithSnapshotInterval(0), // snapshots only when the test asks
	}, opts...)...)
	if err != nil {
		t.Fatalf("open durable store: %v", err)
	}
	return st
}

func indexDir(dir string) string { return filepath.Join(dir, indexDirName(crashIndex)) }
func walFile(dir string, seq int) string {
	return filepath.Join(indexDir(dir), durable.WALName(seq))
}

// TestDurableRoundTripAcrossReopen is the base case: no crash, just close
// and reopen, with a snapshot in the middle so recovery exercises segment
// load + WAL replay together.
func TestDurableRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(4))
	ingestRound(t, st, 0)
	ingestRound(t, st, 1)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, st, 2) // lands in the post-snapshot WAL
	want := fingerprint(t, st)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen with a different configured shard count: the manifest's shard
	// count must win, or gid arithmetic would scatter recovered rows.
	re := openDurable(t, dir, WithShards(7))
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("reopened state diverged from pre-close state\n got: %.200s...\nwant: %.200s...", got, want)
	}
	if got := fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("durable state diverged from in-memory control")
	}
	ix, _ := re.GetIndex(crashIndex)
	if ix.NumShards() != 4 {
		t.Fatalf("recovered shards = %d, want the manifest's 4", ix.NumShards())
	}
}

// TestCrashTornWALTail kills the store mid-append: the WAL ends in a
// partially-written record. Recovery must truncate the torn tail, restore
// exactly the state of every complete record, and leave the log usable for
// new appends.
func TestCrashTornWALTail(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	ingestRound(t, st, 1)
	cut, err := os.Stat(walFile(dir, 0))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	ingestRound(t, st, 2) // this round will be torn away
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The kill point: the first record of round 2 made it only partially to
	// disk. Cutting a few bytes into it leaves a frame whose payload is
	// shorter than its header claims.
	if err := os.Truncate(walFile(dir, 0), cut.Size()+5); err != nil {
		t.Fatalf("truncate wal: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	reg := re.Telemetry()
	if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, 2)); got != want {
		t.Fatalf("recovered state != never-crashed control (rounds 0-1)")
	}
	if n := reg.Counter(telemetry.MetricWALTornTails, "").Value(); n != 1 {
		t.Fatalf("torn-tail counter = %d, want 1", n)
	}
	// The repaired log must accept new writes and survive another reopen.
	ingestRound(t, re, 2)
	want := fingerprint(t, re)
	re.Close()
	re2 := openDurable(t, dir)
	defer re2.Close()
	if got := fingerprint(t, re2); got != want {
		t.Fatalf("post-repair writes lost on second recovery")
	}
}

// TestCrashTornWALTailAcrossBlocks is the torn-tail kill point at a size
// where storage blocks matter: one shard, a flushed segment whose rows end
// inside the second block, and a WAL tail that runs on into the third, so
// recovery places segment rows and replays records across block boundaries
// and the rewrites of every odd round reach rows in all three blocks.
func TestCrashTornWALTailAcrossBlocks(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithShards(1), WithFsyncPolicy(FsyncOff)}
	st := openDurable(t, dir, opts...)
	rowsPerRound := len(crashEvents(0)) + len(crashDocs(0))
	flushed := blockRows/rowsPerRound + 5 // rounds in the segment
	kept := 2*blockRows/rowsPerRound + 5  // rounds that survive the crash
	for r := 0; r < flushed; r++ {
		ingestRound(t, st, r)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for r := flushed; r < kept; r++ {
		ingestRound(t, st, r)
	}
	ix, _ := st.GetIndex(crashIndex)
	if seg, n := flushed*rowsPerRound, ix.Len(); seg <= blockRows || seg >= 2*blockRows || n <= 2*blockRows {
		t.Fatalf("fixture does not straddle blocks: %d rows flushed, %d in all", seg, n)
	}
	cut, err := os.Stat(walFile(dir, 1))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	ingestRound(t, st, kept) // this round will be torn away
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.Truncate(walFile(dir, 1), cut.Size()+5); err != nil {
		t.Fatalf("truncate wal: %v", err)
	}

	re := openDurable(t, dir, opts...)
	defer re.Close()
	if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, kept)); got != want {
		t.Fatalf("recovered state != never-crashed control (rounds 0-%d)", kept-1)
	}
}

// TestCrashMidSnapshot kills the store between snapshot steps: the next WAL
// file exists, the segment is half-written as a temporary, and the manifest
// was never committed. Recovery must ignore every orphan and rebuild purely
// from the old WAL.
func TestCrashMidSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	ingestRound(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The kill point: snapshot created wal-000001 (step 1) and was writing
	// the segment temporary (step 2) when the process died — the manifest
	// (step 3, the commit point) never landed.
	if err := os.WriteFile(walFile(dir, 1), nil, 0o644); err != nil {
		t.Fatalf("plant orphan wal: %v", err)
	}
	tmp := filepath.Join(indexDir(dir), durable.SegmentName(1)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written segment"), 0o644); err != nil {
		t.Fatalf("plant orphan segment tmp: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, 2)); got != want {
		t.Fatalf("recovered state != never-crashed control")
	}
	for _, orphan := range []string{walFile(dir, 1), tmp} {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery", filepath.Base(orphan))
		}
	}
}

// TestCrashAfterSnapshotBeforeTruncate kills the store after the manifest
// committed but before the superseded WAL was deleted: both generations are
// on disk. Recovery must follow the manifest — segment plus new WAL — and
// not double-apply the old log.
func TestCrashAfterSnapshotBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	ingestRound(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	oldWAL, err := os.ReadFile(walFile(dir, 0))
	if err != nil {
		t.Fatalf("save old wal: %v", err)
	}

	st = openDurable(t, dir)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, st, 2) // journals into wal-000001, after the segment
	if err := st.Close(); err != nil {
		t.Fatalf("close after snapshot: %v", err)
	}
	// The kill point: resurrect the superseded WAL the cleanup step never
	// got to delete.
	if err := os.WriteFile(walFile(dir, 0), oldWAL, 0o644); err != nil {
		t.Fatalf("restore superseded wal: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, 3)); got != want {
		t.Fatalf("recovered state != never-crashed control (old WAL double-applied or segment ignored)")
	}
	if _, err := os.Stat(walFile(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("superseded wal-000000 survived recovery")
	}
}

// TestRecoveryConservationLedger checks the recovery conservation
// invariant through the telemetry ledger: recovered rows == segment rows +
// replayed WAL rows, with replayed batches counted.
func TestRecoveryConservationLedger(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	ingestRound(t, st, 1)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, st, 2)
	segRows := 2 * (len(crashEvents(0)) + len(crashDocs(0)))
	walRows := len(crashEvents(2)) + len(crashDocs(2))
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	reg := re.Telemetry()
	n, err := re.Count(context.Background(), crashIndex, MatchAll())
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	replayed := int(reg.Counter(telemetry.MetricReplayedEvents, "").Value())
	if replayed != walRows {
		t.Fatalf("replayed rows = %d, want %d", replayed, walRows)
	}
	if n != segRows+replayed {
		t.Fatalf("conservation violated: %d docs != %d segment rows + %d replayed rows", n, segRows, replayed)
	}
	if b := reg.Counter(telemetry.MetricReplayedBatches, "").Value(); b == 0 {
		t.Fatalf("replayed-batch counter did not advance")
	}
}

// TestDeleteIndexRemovesDurableState checks that dropping an index removes
// its directory, so a reopen does not resurrect it.
func TestDeleteIndexRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	if err := st.DeleteIndex(context.Background(), crashIndex); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	if _, ok := re.GetIndex(crashIndex); ok {
		t.Fatalf("deleted index resurrected on reopen")
	}
}

// TestFrameJournalRoundTrip covers the verbatim-frame WAL path: typed
// batches shipped as binary frames through the HTTP server journal the
// received bytes directly, and recovery must rebuild the same state as
// direct in-process ingest.
func TestFrameJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	srv := httptest.NewServer(NewServer(st))
	c := NewClient(srv.URL)
	ctx := context.Background()
	for r := 0; r < 2; r++ {
		if err := c.BulkEvents(ctx, crashIndex, crashEvents(r)); err != nil {
			t.Fatalf("round %d: ship frame: %v", r, err)
		}
	}
	want := fingerprint(t, st)
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("frame-journaled state diverged after recovery")
	}
	control := memStore(t)
	for r := 0; r < 2; r++ {
		if err := control.BulkEvents(ctx, crashIndex, crashEvents(r)); err != nil {
			t.Fatalf("control round %d: %v", r, err)
		}
	}
	if got := fingerprint(t, control); got != want {
		t.Fatalf("frame-journaled state != direct-ingest control")
	}
}

// TestCrashRewriteRecoveredFromManifest covers the paths record's second
// home. A correlation pass over rows already folded into a segment journals a
// paths record; the next snapshot supersedes that WAL, so the manifest's path
// book — the same record — is then the only copy, and round 0's segment still
// holds its rows unresolved. Recovery leaves them on disk, and every read must
// name them from the book.
func TestCrashRewriteRecoveredFromManifest(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, st, 1) // names round 0's flushed rows
	if err := st.Snapshot(); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	book := manifestOf(t, dir).Paths
	if len(book) != 1 || book[0].H != 24 || book[0].Session != "crash" || len(book[0].Pairs) != 4 {
		t.Fatalf("manifest path book = %+v; want the one pass over 24 rows with 4 pairs", book)
	}
	if st, err := os.Stat(walFile(dir, 2)); err != nil || st.Size() != 0 {
		t.Fatalf("live WAL not empty after the snapshot (err %v): the book is not the only copy", err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, 2)); got != want {
		t.Fatalf("recovery lost the manifest-committed paths")
	}
}

// TestCrashCorrelateKilledBeforePathsRecord kills the store after a pass named
// rows in memory but before (or while) its paths record reached the log: the
// pass was never acknowledged, so recovery must equal a control that never
// ran it — no half of it.
func TestCrashCorrelateKilledBeforePathsRecord(t *testing.T) {
	for name, torn := range map[string]int64{"never appended": 0, "torn": 5} {
		dir := t.TempDir()
		st := openDurable(t, dir)
		for r := 0; r < 3; r++ {
			ingestRound(t, st, r)
		}
		cut, err := os.Stat(walFile(dir, 0))
		if err != nil {
			t.Fatalf("stat wal: %v", err)
		}
		if res, err := st.Correlate(context.Background(), crashIndex, "crash"); err != nil || res.EventsUpdated != 5 {
			t.Fatalf("%s: the doomed pass: %+v, %v", name, res, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := os.Truncate(walFile(dir, 0), cut.Size()+torn); err != nil {
			t.Fatalf("truncate wal: %v", err)
		}
		re := openDurable(t, dir)
		if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, 3)); got != want {
			t.Errorf("%s: recovered state != control without the unjournaled pass", name)
		}
		re.Close()
	}
}

// TestCrashCorrelateKilledBeforeManifestCommit kills the store after a paths
// record was journaled over already-flushed rows but before any manifest
// carried it: the record in the live WAL is the only copy, and recovery must
// put it in the book that names the segment rows it leaves on disk.
func TestCrashCorrelateKilledBeforeManifestCommit(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	ingestRound(t, st, 0)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if book := manifestOf(t, dir).Paths; len(book) != 0 {
		t.Fatalf("manifest already carries %d paths records: the WAL is not the only copy", len(book))
	}
	re := openDurable(t, dir)
	defer re.Close()
	if got, want := fingerprint(t, re), fingerprint(t, controlStore(t, 2)); got != want {
		t.Fatalf("recovery lost the journaled paths")
	}
}

// TestRetiredFormatsRejected plants each on-disk form this build no longer
// reads — the gob document-batch and rewrite WAL records, the row-rewrite
// record and the manifest's pending-rewrite blob of builds that updated rows
// by query, a segment holding generic rows — in an otherwise healthy data dir:
// Open must fail with ErrRetiredFormat and name the offender, never skip it,
// parse it as something else, or hand back a half-loaded store. The one form
// Open cannot see without reading segment files — generic rows that a
// manifest older than its Generic count does not mention — fails the same
// way at the first read of that segment. The writer cannot produce generic
// rows, so durabletest patches them into the committed segment's image.
func TestRetiredFormatsRejected(t *testing.T) {
	appendWAL := func(rt durable.RecordType) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			w, err := durable.OpenWAL(walFile(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(rt, []byte("gob bytes of an older build")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// editManifest rewrites the committed manifest's JSON through edit, so
	// it can carry keys the Manifest type no longer has.
	editManifest := func(t *testing.T, dir string, edit func(m map[string]any)) {
		path := filepath.Join(indexDir(dir), durable.ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		if data, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// genericSegment adds two generic rows to segment 0, and when counted
	// says so in its manifest entry.
	genericSegment := func(counted bool) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(indexDir(dir), durable.SegmentName(0))
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			doc := []byte("gob bytes of an older build")
			if err := os.WriteFile(path, durabletest.WithGenericRows(img, doc, doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if counted {
				editManifest(t, dir, func(m map[string]any) {
					m["segments"].([]any)[0].(map[string]any)["generic"] = 2
				})
			}
		}
	}
	for _, tc := range []struct {
		name, names string
		plant       func(*testing.T, string)
		atRead      bool // Open cannot see it; the first read of it fails
	}{
		{"wal document batch", "wal record type 2", appendWAL(durable.RecordRetiredDocs), false},
		{"wal gob rewrite", "wal record type 3", appendWAL(durable.RecordRetiredRewrite), false},
		{"wal row rewrite", "wal record type 4", appendWAL(durable.RecordRetiredRows), false},
		{"manifest rewrites blob", "manifest pending rewrites", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) { m["rewrites"] = []byte("bytes of an older build") })
		}, false},
		{"generic segment rows", "segment " + durable.SegmentName(0) + " holds 2 generic rows", genericSegment(true), false},
		{"generic segment rows, uncounted by an older manifest", durable.SegmentName(0), genericSegment(false), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openDurable(t, dir)
			ingestRound(t, st, 0)
			if err := st.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			ingestRound(t, st, 1)
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			tc.plant(t, dir)
			re, err := Open(WithDataDir(dir))
			if err == nil && tc.atRead {
				_, err = re.Search(context.Background(), crashIndex, SearchRequest{Query: MatchAll(), Size: -1})
				re.Close()
			} else if err == nil {
				re.Close()
				t.Fatal("Open accepted a retired on-disk form")
			}
			if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("Open error = %v; want ErrRetiredFormat naming %q", err, tc.names)
			}
		})
	}
}

// TestContextCancellationStopsOps checks the context-first surface: a
// cancelled context refuses writes and aborts read fan-out with the
// context's error.
func TestContextCancellationStopsOps(t *testing.T) {
	st := memStore(t, WithShards(8))
	if err := st.BulkEvents(context.Background(), crashIndex, crashDocs(0)); err != nil {
		t.Fatalf("seed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.BulkEvents(ctx, crashIndex, crashDocs(1)); err != context.Canceled {
		t.Fatalf("bulk on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := st.Search(ctx, crashIndex, SearchRequest{Query: MatchAll()}); err != context.Canceled {
		t.Fatalf("search on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := st.Count(ctx, crashIndex, MatchAll()); err != context.Canceled {
		t.Fatalf("count on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := st.Correlate(ctx, crashIndex, ""); err != context.Canceled {
		t.Fatalf("correlate on cancelled ctx = %v, want context.Canceled", err)
	}
	// The store must still be fully usable with a live context.
	if n, err := st.Count(context.Background(), crashIndex, MatchAll()); err != nil || n != len(crashDocs(0)) {
		t.Fatalf("count after cancelled ops = %d, %v", n, err)
	}
}
