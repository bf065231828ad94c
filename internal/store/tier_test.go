package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// The tiered matrix: segment eviction on every flush, time-range pruning,
// leveled compaction, retention drops, and every crash point that machinery
// adds — each recovery compared against a never-crashed control, exactly like
// crash_test.go does for WAL and snapshot kill points.

// bulkRound is ingestRound without the correlation step, for fixtures that
// choose where passes run (controlReplay).
func bulkRound(t *testing.T, st *Store, round int) {
	t.Helper()
	ctx := context.Background()
	if err := st.BulkEvents(ctx, crashIndex, crashEvents(round)); err != nil {
		t.Fatalf("round %d: bulk events: %v", round, err)
	}
	if err := st.BulkEvents(ctx, crashIndex, crashDocs(round)); err != nil {
		t.Fatalf("round %d: bulk docs: %v", round, err)
	}
}

// controlReplay rebuilds the reference state in memory: the listed rounds in
// order, with ingestRound's correlation pass run after the rounds named in
// passAfter.
func controlReplay(t *testing.T, rounds, passAfter []int) *Store {
	t.Helper()
	ctx := context.Background()
	st := memStore(t)
	for _, r := range rounds {
		bulkRound(t, st, r)
		for _, u := range passAfter {
			if u != r {
				continue
			}
			if _, err := st.Correlate(ctx, crashIndex, "crash"); err != nil {
				t.Fatalf("control round %d: correlate: %v", r, err)
			}
		}
	}
	return st
}

// coldRows sums the rows of ix's cold segments.
func coldRows(ix *Index) int64 {
	var n int64
	for _, sm := range ix.coldSegments() {
		n += sm.Rows
	}
	return n
}

func manifestOf(t *testing.T, dir string) durable.Manifest {
	t.Helper()
	m, ok, err := durable.LoadManifest(indexDir(dir))
	if err != nil || !ok {
		t.Fatalf("load manifest: ok=%v err=%v", ok, err)
	}
	return m
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(indexDir(dir))
	if err != nil {
		t.Fatalf("read index dir: %v", err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestSegmentTieredFingerprint is the tiered base case: every flush evicts
// the memtable into an immutable cold segment, and a store whose rows live
// entirely in cold segments must be indistinguishable
// — typed search, document search, aggregations, counts — from an in-memory
// store holding the same rows, before and after a reopen.
func TestSegmentTieredFingerprint(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(4))
	const rounds = 6
	var all []int
	for r := 0; r < rounds; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
		all = append(all, r)
	}
	want := fingerprint(t, controlReplay(t, all, nil))
	if got := fingerprint(t, st); got != want {
		t.Fatalf("tiered state diverged from in-memory control")
	}

	ix, _ := st.GetIndex(crashIndex)
	rowsPerRound := len(crashEvents(0)) + len(crashDocs(0))
	if cold := coldRows(ix); cold != int64(rounds*rowsPerRound) {
		t.Fatalf("cold rows = %d, want %d (all rows evicted)", cold, rounds*rowsPerRound)
	}
	hot := 0
	for _, sh := range ix.shards {
		hot += sh.len()
	}
	if hot != 0 {
		t.Fatalf("shard memory holds %d rows after eviction, want 0", hot)
	}
	if m := manifestOf(t, dir); len(m.Segments) != rounds {
		t.Fatalf("manifest lists %d segments, want %d", len(m.Segments), rounds)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("tiered state diverged after reopen")
	}
	// The tier keeps accepting writes: a new round lands hot and is visible
	// alongside the cold segments.
	bulkRound(t, re, rounds)
	if got, want := fingerprint(t, re), fingerprint(t, controlReplay(t, append(all, rounds), nil)); got != want {
		t.Fatalf("mixed cold+hot state diverged from control")
	}
}

// TestSegmentTieredAcrossBlocks is the tiered base case at a size where
// storage blocks matter: one shard flushes and evicts more than a block of
// rows (the cold read adopts the decoded page as two block views), then
// ingests past a block boundary again into storage the eviction emptied. Hot
// plus cold must equal the in-memory control, before and after a reopen.
func TestSegmentTieredAcrossBlocks(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithShards(1), WithFsyncPolicy(FsyncOff)}
	st := openDurable(t, dir, opts...)
	rowsPerRound := len(crashEvents(0)) + len(crashDocs(0))
	cold := blockRows/rowsPerRound + 5
	var all []int
	for r := 0; r < 2*cold; r++ {
		bulkRound(t, st, r)
		all = append(all, r)
		if r == cold-1 {
			if err := st.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	ix, _ := st.GetIndex(crashIndex)
	if c, h := int(coldRows(ix)), ix.shards[0].len(); c <= blockRows || h <= blockRows {
		t.Fatalf("fixture does not cross a block on both tiers: %d cold rows, %d hot", c, h)
	}
	want := fingerprint(t, controlReplay(t, all, nil))
	if got := fingerprint(t, st); got != want {
		t.Fatalf("hot + cold state diverged from in-memory control")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := openDurable(t, dir, opts...)
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("reopened hot + cold state diverged from in-memory control")
	}
}

// TestSegmentPrunedSearchOpensOnlyOverlapping checks the query planner's
// time-range pruning: with rows spread over many time-disjoint segments, a
// narrow time_enter_ns range must open only the overlapping segment — with
// the skip/open decisions visible on the pruning counters and /metrics — and
// must return exactly what a full scan returns. The row counters show where
// decoding happens: once per segment, or per query over the budget.
func TestSegmentPrunedSearchOpensOnlyOverlapping(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithQueryCache(0))
	defer st.Close()
	reg := st.Telemetry()
	const rounds = 8
	for r := 0; r < rounds; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
	}
	ctx := context.Background()
	// Round 3's window: rounds are 1ms apart, this range spans 20µs.
	lo := int64(1<<60) + 3*1_000_000
	hi := lo + 20_000
	req := SearchRequest{
		Query: Must(Term(FieldSession, "crash"), timeRange(lo, hi)),
		Size:  -1,
	}
	pruned := reg.Counter(telemetry.MetricSegmentsPruned, "")
	opened := reg.Counter(telemetry.MetricSegmentsOpened, "")

	resp, err := st.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("pruned search: %v", err)
	}
	rowsPerRound := len(crashEvents(0)) + len(crashDocs(0))
	if len(resp.Hits) != rowsPerRound {
		t.Fatalf("pruned search returned %d hits, want %d (round 3)", len(resp.Hits), rowsPerRound)
	}
	if p, o := pruned.Value(), opened.Value(); p != rounds-1 || o != 1 {
		t.Fatalf("pruning counters: pruned=%d opened=%d, want %d/1", p, o, rounds-1)
	}

	// The differential: the same predicate under a single Should, where the
	// planner extracts no bounds (timeBounds only descends into Must), scans
	// every segment and must return the identical result set. With no bounds
	// there is no pruning decision, so neither counter moves.
	fullReq := req
	fullReq.Query = Query{Bool: &BoolQuery{Should: []Query{req.Query}}}
	full, err := st.Search(ctx, crashIndex, fullReq)
	if err != nil {
		t.Fatalf("full-scan search: %v", err)
	}
	if !reflect.DeepEqual(resp.Hits, full.Hits) || resp.Total != full.Total {
		t.Fatalf("pruned and full-scan results diverged")
	}
	if p, o := pruned.Value(), opened.Value(); p != rounds-1 || o != 1 {
		t.Fatalf("unbounded scan moved the pruning counters: pruned=%d opened=%d, want %d/1", p, o, rounds-1)
	}

	// Counts take the same pruned path.
	n, err := st.Count(ctx, crashIndex, Must(timeRange(lo, hi)))
	if err != nil {
		t.Fatalf("pruned count: %v", err)
	}
	if n != rowsPerRound {
		t.Fatalf("pruned count = %d, want %d", n, rowsPerRound)
	}

	// A segment is decoded whole once, when it joins the resident set: the
	// windowed search filled round 3's, the unbounded scan the other seven,
	// and the count decoded nothing. Only a segment over the budget decodes
	// per query, and then only the rows whose time can match: a window over
	// round 3's first 3.5µs takes 8 of its 12 rows and skips the rest.
	decoded := reg.Counter(telemetry.MetricSegRowsDecoded, "")
	skipped := reg.Counter(telemetry.MetricSegRowsSkipped, "")
	if d, s := decoded.Value(), skipped.Value(); d != uint64(rounds*rowsPerRound) || s != 0 {
		t.Fatalf("row counters after every segment was read: decoded=%d skipped=%d, want %d/0", d, s, rounds*rowsPerRound)
	}
	ix, _ := st.GetIndex(crashIndex)
	ix.dur.resident.clear()
	ix.dur.resident.budget = 1
	n, err = st.Count(ctx, crashIndex, Must(timeRange(lo, lo+3500)))
	if err != nil || n != 8 {
		t.Fatalf("narrow count = %d (%v), want 8", n, err)
	}
	if d, s := decoded.Value(), skipped.Value(); d != uint64(rounds*rowsPerRound+8) || s != uint64(rowsPerRound-8) {
		t.Fatalf("row counters after the narrow window over budget: decoded=%d skipped=%d, want %d/%d",
			d, s, rounds*rowsPerRound+8, rowsPerRound-8)
	}

	// The decisions are operationally visible.
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{
		telemetry.MetricSegmentsPruned, telemetry.MetricSegmentsOpened,
		telemetry.MetricSegRowsDecoded, telemetry.MetricSegRowsSkipped,
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics does not expose %s", name)
		}
	}
}

// TestSegmentCompactionPreservesState checks the leveled merge: compaction
// must shrink the segment list without changing one observable bit, remove
// its input files, and leave a manifest recovery rebuilds the same state
// from.
func TestSegmentCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(4))
	reg := st.Telemetry()
	const rounds = 8
	var all []int
	for r := 0; r < rounds; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
		all = append(all, r)
	}
	want := fingerprint(t, st)
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// 8 level-0 segments merge 4-at-a-time into two level-1 segments.
	m := manifestOf(t, dir)
	if len(m.Segments) != 2 {
		t.Fatalf("post-compaction manifest lists %d segments, want 2", len(m.Segments))
	}
	for _, sm := range m.Segments {
		if sm.Level != 1 {
			t.Fatalf("post-compaction segment seq %d at level %d, want 1", sm.Seq, sm.Level)
		}
	}
	if n := reg.Counter(telemetry.MetricCompactions, "").Value(); n != 2 {
		t.Fatalf("compaction counter = %d, want 2", n)
	}
	if files := segmentFiles(t, dir); len(files) != 2 {
		t.Fatalf("disk holds %d segment files after compaction, want 2: %v", len(files), files)
	}
	if got := fingerprint(t, st); got != want {
		t.Fatalf("compaction changed observable state")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("recovery from compacted segments diverged")
	}
	if got, ctrl := fingerprint(t, re), fingerprint(t, controlReplay(t, all, nil)); got != ctrl {
		t.Fatalf("compacted state diverged from in-memory control")
	}
}

// TestDurableParentWrittenDirOpens: a data dir shaped like one the flat
// layout of earlier builds wrote without -retention — a snapshot's segment,
// then a correlation pass over its rows journaled in the live WAL — opens as
// it is. Writing it now is itself the cold count: the pass names flushed rows
// 0-11 from the segment. The path book is where those names live from then
// on, and it must keep serving them through cold search, into compaction's
// output, and across reopen.
func TestDurableParentWrittenDirOpens(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(4))
	ingestRound(t, st, 0)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, st, 1) // odd round: the pass names flushed rows 0-11 too
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want := fingerprint(t, controlStore(t, 2))

	re := openDurable(t, dir)
	if got := fingerprint(t, re); got != want {
		t.Fatalf("recovery of the flat-era dir diverged (journaled paths lost?)")
	}
	ix, _ := re.GetIndex(crashIndex)
	if book := ix.dur.paths(); len(book) != 1 || book[0].H != 24 {
		t.Fatalf("recovered path book = %+v, want round 1's pass over 24 rows", book)
	}

	// Grow more segments, then compact: the merge names segment 0's rows on
	// their way through, and the book stays (it is never folded).
	rounds, passes := []int{0, 1}, []int{1}
	for r := 2; r <= 5; r++ {
		bulkRound(t, re, r)
		if err := re.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
		rounds = append(rounds, r)
	}
	want = fingerprint(t, controlReplay(t, rounds, passes))
	if got := fingerprint(t, re); got != want {
		t.Fatalf("mixed-era tiered state diverged from control")
	}
	if err := re.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if book := manifestOf(t, dir).Paths; len(book) != 1 || len(ix.dur.paths()) != 1 {
		t.Fatalf("path book after compaction: %d committed, %d live; want 1 and 1", len(book), len(ix.dur.paths()))
	}
	if got := fingerprint(t, re); got != want {
		t.Fatalf("compaction changed observable state")
	}
	// The merged segment carries the paths itself: it answers the same with
	// the book out of the way.
	saved := ix.dur.book.Swap(nil)
	if got := fingerprint(t, re); got != want {
		t.Fatalf("compaction output does not carry the paths of the rows it merged")
	}
	ix.dur.book.Store(saved)
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re2 := openDurable(t, dir)
	defer re2.Close()
	if got := fingerprint(t, re2); got != want {
		t.Fatalf("post-compaction recovery diverged")
	}
}

// TestCrashCompactionBeforeManifestCommit kills the compactor between
// writing its merged output and committing the manifest: the output file
// exists but nothing references it. Recovery must delete the orphan, keep
// every segment the manifest does reference, and restore the exact
// pre-crash state.
func TestCrashCompactionBeforeManifestCommit(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	var all []int
	for r := 0; r < 5; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
		all = append(all, r)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The kill point: compaction claimed the next output sequence, wrote the
	// merged segment, and died before CommitManifest.
	m := manifestOf(t, dir)
	orphan := filepath.Join(indexDir(dir), durable.SegmentName(m.SegmentSeq))
	if err := os.WriteFile(orphan, []byte("uncommitted merge output"), 0o644); err != nil {
		t.Fatalf("plant orphan segment: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("uncommitted compaction output survived recovery")
	}
	// The bug this guards against: orphan cleanup running with the wrong
	// manifest view and deleting segments the real manifest references.
	for _, sm := range m.Segments {
		if _, err := os.Stat(filepath.Join(indexDir(dir), durable.SegmentName(sm.Seq))); err != nil {
			t.Fatalf("referenced segment seq %d deleted by orphan cleanup: %v", sm.Seq, err)
		}
	}
	if got, want := fingerprint(t, re), fingerprint(t, controlReplay(t, all, nil)); got != want {
		t.Fatalf("recovered state != never-crashed control")
	}
}

// TestCrashTornSegmentWrite kills the store mid-write of a segment (the
// temporary exists, the rename never happened) and mid-rotation (an orphan
// WAL generation). Recovery must remove both and recover cleanly.
func TestCrashTornSegmentWrite(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	var all []int
	for r := 0; r < 4; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
		all = append(all, r)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	torn := filepath.Join(indexDir(dir), durable.SegmentName(9)+".tmp")
	if err := os.WriteFile(torn, []byte("torn half-written segment"), 0o644); err != nil {
		t.Fatalf("plant torn segment: %v", err)
	}
	orphanWAL := walFile(dir, 42)
	if err := os.WriteFile(orphanWAL, nil, 0o644); err != nil {
		t.Fatalf("plant orphan wal: %v", err)
	}

	re := openDurable(t, dir)
	defer re.Close()
	for _, f := range []string{torn, orphanWAL} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery", filepath.Base(f))
		}
	}
	if got, want := fingerprint(t, re), fingerprint(t, controlReplay(t, all, nil)); got != want {
		t.Fatalf("recovered state != never-crashed control")
	}
}

// TestManifestMissingSegmentFails: a manifest that references a segment file
// that does not exist is unrecoverable corruption, and recovery must fail
// loudly instead of silently serving partial data.
func TestManifestMissingSegmentFails(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	for r := 0; r < 3; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m := manifestOf(t, dir)
	victim := filepath.Join(indexDir(dir), durable.SegmentName(m.Segments[1].Seq))
	if err := os.Remove(victim); err != nil {
		t.Fatalf("remove referenced segment: %v", err)
	}

	if _, err := Open(WithDataDir(dir)); err == nil {
		t.Fatalf("Open succeeded with a manifest-referenced segment missing")
	}
}

// TestRecoveryTieredConservation generalizes the recovery conservation
// invariant to the leveled layout: recovered rows == sum of all manifest
// segment rows + replayed WAL rows.
func TestRecoveryTieredConservation(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	bulkRound(t, st, 0)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	bulkRound(t, st, 1)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	bulkRound(t, st, 2) // stays in the WAL
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close's final snapshot flushed round 2 as a third segment; tear that
	// commit back to the mid-WAL state by restoring the round-2 journal...
	// simpler: recompute expectations from the manifest itself.
	m := manifestOf(t, dir)

	re := openDurable(t, dir)
	defer re.Close()
	reg := re.Telemetry()
	n, err := re.Count(context.Background(), crashIndex, MatchAll())
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	replayed := int(reg.Counter(telemetry.MetricReplayedEvents, "").Value())
	if int64(n) != m.SegmentRows()+int64(replayed) {
		t.Fatalf("conservation violated: %d rows != %d segment rows + %d replayed",
			n, m.SegmentRows(), replayed)
	}
	rowsPerRound := len(crashEvents(0)) + len(crashDocs(0))
	if n != 3*rowsPerRound {
		t.Fatalf("recovered %d rows, want %d", n, 3*rowsPerRound)
	}
}

// TestCrashFollowerBootstrapMultiSegment checks full-state replication from
// a tiered primary: the bootstrap ships the primary's files — manifest,
// segment images, live WAL records — and the follower's segment files and
// live WAL come out byte-identical, its shard count the primary's, and its
// state fingerprint-identical, including after it restarts from its own
// disk. A snapshot cut to a prefix of its frames is a valid older snapshot
// the follower streams on from.
func TestCrashFollowerBootstrapMultiSegment(t *testing.T) {
	ctx := context.Background()
	pdir, fdir := t.TempDir(), t.TempDir()

	// Primary: a segment named by a pass journaled after it, reopened, grown
	// by a second segment, plus a hot memtable round.
	p := openDurable(t, pdir, WithShards(4))
	ingestRound(t, p, 0)
	if err := p.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestRound(t, p, 1)
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	p = openDurable(t, pdir)
	defer p.Close()
	bulkRound(t, p, 2)
	if err := p.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	bulkRound(t, p, 3) // hot rows

	snap, err := p.ReplBootstrapFrames(crashIndex)
	if err != nil {
		t.Fatalf("bootstrap frames: %v", err)
	}
	rowsPerRound := int64(len(crashEvents(0)) + len(crashDocs(0)))
	if got := snap.Manifest.SegmentRows(); got != 3*rowsPerRound || len(snap.Images) != len(snap.Manifest.Segments) {
		t.Fatalf("snapshot carries %d segment rows in %d images for %d segments, want %d rows (three cold rounds)",
			got, len(snap.Images), len(snap.Manifest.Segments), 3*rowsPerRound)
	}

	f := openFollower(t, fdir, WithShards(2))
	if err := f.ReplBootstrap(ctx, crashIndex, snap); err != nil {
		t.Fatalf("follower bootstrap: %v", err)
	}
	if fix, _ := f.GetIndex(crashIndex); fix.NumShards() != 4 {
		t.Fatalf("follower holds %d shards, want the primary's 4", fix.NumShards())
	}
	want := fingerprint(t, p)
	if got := fingerprint(t, f); got != want {
		t.Fatalf("bootstrapped follower diverged from primary")
	}
	if got, ctrl := want, fingerprint(t, controlReplay(t, []int{0, 1, 2, 3}, []int{1})); got != ctrl {
		t.Fatalf("primary itself diverged from in-memory control")
	}
	live := []string{durable.WALName(snap.Manifest.WALSeq)}
	for _, name := range append(segmentFiles(t, pdir), live...) {
		pb, perr := os.ReadFile(filepath.Join(indexDir(pdir), name))
		fb, ferr := os.ReadFile(filepath.Join(indexDir(fdir), name))
		if perr != nil || ferr != nil || !bytes.Equal(pb, fb) {
			t.Fatalf("%s: follower's %d bytes (%v) != primary's %d (%v)", name, len(fb), ferr, len(pb), perr)
		}
	}
	if got, wantSegs := segmentFiles(t, fdir), segmentFiles(t, pdir); !reflect.DeepEqual(got, wantSegs) {
		t.Fatalf("follower segment files %v, primary's %v", got, wantSegs)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("follower close: %v", err)
	}

	// The bootstrapped state must be durable on the follower's own disk.
	f2 := openDurable(t, fdir)
	defer f2.Close()
	if got := fingerprint(t, f2); got != want {
		t.Fatalf("follower state diverged after restart")
	}

	// A prefix of the frames is an older snapshot of the same log: the
	// follower takes it and streams the rest without another bootstrap.
	const k = 1
	if len(snap.Frames) <= k {
		t.Fatalf("snapshot has %d frames, the prefix arm needs more than %d", len(snap.Frames), k)
	}
	older := snap
	older.Frames, older.Seq = snap.Frames[:k], snap.Manifest.BaseSeq+k
	f3 := openFollower(t, t.TempDir())
	defer f3.Close()
	if err := f3.ReplBootstrap(ctx, crashIndex, older); err != nil {
		t.Fatalf("prefix bootstrap: %v", err)
	}
	pump(t, p, f3, crashIndex, false)
	if got := fingerprint(t, f3); got != want {
		t.Fatalf("follower streamed on from a prefix snapshot diverged")
	}
}

// TestCursorPagingAcrossCompaction is the live-compaction differential:
// paging an index with search_after while the compactor merges segments
// underneath must reproduce the monolithic result exactly — compaction moves
// rows between files but never changes global ids.
func TestCursorPagingAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithQueryCache(0))
	defer st.Close()
	for r := 0; r < 8; r++ {
		bulkRound(t, st, r)
		if err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", r, err)
		}
	}
	bulkRound(t, st, 8) // hot tail

	unsortedReq := SearchRequest{Query: Term(FieldSession, "crash")}
	sortedReq := SearchRequest{
		Query: Term(FieldSession, "crash"),
		Sort:  []SortField{{Field: FieldRetVal}, {Field: FieldTimeEnter, Desc: true}},
	}
	ctx := context.Background()
	baseUnsorted, err := st.Search(ctx, crashIndex, SearchRequest{Query: unsortedReq.Query, Size: -1})
	if err != nil {
		t.Fatalf("monolithic search: %v", err)
	}
	baseSorted, err := st.Search(ctx, crashIndex, SearchRequest{Query: sortedReq.Query, Sort: sortedReq.Sort, Size: -1})
	if err != nil {
		t.Fatalf("monolithic sorted search: %v", err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := st.Compact(); err != nil {
				t.Errorf("background compact: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	pagedUnsorted := pageAll(t, st, crashIndex, unsortedReq, 7)
	pagedSorted := pageAll(t, st, crashIndex, sortedReq, 7)
	close(done)
	wg.Wait()

	if !reflect.DeepEqual(pagedUnsorted, baseUnsorted.Hits) {
		t.Fatalf("unsorted paging under live compaction diverged: %d vs %d hits",
			len(pagedUnsorted), len(baseUnsorted.Hits))
	}
	if !reflect.DeepEqual(pagedSorted, baseSorted.Hits) {
		t.Fatalf("sorted paging under live compaction diverged: %d vs %d hits",
			len(pagedSorted), len(baseSorted.Hits))
	}
}

// retentionDocs builds batch events stamped at the given time, tagged by
// thread name.
func retentionDocs(at int64, batch int, tag string) []event.Event {
	evs := make([]event.Event, 0, batch)
	for i := 0; i < batch; i++ {
		evs = append(evs, event.Event{
			Session: "exp", Syscall: "read", ThreadName: tag,
			RetVal: int64(i), TimeEnterNS: at + int64(i),
		})
	}
	return evs
}

// TestCursorExpiredAfterRetention: an unsorted search_after cursor that
// names rows the retention sweep has dropped must fail with the typed
// ErrCursorExpired — locally, over HTTP as 410 Gone, and through the
// failover client without triggering a spurious failover — while sorted
// cursors and fresh walks keep working.
func TestCursorExpiredAfterRetention(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithRetention(time.Hour), WithQueryCache(0))
	defer st.Close()
	ctx := context.Background()
	now := time.Now().UnixNano()
	stale := now - 2*int64(time.Hour)
	if err := st.BulkEvents(ctx, crashIndex, retentionDocs(stale, 12, "old")); err != nil {
		t.Fatalf("bulk old: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot old: %v", err)
	}
	if err := st.BulkEvents(ctx, crashIndex, retentionDocs(now, 12, "new")); err != nil {
		t.Fatalf("bulk new: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot new: %v", err)
	}

	page1, err := st.Search(ctx, crashIndex, SearchRequest{Query: MatchAll(), Size: 5})
	if err != nil {
		t.Fatalf("page 1: %v", err)
	}
	if page1.NextAfter == nil || page1.Total != 24 {
		t.Fatalf("page 1: total=%d next=%v", page1.Total, page1.NextAfter)
	}
	sorted1, err := st.Search(ctx, crashIndex, SearchRequest{
		Query: MatchAll(), Size: 5, Sort: []SortField{{Field: FieldTimeEnter}},
	})
	if err != nil {
		t.Fatalf("sorted page 1: %v", err)
	}

	if err := st.Compact(); err != nil { // retention drops the stale segment
		t.Fatalf("compact: %v", err)
	}
	n, err := st.Count(ctx, crashIndex, MatchAll())
	if err != nil || n != 12 {
		t.Fatalf("count after retention = %d, %v; want 12", n, err)
	}

	// The stale positional cursor fails loudly.
	_, err = st.Search(ctx, crashIndex, SearchRequest{Query: MatchAll(), Size: 5, SearchAfter: page1.NextAfter})
	if !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("stale cursor error = %v, want ErrCursorExpired", err)
	}
	// A sorted cursor resumes by key: it sees fewer rows, never an error.
	rest, err := st.Search(ctx, crashIndex, SearchRequest{
		Query: MatchAll(), Size: -1, Sort: []SortField{{Field: FieldTimeEnter}},
		SearchAfter: sorted1.NextAfter,
	})
	if err != nil {
		t.Fatalf("sorted resume: %v", err)
	}
	if len(sorted1.Hits)+len(rest.Hits) < 12 {
		t.Fatalf("sorted resume lost surviving rows: %d + %d", len(sorted1.Hits), len(rest.Hits))
	}
	// A fresh walk pages the surviving rows completely.
	if hits := pageAll(t, st, crashIndex, SearchRequest{Query: MatchAll()}, 5); len(hits) != 12 {
		t.Fatalf("fresh paged walk returned %d rows, want 12", len(hits))
	}

	// Over HTTP the same failure is a typed 410 Gone, and the failover
	// client returns it untouched instead of probing for a new primary.
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	fc, err := NewFailoverClient(NewClient(srv.URL))
	if err != nil {
		t.Fatalf("failover client: %v", err)
	}
	_, err = fc.SearchEvents(ctx, crashIndex, SearchRequest{Query: MatchAll(), Size: 5, SearchAfter: page1.NextAfter})
	if !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("HTTP stale cursor error = %v, want ErrCursorExpired via 410", err)
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusGone {
		t.Fatalf("HTTP stale cursor status = %v, want 410", err)
	}
	if he.Temporary() {
		t.Fatalf("410 Gone classified as temporary (would be retried)")
	}
	if fc.Switches() != 0 {
		t.Fatalf("cursor expiry triggered %d failovers, want 0", fc.Switches())
	}
}

// TestRecoveryAfterRetentionDropsEverySegment: once retention has dropped
// every segment, the manifest lists none, and recovery must still place the
// WAL's rows at or above the retention floor, where they were before the
// restart. Below it, every unsorted page past the first would fail as
// expired.
func TestRecoveryAfterRetentionDropsEverySegment(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithRetention(time.Hour), WithQueryCache(0))
	bulkRound(t, st, 0)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := st.Compact(); err != nil { // retention drops the only segment
		t.Fatalf("compact: %v", err)
	}
	bulkRound(t, st, 1)
	want := pageAll(t, st, crashIndex, SearchRequest{Query: MatchAll()}, 5)
	if len(want) != 12 {
		t.Fatalf("before restart %d rows page, want 12", len(want))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openDurable(t, dir, WithRetention(time.Hour), WithQueryCache(0))
	defer re.Close()
	if got := pageAll(t, re, crashIndex, SearchRequest{Query: MatchAll()}, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart %d rows page, before it %d", len(got), len(want))
	}
	ix, _ := re.GetIndex(crashIndex)
	if base, floor := ix.base.Load(), ix.retFloor.Load(); base < floor {
		t.Fatalf("recovered base %d below the retention floor %d", base, floor)
	}
}

// TestQueryCacheRetentionDifferential: the epoch-keyed query cache must not
// serve pre-drop responses after a retention sweep changes visible data —
// the mutation-vs-cache differential for the new mutation source.
func TestQueryCacheRetentionDifferential(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithRetention(time.Hour), WithQueryCache(64))
	defer st.Close()
	reg := st.Telemetry()
	ctx := context.Background()
	now := time.Now().UnixNano()
	stale := now - 2*int64(time.Hour)
	if err := st.BulkEvents(ctx, crashIndex, retentionDocs(stale, 12, "old")); err != nil {
		t.Fatalf("bulk old: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot old: %v", err)
	}
	fresh := retentionDocs(now, 12, "new")
	if err := st.BulkEvents(ctx, crashIndex, fresh); err != nil {
		t.Fatalf("bulk new: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot new: %v", err)
	}

	req := SearchRequest{
		Query: Term(FieldSession, "exp"),
		Size:  100,
		Aggs: map[string]Agg{
			"timeline": {DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: int64(time.Hour)}},
		},
	}
	r1, err := st.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("search 1: %v", err)
	}
	r2, err := st.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("search 2: %v", err)
	}
	if !reflect.DeepEqual(r1, r2) || r1.Total != 24 {
		t.Fatalf("pre-drop responses diverged or total=%d != 24", r1.Total)
	}
	if h := reg.Counter(telemetry.MetricQueryCacheHits, "").Value(); h == 0 {
		t.Fatalf("repeat query not served from cache — differential proves nothing")
	}

	if err := st.Compact(); err != nil { // retention drop bumps the epoch
		t.Fatalf("compact: %v", err)
	}
	r3, err := st.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("search after drop: %v", err)
	}
	if r3.Total != 12 {
		t.Fatalf("post-drop total = %d, want 12 (stale cached response served?)", r3.Total)
	}
	// The differential oracle: a fresh store holding only the surviving rows.
	ctrl := memStore(t)
	if err := ctrl.BulkEvents(ctx, crashIndex, retentionDocs(now, 12, "new")); err != nil {
		t.Fatalf("control bulk: %v", err)
	}
	want, err := ctrl.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("control search: %v", err)
	}
	if !reflect.DeepEqual(r3.Hits, want.Hits) || !reflect.DeepEqual(r3.Aggs, want.Aggs) {
		t.Fatalf("post-drop response diverged from surviving-rows control")
	}
	// And the post-drop response is itself cacheable and stable.
	r4, err := st.Search(ctx, crashIndex, req)
	if err != nil {
		t.Fatalf("search 4: %v", err)
	}
	if !reflect.DeepEqual(r3, r4) {
		t.Fatalf("post-drop cached response diverged")
	}
}

// TestRetentionBoundsMemory is the bounded-footprint check: under sustained
// ingest where every batch ages out, the flush-evict-drop cycle must keep
// shard memory empty, the segment list near-zero, and the store fully
// usable — the mechanism that bounds RSS for long-running deployments.
func TestRetentionBoundsMemory(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithRetention(time.Hour), WithShards(4))
	defer st.Close()
	ctx := context.Background()
	now := time.Now().UnixNano()
	stale := now - 2*int64(time.Hour)
	const cycles, batch = 25, 200
	for c := 0; c < cycles; c++ {
		if err := st.BulkEvents(ctx, crashIndex, retentionDocs(stale+int64(c), batch, fmt.Sprintf("c%d", c))); err != nil {
			t.Fatalf("cycle %d: bulk: %v", c, err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatalf("cycle %d: snapshot: %v", c, err)
		}
		if err := st.Compact(); err != nil {
			t.Fatalf("cycle %d: compact: %v", c, err)
		}
		ix, _ := st.GetIndex(crashIndex)
		hot := 0
		for _, sh := range ix.shards {
			hot += sh.len()
		}
		if hot != 0 {
			t.Fatalf("cycle %d: %d rows still hot after eviction", c, hot)
		}
		if files := segmentFiles(t, dir); len(files) > 2 {
			t.Fatalf("cycle %d: %d segment files on disk, want <= 2 (unbounded growth)", c, len(files))
		}
	}
	n, err := st.Count(ctx, crashIndex, MatchAll())
	if err != nil || n != 0 {
		t.Fatalf("count after %d aged-out cycles = %d, %v; want 0", cycles, n, err)
	}
	if dropped := manifestOf(t, dir).RetentionFloor; dropped != int64(cycles*batch) {
		t.Fatalf("retention floor = %d, want %d", dropped, cycles*batch)
	}
	// The store keeps working: a live batch is fully visible.
	if err := st.BulkEvents(ctx, crashIndex, retentionDocs(now, batch, "live")); err != nil {
		t.Fatalf("live bulk: %v", err)
	}
	if n, err := st.Count(ctx, crashIndex, MatchAll()); err != nil || n != batch {
		t.Fatalf("live count = %d, %v; want %d", n, err, batch)
	}
}

// TestDurableCorrelateCountsColdRows: a correlation pass over a durable index
// counts the rows earlier snapshots flushed to cold segments as well as the
// hot ones, so its CorrelationResult equals, field for field, what an
// in-memory store holding the same rows answers — in process and over HTTP
// (status 200) — whether the pass is scoped to a session or not, and whether
// the rows it names are all cold, all hot, or both. Each pass journals one
// record (the book grows by exactly one), and the named state survives a
// reopen.
func TestDurableCorrelateCountsColdRows(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(4))
	ctrl := memStore(t, WithShards(4))
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	remote := NewClient(srv.URL)
	for r, step := range []struct {
		snapshot bool
		session  string
	}{
		{true, "s0"}, // every counted row cold
		{false, ""},  // cold rows named by the book, new rows hot
		{true, "s0"}, // flushed rows named in memory, flushed rows named by nobody
		{true, "s1"},
		{false, ""},
		{true, "s1"},
	} {
		evs := append(crashEvents(r), crashDocs(r)...)
		for i := range evs {
			evs[i].Session = fmt.Sprintf("s%d", r%2)
		}
		for _, s := range []*Store{st, ctrl} {
			if err := s.BulkEvents(ctx, crashIndex, evs); err != nil {
				t.Fatalf("round %d: bulk: %v", r, err)
			}
		}
		if step.snapshot {
			if err := st.Snapshot(); err != nil {
				t.Fatalf("round %d: snapshot: %v", r, err)
			}
		}
		want, err := ctrl.Correlate(ctx, crashIndex, step.session)
		if err != nil || want.EventsUpdated == 0 {
			t.Fatalf("round %d: control pass: %+v, %v", r, want, err)
		}
		correlate := st.Correlate
		if r%2 == 1 {
			correlate = remote.Correlate
		}
		got, err := correlate(ctx, crashIndex, step.session)
		if err != nil || got != want {
			t.Fatalf("round %d (session %q): durable pass %+v, %v; in-memory control %+v", r, step.session, got, err, want)
		}
		ix, _ := st.GetIndex(crashIndex)
		if step.snapshot && coldRows(ix) != int64(ix.Len()) {
			t.Fatalf("round %d: %d cold rows of %d, want all flushed", r, coldRows(ix), ix.Len())
		}
		if book := ix.dur.paths(); len(book) != r+1 {
			t.Fatalf("round %d: path book holds %d records after %d passes", r, len(book), r+1)
		}
	}
	want := fingerprint(t, ctrl)
	if got := fingerprint(t, st); got != want {
		t.Fatalf("named durable state diverged from the in-memory control")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("named durable state diverged from the in-memory control after reopen")
	}
}

// TestNestedAggsAcrossTiers: cold segments answer through the same
// shard.partial as hot rows, so a nested aggregation over a durable store
// holding both tiers must equal the oracle's answer over one in-memory index
// of the same rows — including buckets that exist only in the cold tier.
func TestNestedAggsAcrossTiers(t *testing.T) {
	st := openDurable(t, t.TempDir(), WithRetention(time.Hour), WithShards(4))
	defer st.Close()
	ctrl := memStore(t, WithShards(4))
	ctx := context.Background()
	now := time.Now().UnixNano()
	batches := [][]event.Event{retentionDocs(now, 40, "evicted"), retentionDocs(now+20, 40, "live"), retentionDocs(now+1_000_000, 9, "evicted")}
	for i, evs := range batches {
		for _, s := range []*Store{st, ctrl} {
			if err := s.BulkEvents(ctx, crashIndex, evs); err != nil {
				t.Fatalf("bulk %d: %v", i, err)
			}
		}
		if i == 0 { // the first batch goes cold; the rest stay in shard memory
			if err := st.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	ix, _ := st.GetIndex(crashIndex)
	ctrlIx, _ := ctrl.GetIndex(crashIndex)
	if cold, all := int(coldRows(ix)), ix.Len(); cold != 40 || all != 89 {
		t.Fatalf("tiers hold %d cold of %d rows, want 40 of 89", cold, all)
	}
	stats := Agg{Stats: &StatsAgg{Field: FieldRetVal}}
	pcts := Agg{Percentiles: &PercentilesAgg{Field: FieldRetVal}}
	for name, a := range map[string]Agg{
		"timeline": timelineAgg(10),
		"two_level": {Terms: &TermsAgg{Field: FieldThreadName}, Aggs: map[string]Agg{
			"over_time": {DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 16}, Aggs: map[string]Agg{"ret": stats, "p": pcts}},
		}},
		"truncated": {Terms: &TermsAgg{Field: FieldRetVal, Size: 7}, Aggs: map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: FieldThreadName, Size: 1}}}},
	} {
		req := SearchRequest{Query: Term(FieldSession, "exp"), Size: 1, Aggs: map[string]Agg{name: a}}
		got, err := st.Search(ctx, crashIndex, req)
		if err != nil {
			t.Fatalf("%s: tiered search: %v", name, err)
		}
		want := oracleSearch(ctrlIx, req)
		if got.Total != 89 || !reflect.DeepEqual(got.Aggs, want.Aggs) {
			t.Errorf("%s: tiers diverge from the oracle (total %d):\n tiered %+v\n oracle %+v", name, got.Total, got.Aggs, want.Aggs)
		}
	}
}

// TestDurableCountDuringFirstEviction reads counts while an index's first
// snapshot flushes every row and evicts it from shard memory. A count must
// see one cut of the index: every row hot before the eviction, every row
// cold after it, never a mix that counts the moved rows twice or not at all.
func TestDurableCountDuringFirstEviction(t *testing.T) {
	const rows, trials = 4000, 40
	ctx := context.Background()
	evs := cursorFixture(rows)
	inSession := 0
	for i := range evs {
		if evs[i].Session == "s1" {
			inSession++
		}
	}
	reads := []struct {
		name string
		want int
		read func(st *Store) (int, error)
	}{
		{"Count(MatchAll)", rows, func(st *Store) (int, error) { return st.Count(ctx, crashIndex, MatchAll()) }},
		{"Count(Term(session))", inSession, func(st *Store) (int, error) {
			return st.Count(ctx, crashIndex, Term(FieldSession, "s1"))
		}},
		{"Stats().Docs", rows, func(st *Store) (int, error) {
			s, err := st.Stats(context.Background(), crashIndex)
			return s.Docs, err
		}},
	}
	wrong, total := make([]atomic.Int64, len(reads)), make([]atomic.Int64, len(reads))
	for trial := 0; trial < trials; trial++ {
		st, err := Open(WithDataDir(t.TempDir()), WithShards(16), WithFsyncPolicy(FsyncOff),
			WithSnapshotInterval(0), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.BulkEvents(ctx, crashIndex, evs); err != nil {
			t.Fatal(err)
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		for i, r := range reads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					n, err := r.read(st)
					if err != nil {
						t.Errorf("%s: %v", r.name, err)
						return
					}
					total[i].Add(1)
					if n != r.want {
						wrong[i].Add(1)
					}
					runtime.Gosched() // leave the snapshot a core
				}
			}()
		}
		err = st.Snapshot()
		done.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if ix, _ := st.GetIndex(crashIndex); coldRows(ix) != rows {
			t.Fatalf("trial %d: %d cold rows after the snapshot, want %d", trial, coldRows(ix), rows)
		}
		st.Close()
	}
	for i, r := range reads {
		if n := wrong[i].Load(); n > 0 {
			t.Errorf("%s: %d of %d reads during the eviction were wrong", r.name, n, total[i].Load())
		}
	}
}

// TestDurableMatchAllCountDecodesNothing: a match-all count answers each cold
// entry of the read view from its segment's meta, so with no segment resident
// Count(MatchAll()), Len and Stats().Docs are exact and read, verify and
// decode no segment file.
func TestDurableMatchAllCountDecodesNothing(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithShards(4), WithFsyncPolicy(FsyncOff), WithQueryCache(0))
	defer st.Close()
	evs := cursorFixture(3000)
	for i := 0; i < len(evs); i += 1000 {
		if err := st.BulkEvents(ctx, crashIndex, evs[i:i+1000]); err != nil {
			t.Fatal(err)
		}
		if i < 2000 { // two segments cold, the last thousand rows hot
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix, _ := st.GetIndex(crashIndex)
	if c := coldRows(ix); c != 2000 || len(ix.coldSegments()) != 2 {
		t.Fatalf("fixture: %d cold rows in %d segments, want 2000 in 2", c, len(ix.coldSegments()))
	}
	ix.dur.resident.clear()
	verified, decoded := ix.rtm.segVerified.Value(), ix.rtm.rowsDecoded.Value()
	n, err := st.Count(ctx, crashIndex, MatchAll())
	if err != nil || n != len(evs) {
		t.Fatalf("Count(MatchAll()) = %d (%v), want %d", n, err, len(evs))
	}
	if n := ix.Len(); n != len(evs) {
		t.Fatalf("Len() = %d, want %d", n, len(evs))
	}
	if s, err := st.Stats(context.Background(), crashIndex); err != nil || s.Docs != len(evs) {
		t.Fatalf("Stats().Docs = %d (%v), want %d", s.Docs, err, len(evs))
	}
	if v, d := ix.rtm.segVerified.Value()-verified, ix.rtm.rowsDecoded.Value()-decoded; v != 0 || d != 0 {
		t.Fatalf("match-all counts verified %d segments and decoded %d rows, want none", v, d)
	}
}
