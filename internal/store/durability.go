package store

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// ErrRetiredFormat reports on-disk state in a form this build no longer
// reads (durable.ErrRetiredFormat lists them). Open fails with it rather than
// guess at a layout nothing writes any more.
var ErrRetiredFormat = durable.ErrRetiredFormat

// durTelemetry groups the durability instruments. All fields are nil-safe
// (the telemetry package's zero instruments discard observations), so the
// in-memory store carries a nil pointer at zero cost.
type durTelemetry struct {
	appendNS       *telemetry.Histogram
	fsyncNS        *telemetry.Histogram
	appends        *telemetry.Counter
	walBytes       *telemetry.Counter
	fsyncs         *telemetry.Counter
	snapshots      *telemetry.Counter
	snapshotNS     *telemetry.Histogram
	recoveryNS     *telemetry.Histogram
	replayedB      *telemetry.Counter
	replayedE      *telemetry.Counter
	tornTails      *telemetry.Counter
	compactions    *telemetry.Counter
	retentionDrops *telemetry.Counter
}

func newDurTelemetry(reg *telemetry.Registry) *durTelemetry {
	return &durTelemetry{
		appendNS:       reg.Histogram(telemetry.MetricWALAppendNS, "one WAL record append", nil),
		fsyncNS:        reg.Histogram(telemetry.MetricWALFsyncNS, "one WAL fsync", nil),
		appends:        reg.Counter(telemetry.MetricWALAppends, "WAL records appended"),
		walBytes:       reg.Counter(telemetry.MetricWALBytes, "WAL bytes appended"),
		fsyncs:         reg.Counter(telemetry.MetricWALFsyncs, "WAL fsyncs issued"),
		snapshots:      reg.Counter(telemetry.MetricSnapshots, "segment snapshots committed"),
		snapshotNS:     reg.Histogram(telemetry.MetricSnapshotNS, "one segment snapshot", nil),
		recoveryNS:     reg.Histogram(telemetry.MetricRecoveryNS, "one index recovery", nil),
		replayedB:      reg.Counter(telemetry.MetricReplayedBatches, "WAL batches replayed during recovery"),
		replayedE:      reg.Counter(telemetry.MetricReplayedEvents, "rows rebuilt from replayed WAL batches"),
		tornTails:      reg.Counter(telemetry.MetricWALTornTails, "torn WAL tails truncated during recovery"),
		compactions:    reg.Counter(telemetry.MetricCompactions, "segment compaction merges committed"),
		retentionDrops: reg.Counter(telemetry.MetricRetentionDrops, "segments dropped by the retention horizon"),
	}
}

// indexDurable is one index's durability state. Lock order: corrMu → gate →
// shard locks → appendMu; the WAL's own mutex nests innermost.
//
// The gate makes snapshots consistent: every mutating operation (bulk adds,
// correlation's path naming) holds gate.RLock across both its WAL append and
// its in-memory application, so when snapshot takes gate.Lock, memory state
// equals exactly the state the WAL prefix reproduces — the invariant that
// lets the snapshot atomically supersede the log.
//
// Tiered layout, the only durable one: committed rows live in the immutable
// leveled segment list (segs); rows below the index's base are cold
// (segment-only, evicted from shard memory by the snapshot that flushed
// them), rows at or above it are hot (shard memory at memgid = gid - base).
// Every segment-list publication happens under the exclusive gate plus every
// shard write lock; searches capture (base, segs) after taking all shard read
// locks, so a consistent cut needs no segment refcounts — obsolete files are
// deleted only after those locks release.
type indexDurable struct {
	dir       string
	fsync     FsyncPolicy
	tm        *durTelemetry
	retention time.Duration // drop whole cold segments older than this (0 = keep forever)

	gate     sync.RWMutex // writers share; snapshot/compaction/retention exclude
	appendMu sync.Mutex   // serializes WAL append + gid reservation
	corrMu   sync.Mutex   // one correlation pass (or replicated paths record) at a time

	wal    *durable.WAL
	walSeq int
	segSeq int // next unused segment sequence (== manifest SegmentSeq)

	// segs is the committed leveled segment list in ascending row order,
	// published atomically so searches read it lock-free. The pointed-to slice
	// is immutable; every change installs a fresh slice.
	segs atomic.Pointer[[]durable.SegmentMeta]

	// book is the path book (see paths): copy-on-write, so cold reads and
	// merges load it lock-free.
	book atomic.Pointer[[]event.PathsRecord]

	// resident keeps decoded cold segments across cold reads; a segment
	// leaves it where compaction or retention deletes its file.
	resident residentSegments

	// Replication sequence accounting. Every journaled record gets the next
	// sequence number; the segments hold [0, baseSeq), the live WAL holds
	// [baseSeq, recSeq). baseSeq is gate-guarded (it only moves under the
	// snapshot's exclusive gate); recSeq is bumped inside appendMu so sequence
	// order equals WAL record order.
	baseSeq int64
	recSeq  atomic.Int64
	// replOff aligns a follower to its primary: primary seq == local recSeq +
	// replOff. Zero on primaries and on followers that never bootstrapped.
	replOff atomic.Int64
	// tail buffers recent WAL records in memory for the replication shipper,
	// so lagging followers survive a snapshot without a full bootstrap.
	tail *replTail

	dirty     atomic.Int64 // records appended since the last snapshot
	unsynced  atomic.Bool  // bytes appended since the last fsync
	lastFsync atomic.Int64 // unix ns of the last completed fsync (0 = never)
	lastSnap  atomic.Int64 // unix ns of the last committed snapshot (0 = never)
}

// segsEnd returns one past the last row any listed segment covers (0 with
// no segments).
func segsEnd(segs []durable.SegmentMeta) int64 {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].EndRow
}

// flushStart is the first row id the next flush must write: everything the
// segments already cover, floored at the eviction base — retention can drop
// the last cold segment, and flushing from the raw segment end would then
// reach below the base into rows that no longer exist in shard memory.
func (d *indexDurable) flushStart(ix *Index) int64 {
	fs := segsEnd(*d.segs.Load())
	if b := ix.base.Load(); b > fs {
		fs = b
	}
	return fs
}

// manifest is the index's committed state as it stands. Every commit starts
// from it and overrides only what it changes. Caller holds the exclusive gate.
func (d *indexDurable) manifest(ix *Index) durable.Manifest {
	return durable.Manifest{
		Shards:         len(ix.shards),
		WALSeq:         d.walSeq,
		SegmentSeq:     d.segSeq,
		Segments:       *d.segs.Load(),
		BaseSeq:        d.baseSeq,
		ReplOffset:     d.replOff.Load(),
		RetentionFloor: ix.retFloor.Load(),
		Paths:          d.paths(),
	}
}

// commit is the writer half of the no-refcount reader protocol. It commits m
// (the crash-atomic point), then, under every shard write lock, runs step
// (the in-memory change m records: an eviction, a new base or floor; nil for
// none) and installs m's segment list. A reader holding every shard read lock
// (searchShards' read view) therefore sees the state before the commit or
// after it, never part of each. Caller holds the exclusive gate.
func (d *indexDurable) commit(ix *Index, m durable.Manifest, step func()) error {
	if err := durable.CommitManifest(d.dir, m); err != nil {
		return err
	}
	for _, sh := range ix.shards {
		sh.mu.Lock()
	}
	if step != nil {
		step()
	}
	d.segs.Store(&m.Segments)
	for i := len(ix.shards) - 1; i >= 0; i-- {
		ix.shards[i].mu.Unlock()
	}
	return nil
}

// encodePool recycles WAL payload scratch buffers across appends.
var encodePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16*1024)
	return &b
}}

// journalApply journals one record and — when apply is non-nil — reserves
// `reserve` global ids and applies the batch to shard storage, all inside
// the append mutex. Holding the mutex across both steps makes in-memory
// placement order identical to WAL record order even under concurrent
// writers, which is what lets replay reproduce the original placement and
// lets a paths record name rows by a global-id horizon. The caller holds
// gate.RLock.
//
// owned declares that payload's buffer belongs to this call: when the
// replication tail is armed, an owned payload is handed to the buffer
// without copying (the caller must not reuse it afterward), while an
// unowned one — a pooled scratch the caller will recycle — is cloned.
// Callers with pooled buffers avoid the clone by checking tail.wants first
// and withholding the buffer from the pool (see AddEvents).
func (ix *Index) journalApply(t durable.RecordType, payload []byte, owned bool, reserve int, apply func(start int)) error {
	d := ix.dur
	d.appendMu.Lock()
	startT := time.Now()
	n, err := d.wal.Append(t, payload)
	appendDone := time.Now()
	if err != nil {
		d.appendMu.Unlock()
		return err
	}
	if apply != nil {
		start := int(ix.rr.Add(uint64(reserve)) - uint64(reserve))
		apply(start)
	}
	// The record's replication sequence is assigned inside appendMu, so
	// sequence order == WAL order == placement order.
	seq := d.recSeq.Add(1) - 1
	if d.tail.wants() {
		if !owned {
			payload = bytes.Clone(payload)
		}
		d.tail.push(seq, t, payload)
	}
	d.appendMu.Unlock()
	d.dirty.Add(1)
	d.unsynced.Store(true)
	d.tm.appendNS.Observe(float64(appendDone.Sub(startT)))
	d.tm.appends.Inc()
	d.tm.walBytes.Add(uint64(n))
	if d.fsync == FsyncAlways {
		return d.syncWAL()
	}
	return nil
}

// syncWAL flushes the live WAL if anything was appended since the last
// flush. Safe against the snapshot's WAL swap: the handle is read under the
// append mutex and the superseded WAL is synced by its own Close.
func (d *indexDurable) syncWAL() error {
	if !d.unsynced.Swap(false) {
		return nil
	}
	d.appendMu.Lock()
	w := d.wal
	d.appendMu.Unlock()
	startT := time.Now()
	err := w.Sync()
	d.tm.fsyncNS.Observe(float64(time.Since(startT)))
	d.tm.fsyncs.Inc()
	if err == nil {
		d.lastFsync.Store(time.Now().UnixNano())
	}
	return err
}

// sliceRows adapts a pre-built row snapshot to durable.RowSource.
type sliceRows []durable.SegmentRow

func (r sliceRows) NumRows() int                 { return len(r) }
func (r sliceRows) Row(i int) durable.SegmentRow { return r[i] }

// flushRows snapshots rows [start, head) in global-id order for the segment
// writer, referencing the events in place: each shard's blocks are walked
// from its first row at or past start, and every row lands at its global id's
// position. No shard locks are taken: the caller holds the exclusive snapshot
// gate, which excludes every row mutator (adds, replays, path naming) —
// so head is the end of every shard — and concurrent searches only read.
func (ix *Index) flushRows(start, head int) durable.RowSource {
	S := len(ix.shards)
	base := int(ix.base.Load())
	out := make([]durable.SegmentRow, head-start)
	for s, sh := range ix.shards {
		first := int(firstLocalAfter(start-base-1, s, S))
		for b := first >> blockShift; b < len(sh.rows.blocks); b++ {
			blk := sh.rows.blocks[b]
			for j := max(first-b<<blockShift, 0); j < len(blk); j++ {
				out[base+(b<<blockShift+j)*S+s-start] = durable.SegmentRow{Event: &blk[j]}
			}
		}
	}
	return sliceRows(out)
}

// snapshot folds the live WAL into the leveled segment layout: it writes a
// new level-0 segment of every row past the flush start, commits a manifest
// appending it to the segment list, and supersedes the WAL. The sequence is
// crash-atomic at every step:
//
//  1. create the next WAL file (empty; an orphan from a previous crash is
//     truncated away),
//  2. write the new segment to a temporary file, fsync, rename into place,
//  3. commit the manifest naming (segment list, new WAL, path book) — the
//     atomic commit point: before this rename recovery uses the old state,
//     after it the new,
//  4. swap the live WAL handle, publish the new segment list, and delete the
//     superseded files.
//
// The flush also evicts: every shard's row storage is cleared in place and
// the index base advances to the head, so shard memory holds only rows newer
// than the last flush and resident memory does not grow with history. The
// eviction changes no visible data (the rows remain readable through the
// cold path), so the index epoch does not move.
//
// Searches proceed concurrently until the final publication (the writer
// takes shard write locks only for the eviction and the list swap, in
// commit); writers wait on the gate, which also guarantees memory state ==
// WAL state.
func (d *indexDurable) snapshot(ix *Index, force bool) error {
	if d.dirty.Load() == 0 && !force {
		return nil
	}
	startT := time.Now()
	d.gate.Lock()
	defer d.gate.Unlock()
	newWALSeq := d.walSeq + 1
	newWALPath := filepath.Join(d.dir, durable.WALName(newWALSeq))
	os.Remove(newWALPath)
	newWAL, err := durable.OpenWAL(newWALPath)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	segs := *d.segs.Load()
	base := ix.base.Load()
	fs := d.flushStart(ix)
	head := int64(ix.rr.Load())
	newSegs := segs
	if head > fs {
		seq := d.segSeq
		info, err := durable.WriteSegment(filepath.Join(d.dir, durable.SegmentName(seq)), len(ix.shards),
			ix.flushRows(int(fs), int(head)))
		if err != nil {
			newWAL.Close()
			return err
		}
		// Claimed only after the write succeeded; a crash between here and the
		// manifest commit leaves an orphan file recovery's CleanOrphans removes.
		d.segSeq++
		meta := durable.SegmentMeta{
			Seq: seq, Level: 0,
			Rows: head - fs, StartRow: fs, EndRow: head,
			MinTime: info.MinTime, MaxTime: info.MaxTime,
			Bytes: info.Bytes,
		}
		newSegs = append(append([]durable.SegmentMeta(nil), segs...), meta)
	}
	// Under the exclusive gate no writer is mid-append, so recSeq is the exact
	// sequence of the flushed rows' last record + 1: the new (empty) WAL's
	// records will carry sequences from there, which BaseSeq records for
	// recovery and the replication tail reader.
	headSeq := d.recSeq.Load()
	m := d.manifest(ix)
	m.WALSeq, m.Segments, m.BaseSeq = newWALSeq, newSegs, headSeq
	err = d.commit(ix, m, func() {
		if head <= base {
			return
		}
		// Evict: the rows just flushed (and any older hot rows) are now
		// segment-backed; clear shard storage in place and advance the base.
		for _, sh := range ix.shards {
			sh.evictLocked()
		}
		ix.base.Store(head)
	})
	if err != nil {
		newWAL.Close()
		return err
	}
	d.appendMu.Lock()
	old := d.wal
	d.wal = newWAL
	d.appendMu.Unlock()
	d.walSeq = newWALSeq
	d.baseSeq = headSeq
	d.dirty.Store(0)
	d.lastSnap.Store(time.Now().UnixNano())
	if err := old.Close(); err != nil {
		return err
	}
	durable.CleanOrphans(d.dir, m)
	d.tm.snapshots.Inc()
	d.tm.snapshotNS.Observe(float64(time.Since(startT)))
	return nil
}

// close syncs and closes the index's WAL and drops its resident segment
// readers. Taken under the gate so no writer is mid-append.
func (d *indexDurable) close() error {
	d.gate.Lock()
	defer d.gate.Unlock()
	d.resident.clear()
	return d.wal.Close()
}

// indexDirName maps an index name to its directory: PathEscape keeps "/",
// ".", and ".." from ever reaching the filesystem as path structure.
func indexDirName(name string) string { return "ix-" + url.PathEscape(name) }

// removeIndexDir deletes a dropped index's on-disk state.
func removeIndexDir(dir string) error { return os.RemoveAll(dir) }

// indexDirToName inverts indexDirName.
func indexDirToName(dir string) (string, bool) {
	esc, ok := strings.CutPrefix(dir, "ix-")
	if !ok {
		return "", false
	}
	name, err := url.PathUnescape(esc)
	if err != nil {
		return "", false
	}
	return name, true
}

// newDurableIndex creates a fresh durable index: an empty directory with
// WAL sequence 0 and no manifest (the manifest appears with the first
// snapshot; recovery treats its absence as "replay wal-000000 from zero").
func (s *Store) newDurableIndex(name string) (*Index, error) {
	dir := filepath.Join(s.opts.dataDir, indexDirName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create index dir: %w", err)
	}
	w, err := durable.OpenWAL(filepath.Join(dir, durable.WALName(0)))
	if err != nil {
		return nil, err
	}
	ix := NewIndexWithShards(name, s.opts.shards)
	ix.dur = &indexDurable{
		dir: dir, fsync: s.opts.fsync, tm: s.dtm, wal: w,
		retention: s.opts.retention,
		tail:      newReplTail(s.opts.replTailBytes, &s.replArmed),
		resident:  residentSegments{budget: residentBudget},
	}
	empty := []durable.SegmentMeta{}
	ix.dur.segs.Store(&empty)
	return ix, nil
}

// recoverIndex rebuilds one index from its directory: manifest, then the
// segment list (every file stat-checked, none read), then the path book,
// then WAL replay on top, with torn tails truncated. Segment rows stay on
// disk: the memtable starts at the segment end and the cold read path serves
// everything below it. The row count afterwards satisfies the conservation
// invariant: rows == Σ segment rows + replayed WAL rows.
func (s *Store) recoverIndex(name, dir string) (*Index, error) {
	startT := time.Now()
	m, committed, err := durable.LoadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("store: recover %q: %w", name, err)
	}
	shards := s.opts.shards
	if committed {
		shards = m.Shards
	}
	ix := NewIndexWithShards(name, shards)
	d := &indexDurable{
		dir: dir, fsync: s.opts.fsync, tm: s.dtm,
		retention: s.opts.retention,
		tail:      newReplTail(s.opts.replTailBytes, &s.replArmed),
		resident:  residentSegments{budget: residentBudget},
	}
	// Attached before the WAL replays: a replayed paths record joins the book
	// through ix.dur. Single-threaded here, no WAL open yet.
	ix.dur = d
	empty := []durable.SegmentMeta{}
	d.segs.Store(&empty)
	if committed {
		d.walSeq, d.segSeq = m.WALSeq, m.SegmentSeq
		d.baseSeq = m.BaseSeq
		d.replOff.Store(m.ReplOffset)
		ix.retFloor.Store(m.RetentionFloor)
	}
	segs := append([]durable.SegmentMeta(nil), m.Segments...)
	for _, sm := range segs {
		// Every referenced file must exist NOW: a manifest naming a missing
		// segment is corruption recovery reports immediately, not on the first
		// cold query.
		if _, serr := os.Stat(filepath.Join(dir, durable.SegmentName(sm.Seq))); serr != nil {
			return nil, fmt.Errorf("store: recover %q: manifest references segment %d: %w", name, sm.Seq, serr)
		}
	}
	base := segsEnd(segs)
	ix.base.Store(base)
	ix.rr.Store(uint64(base))
	d.segs.Store(&segs)
	if len(m.Paths) > 0 {
		d.book.Store(&m.Paths)
	}
	walPath := filepath.Join(dir, durable.WALName(d.walSeq))
	replayedRows := 0
	stats, err := durable.ReplayWAL(walPath, func(t durable.RecordType, payload []byte) error {
		n, err := ix.applyWALRecord(t, payload)
		replayedRows += n
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store: recover %q: %w", name, err)
	}
	if stats.Torn {
		s.dtm.tornTails.Inc()
	}
	// Replayed records are un-snapshotted state: seed the dirty counter so
	// the next snapshot knows the live WAL still holds them (otherwise a
	// snapshot right after recovery would no-op and the WAL would grow
	// forever across restarts).
	d.dirty.Store(int64(stats.Records))
	// The head sequence is re-derived, not stored: the segments end at
	// BaseSeq and the live WAL carries exactly stats.Records records past it.
	// On a follower, the applied primary sequence is the head plus the
	// bootstrap offset — which is exactly the replication resume point, so a
	// cleanly restarted follower asks for frames from where it left off
	// instead of re-requesting the whole stream.
	d.recSeq.Store(d.baseSeq + int64(stats.Records))
	ix.replSeq.Store(d.replOff.Load() + d.recSeq.Load())
	s.dtm.replayedB.Add(uint64(stats.Records))
	s.dtm.replayedE.Add(uint64(replayedRows))
	// Orphan cleanup runs against the loaded manifest — the committed segment
	// list — never a reconstruction, so a multi-segment layout can never have
	// live files mistaken for orphans. (A compaction output claimed but not
	// committed before a crash is exactly what this removes.)
	durable.CleanOrphans(dir, m)
	w, err := durable.OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	d.wal = w
	s.dtm.recoveryNS.Observe(float64(time.Since(startT)))
	return ix, nil
}

// applyWALRecord replays one journal record, returning how many rows it
// added (zero for a paths record).
func (ix *Index) applyWALRecord(t durable.RecordType, payload []byte) (int, error) {
	switch t {
	case durable.RecordEvents:
		// A recycled batch, as on the live bulk path: a fresh one per record
		// would allocate the log's rows a second time over.
		bp, events, err := decodeEventBatch(payload)
		if err != nil {
			return 0, fmt.Errorf("store: replay events record: %w", err)
		}
		start := int(ix.rr.Add(uint64(len(events))) - uint64(len(events)))
		ix.addEventsAt(start, events)
		putEventBatch(bp, events)
		return len(events), nil
	case durable.RecordPaths:
		rec, err := ix.decodePaths(payload)
		if err != nil {
			return 0, err
		}
		ix.applyPaths(&rec)
		if ix.dur != nil {
			ix.dur.addToBook(rec)
		}
		return 0, nil
	case durable.RecordRetiredDocs, durable.RecordRetiredRewrite, durable.RecordRetiredRows:
		return 0, fmt.Errorf("store: wal record type %d: %w", t, ErrRetiredFormat)
	default:
		return 0, fmt.Errorf("store: unknown wal record type %d", t)
	}
}

// loadDataDir recovers every index directory under the store's data dir.
func (s *Store) loadDataDir() error {
	entries, err := os.ReadDir(s.opts.dataDir)
	if err != nil {
		return fmt.Errorf("store: read data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, ok := indexDirToName(e.Name())
		if !ok {
			continue
		}
		ix, err := s.recoverIndex(name, filepath.Join(s.opts.dataDir, e.Name()))
		if err != nil {
			return err
		}
		s.attachReadPath(ix)
		s.indices[name] = ix
		s.registerIndexGauge(name, ix)
	}
	return nil
}

// fsyncLoop flushes every durable index's WAL every fsyncPeriod.
func (s *Store) fsyncLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(fsyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			for _, ix := range s.allIndices() {
				if ix.dur != nil {
					_ = ix.dur.syncWAL()
				}
			}
		}
	}
}

// snapshotLoop periodically snapshots every durable index that journaled
// anything since its last snapshot, then runs one maintenance pass
// (compaction + retention) over the resulting segment layout.
func (s *Store) snapshotLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(s.opts.snapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			_ = s.Snapshot()
			_ = s.maintain()
		}
	}
}

// Snapshot writes a segment snapshot for every durable index with journaled
// writes since its last snapshot, truncating their WALs. On an in-memory
// store it is a no-op. The first error is returned; remaining indices are
// still attempted.
func (s *Store) Snapshot() error {
	var first error
	for _, ix := range s.allIndices() {
		if ix.dur == nil {
			continue
		}
		if err := ix.dur.snapshot(ix, false); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the background fsync/snapshot loops and syncs and closes
// every WAL. The store must not be used after Close. In-memory stores
// close trivially.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.stopCh != nil {
		close(s.stopCh)
	}
	s.loopWG.Wait()
	var first error
	for _, ix := range s.allIndices() {
		if ix.dur == nil {
			continue
		}
		if err := ix.dur.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// allIndices snapshots the index set under the store lock.
func (s *Store) allIndices() []*Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Index, 0, len(s.indices))
	for _, ix := range s.indices {
		out = append(out, ix)
	}
	return out
}

// residentBytes reports the decoded cold segment bytes kept resident across
// durable indices (the dio_store_segments_resident_bytes gauge).
func (s *Store) residentBytes() float64 {
	var n int64
	for _, ix := range s.allIndices() {
		if ix.dur != nil {
			n += ix.dur.resident.size()
		}
	}
	return float64(n)
}

// segmentCount reports the total committed segments across durable indices
// (the dio_store_segments gauge).
func (s *Store) segmentCount() float64 {
	n := 0
	for _, ix := range s.allIndices() {
		if ix.dur != nil {
			n += len(*ix.dur.segs.Load())
		}
	}
	return float64(n)
}
