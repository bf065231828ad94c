package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// Replication data plane (DESIGN.md §14). The primary's WAL is already a
// replication log: every journaled record gets a dense per-index sequence
// number, and this file exposes sequenced ranges of those records
// (ReplRange), full-state bootstraps for followers too far behind
// (ReplBootstrapFrames), and the follower-side apply/bootstrap entry points
// that replay frames through the exact journaling machinery live writes use —
// so a follower's WAL bytes are the primary's WAL suffix and its state is
// fingerprint-identical by construction. The shipper that moves frames
// between nodes lives in internal/repl (it composes this surface with the
// resilience ladder).

// Role is a store's replication role.
type Role int32

const (
	// RolePrimary accepts writes and ships its WAL to followers.
	RolePrimary Role = iota
	// RoleFollower rejects direct writes; state arrives through ReplApply.
	RoleFollower
)

// String returns the role's wire spelling.
func (r Role) String() string {
	if r == RoleFollower {
		return "follower"
	}
	return "primary"
}

var (
	// ErrReadOnlyFollower rejects direct writes on a follower: they must go
	// to the primary, which replicates them back. Non-temporary, so the
	// resilience ladder fails fast instead of retrying into a wall.
	ErrReadOnlyFollower = errors.New("store: follower is read-only; write to the primary")
	// ErrNotFollower rejects replication pushes on a store that is not a
	// follower (split-brain guard: a primary never silently accepts frames).
	ErrNotFollower = errors.New("store: not a follower")
)

// ReplSeqError reports an out-of-sequence replication push: the follower has
// applied Want frames and the primary offered frames starting at Got. The
// shipper answers by resyncing from the follower's reported position, not by
// retrying the same push.
type ReplSeqError struct {
	Want int64 // next sequence the follower will accept
	Got  int64 // sequence the push started at
}

// Error implements error.
func (e *ReplSeqError) Error() string {
	return fmt.Sprintf("store: replication sequence mismatch: follower at %d, push starts at %d", e.Want, e.Got)
}

// Temporary marks the mismatch non-retryable: retrying the identical push
// can never succeed — the shipper must resync first.
func (e *ReplSeqError) Temporary() bool { return false }

// ReplFrame is one replicated WAL record: its primary-assigned sequence, the
// record type, and the verbatim WAL payload. JSON encoding base64s the
// payload, which keeps the HTTP transport trivial; the in-process transport
// passes frames by value.
type ReplFrame struct {
	Seq     int64              `json:"seq"`
	Type    durable.RecordType `json:"type"`
	Payload []byte             `json:"payload"`
	// StartRow is the global row id of the frame's first row, stamped on
	// bootstrap frames (whose rows are gid-contiguous within a frame). A
	// follower rebuilding a tiered primary needs it to place cold rows at
	// their original ids; live replication frames carry 0 and ignore it.
	StartRow int64 `json:"start_row,omitempty"`
}

// ReplSnapshot is a full-state bootstrap package: the primary sequence the
// snapshot corresponds to, the tiered-layout split point (Base: rows below it
// ship from cold segments and must land in a follower segment, rows at or
// above it are the primary's memtable), the retention floor (so cursor-expiry
// semantics survive failover), and the row frames themselves. A snapshot of
// a primary that never flushed has Base 0: every frame is a memtable frame.
type ReplSnapshot struct {
	Seq    int64       `json:"seq"`
	Base   int64       `json:"base,omitempty"`
	Floor  int64       `json:"floor,omitempty"`
	Frames []ReplFrame `json:"frames"`
}

// ReplCursor remembers where in the primary's live WAL file the previous
// ReplRange stopped, so steady-state tailing is an incremental file read
// instead of a scan from the base. It is only a hint: a cursor invalidated by
// a snapshot (WALSeq moved on) is ignored and the scan restarts from the
// base offset.
type ReplCursor struct {
	WALSeq int   `json:"wal_seq"`
	Off    int64 `json:"off"`
	Seq    int64 `json:"seq"`
	Valid  bool  `json:"valid"`
}

// replTail is the in-memory buffer of recent WAL records the shipper reads
// from in steady state. It survives snapshots — the live WAL file is
// truncated when a segment folds it in, but buffered frames remain — so a
// follower lagging by less than the byte budget never needs a bootstrap.
// Frames are appended under the index's appendMu (so buffer order == WAL
// order) and evicted oldest-first once the budget is exceeded. push takes
// ownership of the payload it is given; journalApply arranges ownership —
// transferring the caller's encode buffer outright when it can, cloning
// only for callers that must keep theirs — so the armed ingest path pays
// one buffer allocation per record, not a copy.
type replTail struct {
	armed *atomic.Bool // store-wide arming flag, shared by pointer
	max   int

	mu     sync.Mutex
	frames []ReplFrame
	bytes  int
	start  int // frames[start:] are live; amortizes front eviction
}

func newReplTail(max int, armed *atomic.Bool) *replTail {
	return &replTail{armed: armed, max: max}
}

// wants reports whether the buffer is armed and budgeted — i.e. whether a
// push would retain the payload. Callers check it to decide between
// transferring their buffer and recycling it.
func (t *replTail) wants() bool {
	return t != nil && t.max > 0 && t.armed.Load()
}

// push buffers one record, taking ownership of payload. Callers must have
// checked wants() and must not reuse the buffer afterward.
func (t *replTail) push(seq int64, rt durable.RecordType, payload []byte) {
	if !t.wants() {
		return
	}
	t.mu.Lock()
	t.frames = append(t.frames, ReplFrame{Seq: seq, Type: rt, Payload: payload})
	t.bytes += len(payload)
	for t.bytes > t.max && t.start < len(t.frames)-1 {
		t.bytes -= len(t.frames[t.start].Payload)
		t.frames[t.start].Payload = nil
		t.start++
	}
	if t.start > 64 && t.start > len(t.frames)/2 {
		t.frames = append(t.frames[:0:0], t.frames[t.start:]...)
		t.start = 0
	}
	t.mu.Unlock()
}

// slice returns buffered frames from sequence from onward, bounded by the
// frame and byte budgets. ok is false when the buffer cannot serve from —
// either it is empty or its oldest retained frame is already past from — in
// which case the caller falls back to the WAL file or a bootstrap.
func (t *replTail) slice(from int64, maxFrames, maxBytes int) ([]ReplFrame, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.frames[t.start:]
	if len(live) == 0 || live[0].Seq > from || live[len(live)-1].Seq < from {
		return nil, false
	}
	i := int(from - live[0].Seq) // sequences are dense, so this is an index
	out := make([]ReplFrame, 0, min(len(live)-i, maxFrames))
	b := 0
	for ; i < len(live) && len(out) < maxFrames && b <= maxBytes; i++ {
		out = append(out, live[i])
		b += len(live[i].Payload)
	}
	return out, true
}

// Role returns the store's replication role.
func (s *Store) Role() Role { return Role(s.role.Load()) }

// SetFollower puts the store in follower mode: direct writes are rejected
// and ReplApply/ReplBootstrap are accepted.
func (s *Store) SetFollower() { s.role.Store(int32(RoleFollower)) }

// Promote flips a follower to primary: it keeps everything it has applied,
// starts accepting writes, and stops accepting replication pushes. Promoting
// a primary is a no-op. Promotion is local and immediate — fencing the old
// primary (if it is merely partitioned, not dead) is the operator's or the
// failover client's concern.
func (s *Store) Promote() { s.role.Store(int32(RolePrimary)) }

// ArmReplication turns on the per-index replication tail buffers. The
// shipper arms the store it serves; unarmed stores skip the buffer copy on
// the ingest hot path entirely, so replication costs nothing until enabled.
func (s *Store) ArmReplication() { s.replArmed.Store(true) }

// ReplHeadSeq returns the named index's head sequence: the number of records
// ever journaled (and therefore the sequence the next record will get).
func (s *Store) ReplHeadSeq(index string) (int64, bool) {
	ix, ok := s.GetIndex(index)
	if !ok || ix.dur == nil {
		return 0, false
	}
	return ix.dur.recSeq.Load(), true
}

// ReplState is the wire shape of GET /_repl/status: the node's role and its
// per-index sequence positions — head sequences on a primary, applied
// primary sequences on a follower. The shipper resyncs from these after a
// sequence mismatch or reconnect.
type ReplState struct {
	Role    string           `json:"role"`
	Indices map[string]int64 `json:"indices"`
}

// ReplStatus reports the store's replication position.
func (s *Store) ReplStatus() ReplState {
	st := ReplState{Role: s.Role().String(), Indices: map[string]int64{}}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, ix := range s.indices {
		if s.Role() == RoleFollower {
			st.Indices[name] = ix.replSeq.Load()
		} else if ix.dur != nil {
			st.Indices[name] = ix.dur.recSeq.Load()
		}
	}
	return st
}

// replRangeBudget are the default ReplRange bounds when the caller passes
// non-positive budgets.
const (
	defaultReplFrames = 256
	defaultReplBytes  = 4 << 20
)

// ReplRange returns WAL frames of the named index starting at sequence from,
// bounded by maxFrames/maxBytes (budgets are soft by up to one read chunk;
// non-positive selects defaults). head is the index's current head sequence.
// bootstrap reports that from is no longer retrievable — older than both the
// tail buffer and the live WAL file — so the follower must take a full
// bootstrap instead. cur, when non-nil, carries the file cursor between
// calls so steady-state tailing reads incrementally.
//
// Only durable indices replicate: the WAL is the replication log, so an
// in-memory primary has nothing to ship.
func (s *Store) ReplRange(index string, from int64, cur *ReplCursor, maxFrames, maxBytes int) (frames []ReplFrame, head int64, bootstrap bool, err error) {
	ix, err := s.lookup(index)
	if err != nil {
		return nil, 0, false, fmt.Errorf("store: repl range: %w", err)
	}
	d := ix.dur
	if d == nil {
		return nil, 0, false, fmt.Errorf("store: repl range: index %q is not durable", index)
	}
	if maxFrames <= 0 {
		maxFrames = defaultReplFrames
	}
	if maxBytes <= 0 {
		maxBytes = defaultReplBytes
	}
	// The shared gate (read side) pins baseSeq and the live WAL file against
	// a concurrent snapshot for the duration of the scan; writers are not
	// excluded — the tail reader only consumes complete records.
	d.gate.RLock()
	defer d.gate.RUnlock()
	head = d.recSeq.Load()
	switch {
	case from > head:
		// The follower claims more records than this primary ever journaled:
		// divergent histories (e.g. it followed a different promoted node).
		// Only a bootstrap reconciles that.
		return nil, head, true, nil
	case from == head:
		return nil, head, false, nil
	}
	if fr, ok := d.tail.slice(from, maxFrames, maxBytes); ok {
		if cur != nil {
			cur.Valid = false
		}
		return fr, head, false, nil
	}
	if from < d.baseSeq {
		// Folded into the segment and evicted from the buffer: not
		// reconstructible as WAL records anymore.
		return nil, head, true, nil
	}
	// Live WAL file scan: records [baseSeq, head) live in wal-<walSeq>. The
	// cursor skips the prefix already consumed on earlier calls when it still
	// points into this WAL generation.
	seq, off := d.baseSeq, int64(0)
	if cur != nil && cur.Valid && cur.WALSeq == d.walSeq && cur.Seq >= d.baseSeq && cur.Seq <= from {
		seq, off = cur.Seq, cur.Off
	}
	path := filepath.Join(d.dir, durable.WALName(d.walSeq))
	gotBytes := 0
	for len(frames) < maxFrames && gotBytes <= maxBytes && seq < head {
		recs, next, rerr := durable.ReadWALTail(path, off, maxFrames, maxBytes)
		if rerr != nil {
			return nil, head, false, rerr
		}
		if len(recs) == 0 {
			// The remaining records are a concurrent append still in flight;
			// serve what we have, the follower will ask again.
			break
		}
		for _, r := range recs {
			if seq >= from && seq < head {
				frames = append(frames, ReplFrame{Seq: seq, Type: r.Type, Payload: r.Payload})
				gotBytes += len(r.Payload)
			}
			seq++
		}
		off = next
	}
	if cur != nil {
		*cur = ReplCursor{WALSeq: d.walSeq, Off: off, Seq: seq, Valid: true}
	}
	return frames, head, false, nil
}

// ReplBootstrapFrames packages the named index's entire current state for a
// follower bootstrap: cold segment rows first (streamed from the committed
// files and named from the path book, so the follower needs no book), then
// the memtable, all in global-id order, batched batchRows at a time as
// RecordEvents frames — the exact representation ReplApply journals. Every frame is stamped with its first
// row's global id and frames are gid-contiguous internally (batches cut at
// retention gaps and at the cold/hot boundary), so a durable follower can
// place cold rows at their original ids. Taken under the exclusive gate, so
// the state is a consistent cut and no concurrent commit can delete a
// segment file mid-stream.
func (s *Store) ReplBootstrapFrames(index string, batchRows int) (ReplSnapshot, error) {
	ix, err := s.lookup(index)
	if err != nil {
		return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: %w", err)
	}
	d := ix.dur
	if d == nil {
		return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: index %q is not durable", index)
	}
	if batchRows <= 0 {
		batchRows = 1024
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	snap := ReplSnapshot{
		Seq:   d.recSeq.Load(),
		Base:  ix.base.Load(),
		Floor: ix.retFloor.Load(),
	}
	book := d.paths()
	var (
		batch      []event.Event
		batchStart int64
	)
	flush := func() {
		if len(batch) > 0 {
			snap.Frames = append(snap.Frames, ReplFrame{
				Type: durable.RecordEvents, StartRow: batchStart,
				Payload: event.EncodeBatch(nil, batch),
			})
			batch = batch[:0]
		}
	}
	add := func(gid int64, ev *event.Event) {
		if gid != batchStart+int64(len(batch)) || len(batch) >= batchRows {
			flush()
		}
		if len(batch) == 0 {
			batchStart = gid
		}
		batch = append(batch, *ev)
	}
	for _, sm := range *d.segs.Load() {
		if sm.EndRow > snap.Base {
			continue
		}
		_, err := durable.ReadSegment(filepath.Join(d.dir, durable.SegmentName(sm.Seq)),
			func(lg int, ev *event.Event, _ []byte) error {
				gid := sm.StartRow + int64(lg)
				add(gid, ev)
				resolveFromBook(book, int(gid), &batch[len(batch)-1])
				return nil
			})
		if err != nil {
			return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: %w", err)
		}
	}
	// The cold/hot boundary must also be a frame boundary, so the follower
	// can route each frame whole.
	flush()
	S := len(ix.shards)
	head := int64(ix.rr.Load())
	// Memtable reads take no shard locks: the exclusive gate excludes every
	// row mutator, and concurrent searches only read.
	for g := snap.Base; g < head; g++ {
		mg := int(g - snap.Base)
		add(g, ix.shards[mg%S].rows.at(mg/S))
	}
	flush()
	return snap, nil
}

// ReplApply applies replicated frames to the named index on a follower. from
// must equal the follower's applied sequence (returned on mismatch inside
// *ReplSeqError so the shipper can resync), and frames must be consecutive
// from there. Each frame journals through the same machinery as a live
// write — payload verbatim — so a durable follower's WAL is byte-identical
// to the primary's suffix and recovery/fingerprint guarantees carry over
// unchanged. Returns the new applied sequence.
func (s *Store) ReplApply(ctx context.Context, index string, from int64, frames []ReplFrame) (int64, error) {
	if s.Role() != RoleFollower {
		return 0, ErrNotFollower
	}
	ix, err := s.indexOrCreate(index)
	if err != nil {
		return 0, err
	}
	ix.replMu.Lock()
	defer ix.replMu.Unlock()
	applied := ix.replSeq.Load()
	if from != applied {
		s.tm.replRejects.Inc()
		return applied, &ReplSeqError{Want: applied, Got: from}
	}
	start := time.Now()
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return ix.replSeq.Load(), err
		}
		f := &frames[i]
		if f.Seq != applied+int64(i) {
			s.tm.replRejects.Inc()
			return ix.replSeq.Load(), &ReplSeqError{Want: applied + int64(i), Got: f.Seq}
		}
		if err := ix.applyReplFrame(f); err != nil {
			return ix.replSeq.Load(), err
		}
		ix.replSeq.Add(1)
		s.tm.replApplied.Inc()
	}
	if len(frames) > 0 {
		s.tm.replApplyNS.Observe(float64(time.Since(start).Nanoseconds()) / float64(len(frames)))
	}
	return ix.replSeq.Load(), nil
}

// applyReplFrame applies one replicated record. On a durable follower the
// payload journals verbatim through journalApply (the same appendMu-guarded
// append + placement live writes use); an in-memory follower applies it
// straight to shard storage through the recovery path.
func (ix *Index) applyReplFrame(f *ReplFrame) error {
	if ix.dur == nil {
		_, err := ix.applyWALRecord(f.Type, f.Payload)
		return err
	}
	switch f.Type {
	case durable.RecordEvents:
		events, err := event.DecodeBatch(f.Payload, nil)
		if err != nil {
			return fmt.Errorf("store: repl apply events: %w", err)
		}
		ix.dur.gate.RLock()
		defer ix.dur.gate.RUnlock()
		return ix.journalApply(durable.RecordEvents, f.Payload, true, len(events), func(start int) {
			ix.addEventsAt(start, events)
		})
	case durable.RecordPaths:
		// The record re-encodes to the payload it was decoded from, so the
		// follower's WAL stays the primary's suffix.
		rec, err := ix.decodePaths(f.Payload)
		if err != nil {
			return err
		}
		_, err = ix.namePaths(context.TODO(), &rec, true) // a replicated record never scans
		return err
	default:
		return fmt.Errorf("store: repl apply: unknown record type %d", f.Type)
	}
}

// bootSource adapts decoded bootstrap rows to durable.WriteSegment, keeping
// each row's original (absolute) global id so a tiered follower's cold
// segment maps gids identically to the primary's.
type bootSource struct {
	rows []durable.SegmentRow
	gids []int
}

func (b *bootSource) NumRows() int                 { return len(b.rows) }
func (b *bootSource) Row(i int) durable.SegmentRow { return b.rows[i] }
func (b *bootSource) Gid(i int) int                { return b.gids[i] }

// ReplBootstrap replaces the named index's state wholesale with a primary
// state snapshot: the existing index (if any) is dropped, cold frames (rows
// below snap.Base, present once the primary has flushed) rebuild
// as a single level-0 segment committed before any journaling, hot frames
// apply as fresh journal records, and the follower's sequence aligns to
// snap.Seq — the primary head the snapshot corresponds to. On a durable
// follower the alignment offset persists via a forced segment snapshot, so
// a restart resumes from snap.Seq rather than re-bootstrapping.
func (s *Store) ReplBootstrap(ctx context.Context, index string, snap ReplSnapshot) error {
	if s.Role() != RoleFollower {
		return ErrNotFollower
	}
	s.dropIndex(index)
	ix, err := s.indexOrCreate(index)
	if err != nil {
		return err
	}
	ix.replMu.Lock()
	defer ix.replMu.Unlock()
	cold := snap.Frames
	var hot []ReplFrame
	if snap.Base > 0 {
		for i := range snap.Frames {
			if snap.Frames[i].StartRow >= snap.Base {
				cold, hot = snap.Frames[:i], snap.Frames[i:]
				break
			}
		}
		if len(cold) == len(snap.Frames) {
			hot = nil
		}
		if err := ix.bootstrapColdSegment(ctx, snap, cold); err != nil {
			return err
		}
	} else {
		hot = snap.Frames
	}
	for i := range hot {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ix.applyReplFrame(&hot[i]); err != nil {
			return err
		}
	}
	if d := ix.dur; d != nil {
		d.replOff.Store(snap.Seq - d.recSeq.Load())
		if err := d.snapshot(ix, true); err != nil {
			return err
		}
	}
	ix.replSeq.Store(snap.Seq)
	return nil
}

// bootstrapColdSegment materializes a bootstrap's cold frames as one
// committed level-0 segment spanning rows [0, snap.Base) and publishes the
// tiered view (base, retention floor) before hot frames journal. Only a
// durable follower can hold cold rows; an in-memory follower has nowhere to
// put segment files.
func (ix *Index) bootstrapColdSegment(ctx context.Context, snap ReplSnapshot, cold []ReplFrame) error {
	d := ix.dur
	if d == nil {
		return fmt.Errorf("store: repl bootstrap: tiered snapshot (base=%d) requires a durable follower", snap.Base)
	}
	src := &bootSource{}
	for i := range cold {
		if err := ctx.Err(); err != nil {
			return err
		}
		f := &cold[i]
		if f.Type != durable.RecordEvents {
			return fmt.Errorf("store: repl bootstrap: cold frame type %d", f.Type)
		}
		events, err := event.DecodeBatch(f.Payload, nil)
		if err != nil {
			return fmt.Errorf("store: repl bootstrap cold events: %w", err)
		}
		for j := range events {
			src.rows = append(src.rows, durable.SegmentRow{Event: &events[j]})
			src.gids = append(src.gids, int(f.StartRow)+j)
		}
	}
	if int64(len(src.rows)) != snap.Base {
		return fmt.Errorf("store: repl bootstrap: cold rows %d != base %d", len(src.rows), snap.Base)
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	info, err := durable.WriteSegment(filepath.Join(d.dir, durable.SegmentName(0)), len(ix.shards), src)
	if err != nil {
		return err
	}
	segs := []durable.SegmentMeta{{
		Seq: 0, Level: 0,
		Rows: int64(len(src.rows)), StartRow: 0, EndRow: snap.Base,
		MinTime: info.MinTime, MaxTime: info.MaxTime,
		Bytes: info.Bytes,
	}}
	d.segSeq = 1
	m := d.manifest(ix)
	m.Segments, m.RetentionFloor = segs, snap.Floor
	return d.commit(ix, m, func() {
		ix.base.Store(snap.Base)
		ix.rr.Store(uint64(snap.Base))
		ix.retFloor.Store(snap.Floor)
	})
}
