package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
)

// Replication data plane (DESIGN.md §14). The primary's WAL is already a
// replication log: every journaled record gets a dense per-index sequence
// number, and this file exposes sequenced ranges of those records
// (ReplRange), full-state bootstraps for followers too far behind
// (ReplBootstrapFrames), and the follower-side apply/bootstrap entry points
// that apply frames through Index.applyRecord, the one path every journal
// record takes — so a follower's WAL bytes are the primary's WAL suffix and
// its state is fingerprint-identical by construction. The shipper that
// moves frames between nodes lives in internal/repl (it composes this
// surface with the resilience ladder).

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
}

// ReplSnapshot is a full-state bootstrap package, the primary's files: the
// head sequence it corresponds to, the index's manifest, each listed
// segment's file image (in the manifest's order), and the live WAL's
// records as frames, Manifest.BaseSeq through Seq-1.
type ReplSnapshot struct {
	Seq      int64            `json:"seq"`
	Manifest durable.Manifest `json:"manifest"`
	Images   [][]byte         `json:"images,omitempty"`
	Frames   []ReplFrame      `json:"frames"`
}

// ReplCursor remembers where in which of the primary's WAL files the
// previous ReplRange stopped, so steady-state tailing is an incremental file
// read instead of a scan from the file's first record. It is only a hint: a
// cursor into another file than the one a call reads (a snapshot moved the
// WAL on, or the call crossed from the retired WAL into the live one) is
// ignored and the scan restarts from that file's first record.
type ReplCursor struct {
	WALSeq int   `json:"wal_seq"`
	Off    int64 `json:"off"`
	Seq    int64 `json:"seq"`
	Valid  bool  `json:"valid"`
}

// Role returns the store's replication role.
func (s *Store) Role() Role { return Role(s.role.Load()) }

// SetFollower puts the store in follower mode: direct writes are rejected
// and ReplApply/ReplBootstrap are accepted. A follower is durable: it
// journals every frame it applies, so its applied sequence is its WAL head,
// and a bootstrap carries segment files. A store without a data dir refuses
// and stays primary.
func (s *Store) SetFollower() error {
	if s.opts.dataDir == "" {
		return errors.New("store: a follower needs a data dir: it journals the frames it applies")
	}
	s.role.Store(int32(RoleFollower))
	return nil
}

// Promote flips a follower to primary: it keeps everything it has applied,
// starts accepting writes, and stops accepting replication pushes. Promoting
// a primary is a no-op. Promotion is local and immediate — fencing the old
// primary (if it is merely partitioned, not dead) is the operator's or the
// failover client's concern.
func (s *Store) Promote() { s.role.Store(int32(RolePrimary)) }

// ArmReplication makes every later snapshot keep the WAL it retires until
// the next snapshot, so ReplRange serves a follower lagging by less than one
// snapshot generation from WAL files instead of demanding a bootstrap. The
// shipper arms the store it serves; an unarmed store deletes a retired WAL
// at once. The write path is the same either way.
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

// ReplState is the wire shape of GET /_repl/status: the node's role and each
// durable index's head sequence — on a follower, the primary sequence it has
// applied, since it journals every frame. The shipper resyncs from these
// after a sequence mismatch or reconnect.
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
		if ix.dur != nil {
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
// non-positive selects defaults) and by the end of the one WAL file it reads:
// the retired WAL a replicating snapshot kept serves [retiredBase, baseSeq),
// the live WAL [baseSeq, head). head is the index's current head sequence.
// bootstrap reports that from is no longer retrievable — older than both
// files — so the follower must take a full bootstrap instead. cur, when
// non-nil, carries the file cursor between calls so steady-state tailing
// reads incrementally.
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
	// The shared gate (read side) pins baseSeq, retiredBase and both WAL
	// files against a concurrent snapshot for the duration of the scan;
	// writers are not excluded — the scan stops at head, so it never reads
	// past the records it knows are complete.
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
	walSeq, base, end := d.walSeq, d.baseSeq, head
	if from < d.baseSeq {
		if d.retiredBase < 0 || from < d.retiredBase {
			// Folded into a segment and its WAL deleted: not reconstructible as
			// WAL records anymore.
			return nil, head, true, nil
		}
		walSeq, base, end = d.walSeq-1, d.retiredBase, d.baseSeq
	}
	// Records [base, end) live in wal-<walSeq>. The cursor skips the prefix
	// already consumed on earlier calls when it still points into this file.
	seq, off := base, int64(0)
	if cur != nil && cur.Valid && cur.WALSeq == walSeq && cur.Seq >= base && cur.Seq <= from {
		seq, off = cur.Seq, cur.Off
	}
	path := filepath.Join(d.dir, durable.WALName(walSeq))
	gotBytes := 0
	for len(frames) < maxFrames && gotBytes <= maxBytes && seq < end {
		// Never read past end: records appended since head was loaded are
		// not counted in it, and a cursor past them would miss the next call.
		recs, next, rerr := durable.ReadWALTail(path, off, int(min(int64(maxFrames), end-seq)), maxBytes)
		if rerr != nil {
			return nil, head, false, rerr
		}
		if len(recs) == 0 {
			// A record below head is whole on disk before head counts it, so
			// only a damaged file stops here: serve what we have.
			break
		}
		for _, r := range recs {
			if seq >= from {
				frames = append(frames, ReplFrame{Seq: seq, Type: r.Type, Payload: r.Payload})
				gotBytes += len(r.Payload)
			}
			seq++
		}
		off = next
	}
	if cur != nil {
		*cur = ReplCursor{WALSeq: walSeq, Off: off, Seq: seq, Valid: true}
	}
	return frames, head, false, nil
}

// ReplBootstrapFrames packages the named index's current state for a
// follower bootstrap: its manifest, the bytes of every segment file it
// lists, and the live WAL's records with their sequences. Taken under the
// exclusive gate, so the state is a consistent cut, no append is in flight
// (the live WAL holds exactly the records from baseSeq to the head), and no
// concurrent commit can delete a segment file mid-read.
func (s *Store) ReplBootstrapFrames(index string) (ReplSnapshot, error) {
	ix, err := s.lookup(index)
	if err != nil {
		return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: %w", err)
	}
	d := ix.dur
	if d == nil {
		return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: index %q is not durable", index)
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	snap := ReplSnapshot{Seq: d.recSeq.Load(), Manifest: d.manifest(ix)}
	for _, sm := range snap.Manifest.Segments {
		img, err := os.ReadFile(filepath.Join(d.dir, durable.SegmentName(sm.Seq)))
		if err != nil {
			return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: %w", err)
		}
		snap.Images = append(snap.Images, img)
	}
	recs, _, err := durable.ReadWALTail(filepath.Join(d.dir, durable.WALName(d.walSeq)), 0, int(snap.Seq-d.baseSeq), math.MaxInt)
	if err != nil {
		return ReplSnapshot{}, fmt.Errorf("store: repl bootstrap: %w", err)
	}
	for i, r := range recs {
		snap.Frames = append(snap.Frames, ReplFrame{Seq: d.baseSeq + int64(i), Type: r.Type, Payload: r.Payload})
	}
	return snap, nil
}

// ReplApply applies replicated frames to the named index on a follower. from
// must equal the follower's applied sequence, its WAL head (returned on
// mismatch inside *ReplSeqError so the shipper can resync), and frames must
// be consecutive from there. Each frame takes applyRecord, the path a live
// write takes — payload journaled verbatim — so the follower's WAL is
// byte-identical to the primary's suffix and recovery/fingerprint guarantees
// carry over unchanged. A frame that does not decode is a BadRequest.
// Returns the new applied sequence.
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
	applied := &ix.dur.recSeq
	if at := applied.Load(); from != at {
		s.tm.replRejects.Inc()
		return at, &ReplSeqError{Want: at, Got: from}
	}
	start := time.Now()
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return applied.Load(), err
		}
		f := &frames[i]
		if at := applied.Load(); f.Seq != at {
			s.tm.replRejects.Inc()
			return at, &ReplSeqError{Want: at, Got: f.Seq}
		}
		if _, err := ix.applyRecord(f.Type, f.Payload, nil, false); err != nil {
			return applied.Load(), err
		}
		s.tm.replApplied.Inc()
	}
	if len(frames) > 0 {
		s.tm.replApplyNS.Observe(float64(time.Since(start).Nanoseconds()) / float64(len(frames)))
	}
	return applied.Load(), nil
}

// maxSnapshotShards bounds the shard count a bootstrap adopts from its
// primary's manifest: far past the 32 the store picks by default, and small
// enough that a hostile manifest cannot make recovery allocate without end.
const maxSnapshotShards = 1 << 10

// ReplBootstrap replaces the named index with a primary's snapshot, checked
// whole before the old index is dropped (one that can never apply is a bad
// request): restoreIndex, then the frames through applyRecord, so the
// follower numbers records as its primary does. A crash after the manifest
// commit leaves a prefix of the primary's log to stream on from; one before
// it, orphans recovery removes, and the follower bootstraps again from 0.
func (s *Store) ReplBootstrap(ctx context.Context, index string, snap ReplSnapshot) error {
	if s.Role() != RoleFollower {
		return ErrNotFollower
	}
	if err := s.checkSnapshot(snap); err != nil {
		return BadRequest(fmt.Errorf("store: repl bootstrap: %w", err))
	}
	s.dropIndex(index)
	ix, err := s.restoreIndex(index, snap)
	if err != nil {
		return err
	}
	ix.replMu.Lock()
	defer ix.replMu.Unlock()
	s.mu.Lock()
	s.register(index, ix)
	s.mu.Unlock()
	for _, f := range snap.Frames {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := ix.applyRecord(f.Type, f.Payload, nil, false); err != nil {
			return err
		}
	}
	return nil
}

// checkSnapshot refuses a snapshot this node cannot restore: a shard count
// recovery would not build (below 1, or past maxSnapshotShards), an image count other than the manifest's segment
// count, frames that do not run consecutively from the manifest's base
// sequence to Seq, or an image that fails its checks against its manifest
// entry.
func (s *Store) checkSnapshot(snap ReplSnapshot) error {
	m := snap.Manifest
	switch {
	case m.Shards < 1 || m.Shards > maxSnapshotShards:
		return fmt.Errorf("%d shards", m.Shards)
	case len(snap.Images) != len(m.Segments):
		return fmt.Errorf("%d segment images for %d manifest segments", len(snap.Images), len(m.Segments))
	case m.BaseSeq+int64(len(snap.Frames)) != snap.Seq:
		return fmt.Errorf("%d frames from sequence %d do not end at the snapshot's %d", len(snap.Frames), m.BaseSeq, snap.Seq)
	}
	for i, f := range snap.Frames {
		if f.Seq != m.BaseSeq+int64(i) {
			return fmt.Errorf("frame %d has sequence %d, want %d", i, f.Seq, m.BaseSeq+int64(i))
		}
	}
	for i, sm := range m.Segments {
		if err := durable.CheckSegmentImage(snap.Images[i], sm); err != nil {
			return err
		}
	}
	return nil
}
