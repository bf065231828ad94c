package store

import (
	"context"
	"time"
)

// HealthStatus is the enriched GET /_health body. The legacy fields —
// "status" and "indices" — keep their original shape and meaning, so old
// probes and breakers parse it unchanged; everything else is additive:
// replication role, per-index durability freshness (WAL size, fsync and
// snapshot ages), and per-target replication lag when this node ships to
// followers.
type HealthStatus struct {
	Status  string `json:"status"`
	Indices int    `json:"indices"`
	Role    string `json:"role"`
	Durable bool   `json:"durable"`
	// Index maps index name → durability/replication detail (durable stores
	// only; an in-memory store reports none).
	Index map[string]IndexHealth `json:"index,omitempty"`
	// Replication carries one entry per follower this node ships to.
	Replication []ReplHealth `json:"replication,omitempty"`
}

// IndexHealth is one index's durability and replication freshness.
type IndexHealth struct {
	Docs int `json:"docs"`
	// WALBytes is the live WAL's current size (headers included).
	WALBytes int64 `json:"wal_bytes"`
	// HeadSeq is the number of records ever journaled (the head sequence);
	// on a follower, the primary sequence it has applied.
	HeadSeq int64 `json:"head_seq"`
	// DirtyRecords counts journaled records not yet folded into a segment.
	DirtyRecords int64 `json:"dirty_records"`
	// FsyncAgeMS / SnapshotAgeMS are milliseconds since the last fsync /
	// committed snapshot; -1 means never (for fsync that is only alarming
	// when DirtyRecords is nonzero under an interval policy).
	FsyncAgeMS    int64 `json:"fsync_age_ms"`
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`
}

// ReplHealth is one replication target's shipping state, reported by the
// replicator that pushes to it.
type ReplHealth struct {
	Target string `json:"target"`
	// Lag is primary head minus follower acked, summed across indices.
	Lag int64 `json:"lag"`
	// LastSyncMS is milliseconds since the last fully-acked pass; -1 means no
	// pass has completed yet.
	LastSyncMS int64 `json:"last_sync_ms"`
	// Bootstraps counts full-state transfers shipped to this target.
	Bootstraps uint64 `json:"bootstraps"`
	// SeqRejects counts out-of-sequence pushes the target bounced (each one
	// triggers a resync).
	SeqRejects uint64 `json:"seq_rejects"`
}

// RegisterReplicaHealth adds a per-target replication health source to
// Health's report; the replicator shipping to each follower registers one.
func (s *Store) RegisterReplicaHealth(fn func() ReplHealth) {
	s.replHealthMu.Lock()
	s.replHealth = append(s.replHealth, fn)
	s.replHealthMu.Unlock()
}

// ageMS converts a unix-ns timestamp to "milliseconds ago" (-1 for never).
func ageMS(unixNS int64, now time.Time) int64 {
	if unixNS == 0 {
		return -1
	}
	ms := (now.UnixNano() - unixNS) / int64(time.Millisecond)
	if ms < 0 {
		ms = 0
	}
	return ms
}

// Health snapshots the store's operational state for GET /_health.
func (s *Store) Health(context.Context) HealthStatus {
	h := HealthStatus{
		Status:  "ok",
		Role:    s.Role().String(),
		Durable: s.opts.dataDir != "",
	}
	now := time.Now()
	s.mu.RLock()
	h.Indices = len(s.indices)
	for name, ix := range s.indices {
		d := ix.dur
		if d == nil {
			continue
		}
		ih := IndexHealth{
			Docs:          ix.Len(),
			HeadSeq:       d.recSeq.Load(),
			DirtyRecords:  d.dirty.Load(),
			FsyncAgeMS:    ageMS(d.lastFsync.Load(), now),
			SnapshotAgeMS: ageMS(d.lastSnap.Load(), now),
		}
		d.appendMu.Lock()
		w := d.wal
		d.appendMu.Unlock()
		if w != nil {
			ih.WALBytes = w.Size()
		}
		if h.Index == nil {
			h.Index = make(map[string]IndexHealth, len(s.indices))
		}
		h.Index[name] = ih
	}
	s.mu.RUnlock()
	s.replHealthMu.Lock()
	fns := append([]func() ReplHealth(nil), s.replHealth...)
	s.replHealthMu.Unlock()
	for _, fn := range fns {
		h.Replication = append(h.Replication, fn())
	}
	return h
}
