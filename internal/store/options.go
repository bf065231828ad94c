package store

import (
	"fmt"
	"time"
)

// FsyncPolicy selects when the write-ahead log is flushed to stable storage,
// trading ingest latency against the window of acknowledged-but-volatile
// events a crash can lose.
type FsyncPolicy int

const (
	// FsyncInterval (the default) flushes on a background timer every
	// fsyncPeriod: a crash loses at most the last period's events, and the
	// fsync cost is amortized across every batch in the window.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways flushes after every journaled batch before the write is
	// acknowledged: no acknowledged event is ever lost, at per-batch fsync
	// cost.
	FsyncAlways
	// FsyncOff never flushes explicitly; the OS writes back on its own
	// schedule. A crash can lose everything the kernel still buffered, but a
	// clean process exit loses nothing.
	FsyncOff
)

// fsyncPeriod is FsyncInterval's flush period.
const fsyncPeriod = 100 * time.Millisecond

// String returns the policy's flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	default:
		return FsyncInterval, fmt.Errorf("unknown fsync policy %q (want always, interval, or off)", s)
	}
}

// storeOptions is the resolved configuration a Store is built from.
type storeOptions struct {
	shards        int
	dataDir       string
	fsync         FsyncPolicy
	snapshotEvery time.Duration
	cacheEntries  int           // query cache capacity per index (0 disables)
	replTailBytes int           // per-index replication tail buffer budget
	retention     time.Duration // drop cold segments older than this (0 keeps all)
}

func defaultOptions() storeOptions {
	return storeOptions{
		fsync:         FsyncInterval,
		snapshotEvery: time.Minute,
		cacheEntries:  256,
		replTailBytes: 4 << 20,
	}
}

// Option configures a Store at construction.
type Option func(*storeOptions)

// WithShards fixes the shard count for indices this store creates (<= 0
// keeps the automatic GOMAXPROCS-derived default). Recovered indices keep
// the shard count recorded in their manifest.
func WithShards(n int) Option {
	return func(o *storeOptions) { o.shards = n }
}

// WithDataDir enables durability: every index journals writes to a
// write-ahead log and periodically snapshots to a columnar segment under
// dir, and Open recovers existing indices from it. The empty string (the
// default) keeps the store purely in-memory.
func WithDataDir(dir string) Option {
	return func(o *storeOptions) { o.dataDir = dir }
}

// WithFsyncPolicy selects the WAL flush policy (FsyncInterval by default).
// It has no effect without WithDataDir.
func WithFsyncPolicy(p FsyncPolicy) Option {
	return func(o *storeOptions) { o.fsync = p }
}

// WithSnapshotInterval sets the period of the background segment-snapshot
// loop (default 1m); 0 disables automatic snapshots, leaving them to
// explicit Snapshot calls. It has no effect without WithDataDir.
func WithSnapshotInterval(d time.Duration) Option {
	return func(o *storeOptions) { o.snapshotEvery = d }
}

// WithQueryCache sets the per-index query cache capacity in entries (default
// 256; <= 0 disables caching). Entries are invalidated by the index epoch,
// which every mutation bumps, so capacity only bounds memory — never
// staleness.
func WithQueryCache(entries int) Option {
	return func(o *storeOptions) {
		if entries < 0 {
			entries = 0
		}
		o.cacheEntries = entries
	}
}

// WithReplicationBuffer sets the per-index in-memory replication tail buffer
// budget in bytes (default 4MB). The buffer keeps recent WAL records
// available to the replication shipper across snapshots, so a follower lagging
// by less than the budget is never forced into a full bootstrap; larger
// budgets tolerate longer partitions at memory cost. Size it to at least one
// shipper poll interval of sustained ingest (bytes/s x interval): frames
// evicted before the shipper drains them are re-read from the WAL file —
// correct, but a re-read and CRC check of bytes that were just in memory.
// <= 0 disables the buffer — followers then resync from the live WAL file
// or bootstrap.
func WithReplicationBuffer(bytes int) Option {
	return func(o *storeOptions) {
		if bytes < 0 {
			bytes = 0
		}
		o.replTailBytes = bytes
	}
}

// WithRetention sets the drop horizon (0, the default, never drops). It has
// no effect without WithDataDir, and it does not choose the layout: every
// snapshot evicts the rows it flushed into immutable time-stamped segments
// either way. With d > 0 the maintenance pass drops whole segments once
// every row in them is older than d — queries, counts, aggregations and
// correlation then stop seeing those rows, and unsorted paging cursors
// positioned before a drop fail with ErrCursorExpired instead of silently
// skipping.
func WithRetention(d time.Duration) Option {
	return func(o *storeOptions) {
		if d < 0 {
			d = 0
		}
		o.retention = d
	}
}

// WithRollupInterval does nothing: the store keeps no ingest-time rollup.
// A terms count reads posting-list lengths or code columns, and a repeated
// request is answered by the query cache.
//
// Deprecated: it is kept only so existing callers compile; drop the option.
func WithRollupInterval(time.Duration) Option {
	return func(*storeOptions) {}
}
