package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Store is the top-level document store: a set of named indices, one per
// tracing session by convention (the tracer labels each execution with a
// unique session name, §II-F). Constructed with WithDataDir it is durable:
// writes journal to per-index write-ahead logs, background snapshots fold
// the log into segments, and Open recovers the whole state after a
// crash.
type Store struct {
	mu      sync.RWMutex
	indices map[string]*Index
	tm      storeTelemetry

	opts   storeOptions
	dtm    *durTelemetry // nil-safe instruments; non-nil iff durable
	stopCh chan struct{}
	loopWG sync.WaitGroup
	closed atomic.Bool

	// maintMu serializes segment maintenance (compaction + retention) passes:
	// the exported Compact and the background snapshot loop must not overlap,
	// or retention could delete files a concurrent merge reads lock-free.
	maintMu sync.Mutex

	// Replication role: a follower rejects direct writes (they arrive through
	// ReplApply instead) until Promote flips it back to primary. replArmed
	// makes each snapshot keep the WAL it retires (ArmReplication).
	role      atomic.Int32
	replArmed atomic.Bool

	replHealthMu sync.Mutex
	replHealth   []func() ReplHealth
}

// storeTelemetry holds the backend stage's instruments: bulk/search/count
// latency histograms, throughput counters, and the correlation metrics
// recorded by Store.Correlate. All entries live in one registry the server
// exposes on GET /metrics.
type storeTelemetry struct {
	reg       *telemetry.Registry
	bulkNS    *telemetry.Histogram
	searchNS  *telemetry.Histogram
	countNS   *telemetry.Histogram
	updateNS  *telemetry.Histogram
	bulkDocs  *telemetry.Counter
	searches  *telemetry.Counter
	corrRuns  *telemetry.Counter
	corrNS    *telemetry.Histogram
	corrTags  *telemetry.Counter
	corrUpd   *telemetry.Counter
	corrUnres *telemetry.Counter

	// Read-path accounting: the query cache and the cold tier, shared by
	// every index the store owns.
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	cacheEvicts *telemetry.Counter
	rtm         readTelemetry

	// Follower-side replication accounting (ReplApply).
	replApplied *telemetry.Counter
	replApplyNS *telemetry.Histogram
	replRejects *telemetry.Counter
}

// Open builds a store from functional options. Without WithDataDir it is
// purely in-memory and never fails; with it, existing indices are recovered
// (segment load, then WAL replay) before Open returns, and the background
// fsync and snapshot loops start. Durable stores must be Closed.
func Open(opts ...Option) (*Store, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	s := &Store{indices: make(map[string]*Index), opts: o}
	reg := telemetry.NewRegistry()
	s.tm = storeTelemetry{
		reg:       reg,
		bulkNS:    reg.Histogram(telemetry.MetricBulkNS, "one bulk indexing call", nil),
		searchNS:  reg.Histogram(telemetry.MetricSearchNS, "one search", nil),
		countNS:   reg.Histogram(telemetry.MetricCountNS, "one count", nil),
		updateNS:  reg.Histogram(telemetry.MetricUpdateNS, "one path-naming pass (correlation step 3)", nil),
		bulkDocs:  reg.Counter(telemetry.MetricBulkDocs, "documents indexed through Bulk"),
		searches:  reg.Counter(telemetry.MetricSearches, "searches served"),
		corrRuns:  reg.Counter(telemetry.MetricCorrelateRuns, "correlation passes run"),
		corrNS:    reg.Histogram(telemetry.MetricCorrelateNS, "one full correlation pass", nil),
		corrTags:  reg.Counter(telemetry.MetricCorrelateTags, "file tags resolved to paths"),
		corrUpd:   reg.Counter(telemetry.MetricCorrelateUpdated, "events whose file_path was filled in"),
		corrUnres: reg.Counter(telemetry.MetricCorrelateUnresolved, "tagged events left without a path"),
		cacheHits: reg.Counter(telemetry.MetricQueryCacheHits, "searches answered from the query cache"),
		cacheMisses: reg.Counter(telemetry.MetricQueryCacheMisses,
			"searches that ran and populated the query cache"),
		cacheEvicts: reg.Counter(telemetry.MetricQueryCacheEvictions,
			"query cache entries dropped (LRU or stale epoch)"),
		replApplied: reg.Counter(telemetry.MetricReplAppliedRecs, "replication records applied on this follower"),
		replApplyNS: reg.Histogram(telemetry.MetricReplApplyNS, "one replication frame apply", nil),
		replRejects: reg.Counter(telemetry.MetricReplSeqRejects, "out-of-sequence replication pushes rejected"),
		rtm: readTelemetry{
			segOpened:   reg.Counter(telemetry.MetricSegmentsOpened, "cold segments opened by time-bounded queries"),
			segPruned:   reg.Counter(telemetry.MetricSegmentsPruned, "cold segments skipped by time-range pruning"),
			segVerified: reg.Counter(telemetry.MetricSegmentsVerified, "cold segment files read and checksummed: opens the resident set could not serve"),
			rowsDecoded: reg.Counter(telemetry.MetricSegRowsDecoded, "rows decoded and kept from cold segments: whole at a resident fill, the window of one over the budget per query"),
			rowsSkipped: reg.Counter(telemetry.MetricSegRowsSkipped, "rows of over-budget segments a query ruled out: in a block whose zone map misses the window, or decoded and outside it"),
		},
	}
	reg.GaugeFunc(telemetry.MetricQueryCacheEntries, "live query cache entries across indices",
		s.queryCacheEntries)
	// Shard imbalance is a pull gauge: max/mean shard doc count across all
	// indices (1.0 = perfectly balanced; the round-robin writer should keep
	// it there). Evaluated only at snapshot time.
	reg.GaugeFunc(telemetry.MetricShardImbalance, "max/mean shard doc count across indices",
		s.shardImbalance)
	reg.GaugeFunc(telemetry.MetricReplRole, "replication role (0 primary, 1 follower)",
		func() float64 { return float64(s.role.Load()) })
	if o.dataDir == "" {
		return s, nil
	}
	s.dtm = newDurTelemetry(reg)
	reg.GaugeFunc(telemetry.MetricSegments, "live committed segments across durable indices",
		s.segmentCount)
	reg.GaugeFunc(telemetry.MetricSegmentsResident, "decoded cold segment bytes kept resident across durable indices",
		s.residentBytes)
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	if err := s.loadDataDir(); err != nil {
		return nil, err
	}
	s.stopCh = make(chan struct{})
	if o.fsync == FsyncInterval {
		s.loopWG.Add(1)
		go s.fsyncLoop()
	}
	if o.snapshotEvery > 0 {
		s.loopWG.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Telemetry returns the store's self-accounting registry, which the HTTP
// server exposes on GET /metrics.
func (s *Store) Telemetry() *telemetry.Registry { return s.tm.reg }

// observeNS times fn and records the elapsed nanoseconds in h.
func observeNS(h *telemetry.Histogram, fn func()) {
	start := time.Now()
	fn()
	h.Observe(float64(time.Since(start)))
}

// shardImbalance reports the worst max/mean shard doc-count ratio across
// indices (0 when the store is empty).
func (s *Store) shardImbalance() float64 {
	indices := s.allIndices()
	worst := 0.0
	for _, ix := range indices {
		counts := ix.ShardDocCounts()
		total, max := 0, 0
		for _, c := range counts {
			total += c
			if c > max {
				max = c
			}
		}
		if total == 0 {
			continue
		}
		mean := float64(total) / float64(len(counts))
		if r := float64(max) / mean; r > worst {
			worst = r
		}
	}
	return worst
}

// queryCacheEntries sums live cache entries across indices (the entries
// gauge; evaluated at snapshot time only).
func (s *Store) queryCacheEntries() float64 {
	n := 0
	for _, ix := range s.allIndices() {
		if ix.cache != nil {
			n += ix.cache.size()
		}
	}
	return float64(n)
}

// docsSeries names an index's doc-count gauge.
func docsSeries(name string) string { return telemetry.MetricDocs + `{index="` + name + `"}` }

// indexOrCreate returns the named index, creating it on first use (like
// Elasticsearch's dynamic index creation on first write). The common case —
// the index already exists — takes only the read lock, so concurrent bulk
// writers don't serialize on the store lock before even reaching the index.
// On a durable store, creation sets up the index's directory and WAL.
func (s *Store) indexOrCreate(name string) (*Index, error) {
	s.mu.RLock()
	ix, ok := s.indices[name]
	s.mu.RUnlock()
	if ok {
		return ix, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, ok = s.indices[name]
	if ok {
		return ix, nil
	}
	if s.opts.dataDir != "" {
		var err error
		ix, err = s.newDurableIndex(name)
		if err != nil {
			return nil, err
		}
	} else {
		ix = NewIndexWithShards(name, s.opts.shards)
	}
	s.register(name, ix)
	return ix, nil
}

// register makes a new, recovered or bootstrapped index the store's index
// name: it gets the shared read-path counters and, when enabled, a private
// query cache, joins the index set, and exposes its live doc count as a
// labeled pull gauge (DeleteIndex forgets the series, and with it the index
// the gauge captured). The caller holds the store lock or is still
// single-threaded setup.
func (s *Store) register(name string, ix *Index) {
	ix.rtm = s.tm.rtm
	if s.opts.cacheEntries > 0 {
		ix.cache = newQueryCache(s.opts.cacheEntries,
			s.tm.cacheHits, s.tm.cacheMisses, s.tm.cacheEvicts)
	}
	s.indices[name] = ix
	s.tm.reg.GaugeFunc(docsSeries(name), "live documents in the index",
		func() float64 { return float64(ix.Len()) })
}

// GetIndex returns the named index if it exists.
func (s *Store) GetIndex(name string) (*Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix, ok := s.indices[name]
	return ix, ok
}

// ErrIndexNotFound is the one failure the API answers with 404: the named
// index does not exist. A cluster coordinator reads it as "this partition
// owns no rows of the index yet"; every other failure must stay a failure.
var ErrIndexNotFound = errors.New("store: index not found")

// lookup is GetIndex with the typed error.
func (s *Store) lookup(name string) (*Index, error) {
	ix, ok := s.GetIndex(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	return ix, nil
}

// DeleteIndex removes the named index, including its on-disk state on a
// durable store and its doc-count series on /metrics. A follower refuses it
// like every other client write: its replica may only be dropped by its own
// bootstrap.
func (s *Store) DeleteIndex(_ context.Context, name string) error {
	if s.Role() == RoleFollower {
		return fmt.Errorf("delete index: %w", ErrReadOnlyFollower)
	}
	s.dropIndex(name)
	return nil
}

// dropIndex is DeleteIndex without the role check.
func (s *Store) dropIndex(name string) {
	s.mu.Lock()
	ix, ok := s.indices[name]
	delete(s.indices, name)
	if ok {
		s.tm.reg.Forget(docsSeries(name))
	}
	s.mu.Unlock()
	if ok && ix.dur != nil {
		_ = ix.dur.close()
		_ = removeIndexDir(ix.dur.dir)
	}
}

// ListIndices lists index names in sorted order.
func (s *Store) ListIndices(context.Context) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.indices))
	for n := range s.indices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// BulkEvents indexes events into the named index, creating it on first use
// (an empty batch creates an empty index). A single index lookup resolves
// the handle (read-locked fast path); the events then take only the
// per-shard index locks, and no Document is materialized anywhere between
// the wire and shard storage. On a durable store the batch is journaled, in
// the wire's own binary frame, before it is applied. The events slice is not
// retained.
func (s *Store) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	return s.bulk(ctx, index, len(events), func(ix *Index) error { return ix.AddEvents(events) })
}

// BulkFrame is BulkEvents for a batch that arrived as a wire frame, decoded
// into a pooled batch: the frame bytes are journaled verbatim instead of
// re-encoding the decoded events, so the HTTP ingest path pays for the codec
// once. frame is not kept. A frame that does not decode is a BadRequest.
func (s *Store) BulkFrame(ctx context.Context, index string, frame []byte) (int, error) {
	bp, events, err := decodeEventBatch(frame)
	if err != nil {
		return 0, BadRequest(fmt.Errorf("decode frame: %w", err))
	}
	n := len(events)
	err = s.bulk(ctx, index, n, func(ix *Index) error {
		_, err := ix.applyRecord(durable.RecordEvents, frame, events, false)
		return err
	})
	putEventBatch(bp, events)
	return n, err
}

// bulk runs one client write of n events through add: a follower refuses
// it, the index is created on first use, and the placement is timed.
func (s *Store) bulk(ctx context.Context, index string, n int, add func(*Index) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.Role() == RoleFollower {
		return ErrReadOnlyFollower
	}
	ix, err := s.indexOrCreate(index)
	if err != nil {
		return err
	}
	start := time.Now()
	err = add(ix)
	s.tm.bulkNS.Observe(float64(time.Since(start)))
	if err != nil {
		return err
	}
	s.tm.bulkDocs.Add(uint64(n))
	return nil
}

// IndexStats summarizes one index for the _stats API.
type IndexStats struct {
	Index  string `json:"index"`
	Docs   int    `json:"docs"`
	Shards int    `json:"shards"`
	// Rows is the number of rows ever placed — the next local row id this
	// node would assign, unshrunk by retention. A cluster coordinator seeds
	// its global row counter from the sum of its partitions' Rows, which
	// reproduces the next cluster-global id (WAL replay and follower
	// bootstrap both restore the counter, so the figure survives restarts
	// and failovers).
	Rows int64 `json:"rows"`
}

// Stats reports the named index's document and shard counts.
func (s *Store) Stats(_ context.Context, index string) (IndexStats, error) {
	ix, err := s.lookup(index)
	if err != nil {
		return IndexStats{}, err
	}
	return IndexStats{
		Index:  ix.Name(),
		Docs:   ix.Len(),
		Shards: ix.NumShards(),
		Rows:   int64(ix.rr.Load()),
	}, nil
}

// Search is SearchEvents rendered as documents. It is kept because
// benchmark/ still calls it.
func (s *Store) Search(ctx context.Context, index string, req SearchRequest) (SearchResponse, error) {
	res, err := s.SearchEvents(ctx, index, req)
	if err != nil {
		return SearchResponse{}, err
	}
	return res.Documents(), nil
}

// SearchEvents runs req against the named index. Cancelling ctx stops the
// shard fan-out between shards.
func (s *Store) SearchEvents(ctx context.Context, index string, req SearchRequest) (EventsResult, error) {
	ix, err := s.lookup(index)
	if err != nil {
		return EventsResult{}, err
	}
	start := time.Now()
	res, err := ix.cachedSearchEventsCtx(ctx, req)
	s.tm.searchNS.Observe(float64(time.Since(start)))
	if err != nil {
		return EventsResult{}, err
	}
	s.tm.searches.Inc()
	return res, nil
}

// Count counts documents matching q in the named index.
func (s *Store) Count(ctx context.Context, index string, q Query) (int, error) {
	ix, err := s.lookup(index)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	n, err := ix.countCtx(ctx, q)
	s.tm.countNS.Observe(float64(time.Since(start)))
	return n, err
}
