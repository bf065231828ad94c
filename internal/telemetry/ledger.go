package telemetry

// Canonical metric names for the tracing pipeline. The five stages record
// under these names so the conservation ledger can be computed from any
// snapshot without knowing which component produced it. Names follow the
// Prometheus convention: `dio_<stage>_<what>_<unit>`.
const (
	// internal/ebpf — kernel-side program and per-CPU rings.
	MetricCaptured     = "dio_ebpf_captured_total"      // events accepted by kernel-side filters
	MetricFiltered     = "dio_ebpf_filtered_total"      // events rejected in kernel space
	MetricRingProduced = "dio_ebpf_ring_produced_total" // records written to a ring
	MetricRingDropped  = "dio_ebpf_ring_dropped_total"  // records lost to full rings
	MetricRingPending  = "dio_ebpf_ring_pending"        // records currently queued in rings

	// internal/core — user-space drain workers.
	MetricParsed       = "dio_core_parsed_total"       // records decoded
	MetricParseErrors  = "dio_core_parse_errors_total" // corrupt records dropped
	MetricShipped      = "dio_core_shipped_total"      // events acked synchronously by the backend
	MetricShipErrors   = "dio_core_ship_errors_total"  // batches the ship path dropped at once
	MetricFlushes      = "dio_core_flushes_total"      // bulk requests issued
	MetricBatchPending = "dio_core_batch_pending"      // events drained but not yet flushed
	MetricDrainNS      = "dio_core_drain_ns"           // one drain cycle (rings -> batch)
	MetricParseNS      = "dio_core_parse_batch_ns"     // decoding one raw read batch
	MetricFlushNS      = "dio_core_flush_ns"           // one bulk ship call
	MetricFlushWindow  = "dio_core_flush_window_ns"    // windowed flush latency (self-dashboard)

	// internal/resilience — retry / breaker / spill ladder.
	MetricShipAttempts  = "dio_resilience_attempts_total"      // delivery attempts, first tries included
	MetricRetries       = "dio_resilience_retries_total"       // attempts beyond each batch's first
	MetricBackoffNS     = "dio_resilience_backoff_ns"          // backoff delays slept
	MetricRequeued      = "dio_resilience_requeued_total"      // events parked in the spill queue
	MetricReplayed      = "dio_resilience_replayed_total"      // spilled events later delivered
	MetricSpillDropped  = "dio_resilience_spill_dropped_total" // events dropped with accounting
	MetricSpillPending  = "dio_resilience_spill_pending"       // events currently parked
	MetricBreakerOpens  = "dio_resilience_breaker_opens_total" // breaker trips
	MetricBreakerCloses = "dio_resilience_breaker_closes_total"
	MetricBreakerState  = "dio_resilience_breaker_state" // 0 closed, 1 open, 2 half-open

	// internal/store — backend indexing and query path.
	MetricBulkNS         = "dio_store_bulk_ns"   // one bulk indexing call
	MetricSearchNS       = "dio_store_search_ns" // one search
	MetricCountNS        = "dio_store_count_ns"  // one count
	MetricUpdateNS       = "dio_store_update_by_query_ns"
	MetricBulkDocs       = "dio_store_bulk_docs_total"
	MetricSearches       = "dio_store_searches_total"
	MetricDocs           = "dio_store_docs"            // live docs per index (gauge, labeled)
	MetricShardImbalance = "dio_store_shard_imbalance" // max/mean shard doc count across indices

	// internal/store — read-path acceleration (the query cache).
	MetricQueryCacheHits      = "dio_store_query_cache_hits_total"      // searches answered from cache
	MetricQueryCacheMisses    = "dio_store_query_cache_misses_total"    // searches that ran and were cached
	MetricQueryCacheEvictions = "dio_store_query_cache_evictions_total" // entries dropped (LRU or stale)
	MetricQueryCacheEntries   = "dio_store_query_cache_entries"         // live cache entries (gauge)
	MetricRollupAggHits       = "dio_store_rollup_agg_hits_total"       // retired: the store keeps no rollup; the name stays for scrapers
	MetricRollupAggMisses     = "dio_store_rollup_agg_misses_total"     // retired: the store keeps no rollup; the name stays for scrapers
	MetricRollupRebuilds      = "dio_store_rollup_rebuilds_total"       // retired: the store keeps no rollup; the name stays for scrapers

	// internal/store + internal/durable — the durability layer. The
	// recovery counters close their own conservation invariant: after
	// recovery, an index's live doc count equals the committed segment's
	// rows plus the rows of every replayed WAL batch (paths records name
	// rows in place and add none).
	MetricWALAppendNS      = "dio_wal_append_ns"                    // one WAL record append
	MetricWALFsyncNS       = "dio_wal_fsync_ns"                     // one WAL fsync
	MetricWALAppends       = "dio_wal_appends_total"                // WAL records appended
	MetricWALBytes         = "dio_wal_bytes_total"                  // WAL bytes appended
	MetricWALFsyncs        = "dio_wal_fsyncs_total"                 // WAL fsyncs issued
	MetricSegments         = "dio_store_segments"                   // live committed segments (gauge)
	MetricSegmentsOpened   = "dio_store_segments_opened_total"      // cold segments opened by time-bounded queries
	MetricSegmentsVerified = "dio_store_segments_verified_total"    // cold segment files read and checksummed (resident-set misses)
	MetricSegmentsResident = "dio_store_segments_resident_bytes"    // decoded cold segments held for reuse (gauge)
	MetricSegmentsPruned   = "dio_store_segments_pruned_total"      // cold segments skipped by time-range pruning
	MetricSegRowsDecoded   = "dio_store_segment_rows_decoded_total" // rows decoded and kept: a whole segment at a resident fill, a window per over-budget query
	MetricSegRowsSkipped   = "dio_store_segment_rows_skipped_total" // rows of over-budget segments a window ruled out: by a block's zone map, or decoded and outside it
	MetricCompactions      = "dio_store_compactions_total"          // segment merges committed
	MetricRetentionDrops   = "dio_store_retention_drops_total"      // segments dropped past the retention horizon
	MetricSnapshots        = "dio_store_snapshots_total"            // segment snapshots committed
	MetricSnapshotNS       = "dio_store_snapshot_ns"                // one segment snapshot
	MetricRecoveryNS       = "dio_store_recovery_ns"                // one index recovery
	MetricReplayedBatches  = "dio_store_replayed_batches_total"
	MetricReplayedEvents   = "dio_store_replayed_events_total"
	MetricWALTornTails     = "dio_store_wal_torn_tails_total"

	// internal/store + internal/repl — primary/follower replication.
	MetricReplRole         = "dio_repl_role"                  // 0 primary, 1 follower
	MetricReplShippedRecs  = "dio_repl_shipped_records_total" // WAL records pushed to followers
	MetricReplShippedBytes = "dio_repl_shipped_bytes_total"   // payload and bootstrap segment image bytes pushed to followers
	MetricReplPushes       = "dio_repl_pushes_total"          // Apply and Bootstrap calls that succeeded (resync probes excluded)
	MetricReplPushRetries  = "dio_repl_push_retries_total"    // push attempts beyond each call's first
	MetricReplPushNS       = "dio_repl_push_ns"               // one push call (ship + follower apply)
	MetricReplBootstraps   = "dio_repl_bootstraps_total"      // full-state bootstraps shipped
	MetricReplLag          = "dio_repl_lag_records"           // primary head - follower acked, summed
	MetricReplAppliedRecs  = "dio_repl_applied_records_total" // frames applied on this follower
	MetricReplApplyNS      = "dio_repl_apply_ns"              // one follower frame-batch apply
	MetricReplSeqRejects   = "dio_repl_seq_rejects_total"     // out-of-sequence pushes rejected

	// internal/store/correlate.go — the correlation algorithm.
	MetricCorrelateRuns       = "dio_correlate_runs_total"
	MetricCorrelateNS         = "dio_correlate_ns"
	MetricCorrelateTags       = "dio_correlate_tags_resolved_total"
	MetricCorrelateUpdated    = "dio_correlate_events_updated_total"
	MetricCorrelateUnresolved = "dio_correlate_events_unresolved_total"
)

// Ledger is the pipeline's conservation accounting, computed from a
// snapshot. At quiescence (after Tracer.Stop) it must close exactly:
//
//	Captured == Shipped + RingDropped + SpillDropped + ParseErrors
//
// Live, events in flight sit in the Pending terms (ring queues, drained
// batches, spill queue), so Balanced() checks the ledger with Pending
// included; once the pipeline drains, Pending is zero and the closed-form
// invariant of DESIGN.md §8 holds.
type Ledger struct {
	Captured     uint64 `json:"captured"`
	Shipped      uint64 `json:"shipped"` // synchronous acks + replays
	RingDropped  uint64 `json:"ring_dropped"`
	SpillDropped uint64 `json:"spill_dropped"`
	ParseErrors  uint64 `json:"parse_errors"`
	// Pending is the in-flight population: ring queues + drained-not-flushed
	// batches + the spill queue.
	Pending uint64 `json:"pending"`
}

// LedgerFromSnapshot derives the conservation ledger from a snapshot's
// canonical counters and gauges.
func LedgerFromSnapshot(s Snapshot) Ledger {
	g := func(name string) uint64 {
		v := s.Gauges[name]
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	return Ledger{
		Captured:     s.Counters[MetricCaptured],
		Shipped:      s.Counters[MetricShipped] + s.Counters[MetricReplayed],
		RingDropped:  s.Counters[MetricRingDropped],
		SpillDropped: s.Counters[MetricSpillDropped],
		ParseErrors:  s.Counters[MetricParseErrors],
		Pending:      g(MetricRingPending) + g(MetricBatchPending) + g(MetricSpillPending),
	}
}

// Accounted is the sum of the right-hand side: every event the pipeline can
// name a fate for.
func (l Ledger) Accounted() uint64 {
	return l.Shipped + l.RingDropped + l.SpillDropped + l.ParseErrors + l.Pending
}

// Balanced reports whether the ledger closes. Exact at quiescence; live
// snapshots may transiently disagree by events between two counter updates
// (an event popped from a ring but not yet counted as parsed).
func (l Ledger) Balanced() bool { return l.Accounted() == l.Captured }

// Outstanding returns Captured - Accounted (0 when balanced or ahead).
func (l Ledger) Outstanding() int64 {
	return int64(l.Captured) - int64(l.Accounted())
}
