GO ?= go

.PHONY: tier1 build test race vet bench bench-smoke bench-read bench-diagnose bench-pair chaos chaos-repl chaos-cluster crash lint loc examples diagnose fuzz

## tier1: the PR gate — vet, build (examples included), the dead-symbol
## lint, tests, the race detector over the concurrency-heavy packages (store
## sharding, tracer drain workers), the chaos suite (fault injection on the
## ship path), the replication chaos suite (partitions, duplicated and
## reordered frames, failover), the crash-recovery matrix (durability kill
## points), the diagnosis-engine smoke run, and smoke runs of the ingest,
## dashboard-read and diagnosis benchmarks.
tier1: vet build examples lint test race chaos chaos-repl chaos-cluster crash diagnose bench-smoke bench-read bench-diagnose

build:
	$(GO) build ./...

## examples: compile the runnable examples (not covered by ./... test runs).
examples:
	$(GO) build ./examples/...

## lint: gofmt must list no file (outside the benchmark's .bench_build/);
## then dead-symbol analysis — unexported package-level declarations that
## nothing in their package references (the class of bug behind the dead
## openSyscalls dictionary in correlate.go), plus an audit of every serving
## package under internal/ for exported symbols nothing uses.
lint:
	@unformatted=$$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./internal/tools/deadsym -exported internal/store,internal/durable,internal/repl,internal/cluster,internal/diagnose,internal/core,internal/resilience,internal/telemetry,internal/event,internal/ebpf,internal/viz,internal/metrics,internal/clock,internal/replay,internal/experiments .

## loc: Go lines per package, non-test and test, excluding benchmark/ — the
## size table a simplicity PR reports before and after.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -exec wc -l {} + | awk '$$2 != "total" { \
		f = $$2; sub(/^\.\//, "", f); d = f; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		if (f ~ /_test\.go$$/) t[d] += $$1; else n[d] += $$1; p[d] = 1 } \
		END { for (d in p) printf "%-28s %8d %8d\n", d, n[d], t[d] }' | sort | \
		awk 'BEGIN { printf "%-28s %8s %8s\n", "package", "non-test", "test" } \
		{ print; n += $$2; t += $$3 } END { printf "%-28s %8d %8d\n", "all", n, t }'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## bench: the paper-evaluation and ablation benchmarks.
bench:
	$(GO) test -run xxx -bench . -benchmem .

## bench-smoke: a fast (100-iteration) run of the ingest benchmarks so the
## data-plane and WAL-overhead numbers cannot silently rot, then one pass of
## the million-event ingest + recovery benchmark: 100 batches end near 50 k
## rows, too few for the cost of growing row storage to show. Its
## live-B/event is the live heap the reopened store holds per event, the
## in-tree twin of the end-to-end heap_bytes_per_event.
bench-smoke:
	$(GO) test -run xxx -bench IngestWALOverhead -benchtime=100x -benchmem .
	$(GO) test -run xxx -bench IngestAtScale -benchtime=1x .

## bench-read: a fast smoke run of the dashboard read-path benchmark
## (the query cache vs the uncached ablation, and the Flushed arm: the
## cached store made durable with its preload snapshotted, so a query the
## cache misses counts the preload on a resident cold segment beside the
## rows ingested during the run, from the rows' dictionary codes in both, and
## its readers that miss together wait for one decode of the segment;
## cache-hits/op is the share of queries the cache answered) and the tiered
## segment-pruning benchmark (time-range planner vs the same predicate
## spelled so the planner extracts no bounds, over many narrow segments for
## the header prune and over one wide segment for the block selection: only
## the 512-row blocks whose zone map meets the window decode), and
## the two edge encoders of a 2 000-hit page (JSON documents vs the typed hit
## body, with allocation counts), then the cold window query with and
## without the resident segment set (BenchmarkColdWindow: FirstOpen reads,
## verifies and decodes a whole segment per query — the price of each
## segment's first read, codes included — Resident searches decoded shards
## and decodes nothing), and the terms aggregation per matched row
## (BenchmarkTermsAgg: terms(syscall) over a 1 500-row window of 6 000 rows
## counts codes into an array; terms(session) over a 10-row window of a
## 5 000-session shard counts them into a map, so a selective query pays for
## its rows and not the dictionary), so the p50/p99, pruning-speedup,
## per-page, per-cold-query and per-matched-row cost numbers cannot silently
## rot.
bench-read:
	$(GO) test -run xxx -bench 'DashboardReadPath|SegmentPrunedSearch|HitPage' -benchtime=50x -benchmem .
	$(GO) test -run xxx -bench 'ColdWindow|TermsAgg' -benchtime=50x -benchmem ./internal/store

## bench-diagnose: a fast smoke run of the bare walk, the DFG build and the
## full engine run over the same 120k-event session. All three are one
## cursor pass, so the three ns/op figures should sit within a small factor
## of each other; a wide gap means a detector has started re-reading the
## session. EachRow's ns/row is the walk alone, DFGBuild less EachRow the
## DFG builder's share and EngineRun less DFGBuild the detectors'. The engine run also
## has 30k and 480k arms, and its ns/event must stay flat across the three:
## a pass is linear in the session, and a page that pays for the rows before
## it (a sorted cursor re-testing the whole session) grows it with the
## session length. Its sessions=S arms (2 at 120k; 8 and 32 at 30k) trace
## S-1 more sessions on the same clock, and every one of them must stay
## within 1.3x the ns/event of events=30k: a page walks its session's term
## run, which the first pass builds from the session's rows alone, and a page
## that walked every session's rows, or a first pass that read every row of
## the index, grows it with S. Its shards=N arms (1, 4, 16) hold a 60k-event
## session on N lock stripes, and the bar is: ns/event at 16 shards within
## 1.3x of 1 shard, B/op within 5 % across the three, and the 1-shard arm no
## slower than before the merge pulled pages from the stripes' walks. A page
## pulls its rows through one merge over the stripes' walks; a page that had
## every stripe walk and allocate a page of its own grows both with N. Every
## arm collects the fixture's garbage before its timer starts. Its
## backend=client arm walks a 60k-event session through a store.Client over
## an httptest server: each page is a typed search answer, decoded and
## packed into the walk's page shard, so it prices the remote walk beside
## the in-process one; it has no bar yet. Then one
## correlation pass over that session on a durable store, with the rows resident and
## with them flushed to a cold segment first (the flushed arm prices the
## pass's cold count): wal-B/row is what the pass journaled per row it named,
## a fraction of a byte while it journals its tag→path pairs and not the rows.
bench-diagnose:
	$(GO) test -run xxx -bench 'EachRow|DFGBuild|EngineRun|CorrelateJournal' -benchtime=3x .

## bench-pair: the protocol behind every performance sentence in CHANGES.md —
## the end-to-end benchmark on BASE and on the working tree in PAIRS
## alternating pairs, printing per metric both medians, the base's IQR,
## "change-better k/n" and the verdict against the BENCHMARK.json bound
## (non-zero exit past a bound). WORKLOAD=all runs the four workloads.
WORKLOAD ?= all
BASE ?= HEAD~1
PAIRS ?= 10
bench-pair:
	$(GO) run ./scripts/benchpair -workload $(WORKLOAD) -base $(BASE) -pairs $(PAIRS)

## diagnose: end-to-end smoke of the diagnosis engine through the real CLI —
## the buggy Fluent Bit session must produce a critical report, and the
## buggy-vs-fixed diff must land on an improvement verdict.
diagnose:
	$(GO) run ./cmd/dio diagnose -workload fluentbit-buggy | grep critical >/dev/null
	$(GO) run ./cmd/dio diff buggy fixed | grep improvement >/dev/null

## fuzz: run every Fuzz* target under internal/ for FUZZTIME (10s) each. Go
## fuzzes one target per invocation, so each runs alone as
## go test -run=^$ -fuzz=^Name$; the first failure stops the run. Not part
## of tier1: it is a time budget, not a gate.
FUZZTIME ?= 10s
fuzz:
	@for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$t ./$$(dirname $$f)"; \
			$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) ./$$(dirname $$f) || exit 1; \
		done; \
	done

## chaos: the fault-injection suite — the ladder and its one rule for what
## counts against a target (TargetFault), shipper (its final flush spending
## one ladder on a dead target included), breaker, spill, the fault model in
## process and on the wire, and the tracer-level exact-accounting tests (the
## ledger closing on a default tracer against every ship failure included),
## raced and repeated.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Shipper|Breaker|Faulty|Spill|Ladder|TargetFault|LedgerCloses|ShipErrors|ErrorList' ./internal/resilience/ ./internal/core/

## chaos-repl: the replication fault harness — partitioned, delayed,
## duplicated, and reordered frames, follower crash mid-replay, primary
## kill mid-ingest with follower promotion, graceful-stop resume, a caller's
## cancellation ending the push ladder, a hung primary failing over, and the
## fault handler (resilience.FaultHandler) failing the /_repl pushes — raced
## and repeated.
chaos-repl:
	$(GO) test -race -count=2 -run 'TestRepl|TestFollower|TestFailover|TestPartition|TestDelayed|TestPrimaryKill|TestGraceful|TestRetryAfter|TestSync|TestChaosRepl|TestHealth|FuzzWALReplay' ./internal/repl/ ./internal/store/ ./internal/durable/

## chaos-cluster: the partitioned-coordinator fault harness — the 1-node vs
## 4-node differential fingerprint (byte-identical search/count/agg/cursor
## responses), node loss mid-scatter with breaker trip and half-open
## recovery, striped-bulk partial failure and counter reseed, cursor resume
## across coordinator restarts and across a partition's primary failover,
## the correlation differential (harvest over the merged view, one paths
## record broadcast: result, rows and _diagnose equal one node's at P = 1, 2
## and 4, and a partial broadcast fails naming its partition), and the HTTP
## transparency suite (raw response-body comparison against a bare node) —
## raced and repeated.
chaos-cluster:
	$(GO) test -race -count=2 ./internal/cluster/

## crash: the durability crash matrix — torn WAL tails, mid-snapshot kills,
## superseded-log resurrection, frame-journal round-trips, correlation killed
## before its paths record reached the log and after it but before a manifest
## carried it, paths recovered from the manifest's book, a pass that counts
## flushed rows cold (equal to an in-memory control, in process and over
## HTTP), and the segment matrix (torn segment writes,
## compaction killed before the manifest commit, manifests referencing
## missing segments, multi-segment follower bootstrap) — each recovery
## compared field-for-field against a never-crashed control — plus the typed
## rejection of every retired on-disk form (a manifest entry counting a
## segment's generic rows refused by LoadManifest, a columnar version-2
## segment refused by number at the first read of it, the file left as it
## was), and counts
## read while an index's first snapshot evicts its rows
## (TestDurableCountDuringFirstEviction: every count must see one cut, never
## the moved rows twice or not at all), and a correlation pass adding paths
## to the shards' file_path dictionaries while two cursors page the session
## (TestCorrelateInternsWhileSearching: a hit reads no name or its final
## one, and the store ends equal to an in-memory control), and cold window
## searches and sorted walks while snapshots, compactions and retention
## sweeps run (TestResidentSegmentsUnderMaintenance: every answer the
## oracle's, and the resident set only what the manifest lists), under -race.
crash:
	$(GO) test -race -run 'TestCrash|TestDurable|TestFrameJournal|TestRecovery|TestRetired|TestWAL|TestSegment|TestManifest|TestCorrelateInternsWhileSearching|TestResidentSegmentsUnderMaintenance' ./internal/store/ ./internal/durable/
