package store

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// indexedFields are the keyword fields for which the index maintains posting
// lists, accelerating the term queries issued by the paper's dashboards
// (session, syscall, process/thread names).
var indexedFields = []string{"session", "syscall", "proc_name", "thread_name", "class"}

// Index stores the documents of one index, striped across shards so that
// writes contend on 1/N of the index and reads fan out across cores.
//
// Documents are assigned to shards round-robin in insertion order: the
// document with global id g lives in shard g%N at local position g/N. A
// single-writer workload therefore observes ids 0,1,2,… exactly as the
// unsharded implementation did, and unsorted searches return documents in
// insertion order.
type Index struct {
	name   string
	shards []*shard
	rr     atomic.Uint64 // round-robin write cursor
	dur    *indexDurable // nil on in-memory stores

	// epoch versions the index contents for the query cache: every mutation
	// bumps it at both its start and its end, so any cached response that
	// could observe the mutation's partial state carries a dead epoch.
	epoch atomic.Uint64
	// Tiered layout state. base is the first global id held in shard memory:
	// rows below it are cold (readable only through committed segment files,
	// populated when a snapshot evicts the rows it flushed), rows at or above
	// it live in shard g-base%N at local (g-base)/N. base only moves while the
	// snapshot gate and every shard write lock are held, so any reader that
	// holds one shard read lock sees a frozen base. coldRows counts the rows
	// in cold segments (recomputed at every segment-list publication);
	// retFloor is one past the highest row id retention ever dropped, the
	// expiry bound for unsorted paging cursors. All zero on in-memory indices
	// and durable ones that never flushed, making the hot path's arithmetic
	// unchanged.
	base     atomic.Int64
	coldRows atomic.Int64
	retFloor atomic.Int64

	rollupBase int64         // rollup histogram base interval ns (0 = disabled)
	cache      *queryCache   // nil = caching disabled
	rtm        readTelemetry // rollup counters (zero value = no-op)

	// Follower-side replication state: replMu serializes ReplApply so frames
	// land in primary order; replSeq is the primary sequence applied so far
	// (== dur.replOff + dur.recSeq on a durable follower).
	replMu  sync.Mutex
	replSeq atomic.Int64
}

// defaultShardCount picks the shard count for new indices: the power of two
// covering GOMAXPROCS, floored at 4 (so merge paths stay exercised on small
// machines) and capped at 32.
func defaultShardCount() int {
	n := 4
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n > 32 {
		n = 32
	}
	return n
}

// NewIndex creates an empty index with the default shard count.
func NewIndex(name string) *Index { return NewIndexWithShards(name, 0) }

// NewIndexWithShards creates an empty index with n shards (n <= 0 selects
// the default policy) and the default rollup interval.
func NewIndexWithShards(name string, n int) *Index {
	return newIndexSized(name, n, defaultRollupIntervalNS)
}

// newIndexSized is the full constructor: shard count plus the continuous
// rollup base interval (0 disables rollup maintenance).
func newIndexSized(name string, n int, rollupBase int64) *Index {
	if n <= 0 {
		n = defaultShardCount()
	}
	ix := &Index{name: name, shards: make([]*shard, n), rollupBase: rollupBase}
	for i := range ix.shards {
		ix.shards[i] = newShard(rollupBase)
	}
	return ix
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// NumShards returns the number of lock stripes.
func (ix *Index) NumShards() int { return len(ix.shards) }

// gid composes a global doc id from a shard index and local position (hot
// rows only: shard memory starts at the index base).
func (ix *Index) gid(shardIdx int, local int32) int {
	return int(ix.base.Load()) + int(local)*len(ix.shards) + shardIdx
}

// AddEvents indexes a batch of events, locking each shard once: each event
// is copied straight into its shard's row storage and keyword postings,
// placed round-robin by global id. On a durable index the batch journals
// first (a journaling error leaves the index unchanged), reusing the wire
// codec's binary frame from a pooled scratch buffer. The events slice is not
// retained; callers recycle their batch buffers.
func (ix *Index) AddEvents(events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	// Canonicalize before journaling or placement: Offset is meaningless
	// without HasOffset, and both the wire codec and the segment reader clear
	// it on decode. Clearing here keeps the live in-memory state identical to
	// its own durability round-trip.
	for i := range events {
		if !events[i].HasOffset {
			events[i].Offset = 0
		}
	}
	if ix.dur == nil {
		start := int(ix.rr.Add(uint64(len(events))) - uint64(len(events)))
		ix.addEventsAt(start, events)
		return nil
	}
	ix.dur.gate.RLock()
	defer ix.dur.gate.RUnlock()
	bp := encodePool.Get().(*[]byte)
	payload := event.EncodeBatch((*bp)[:0], events)
	// When replication is armed, hand the encode buffer to the tail instead
	// of recycling it — cheaper than cloning the payload under appendMu. The
	// pooled box is returned with a replacement buffer pre-sized to the
	// surrendered one, so the next encode grows from full capacity.
	owned := ix.dur.tail.wants()
	err := ix.journalApply(durable.RecordEvents, payload, owned, len(events), func(start int) {
		ix.addEventsAt(start, events)
	})
	if owned {
		*bp = make([]byte, 0, cap(payload))
	} else {
		*bp = payload[:0]
	}
	encodePool.Put(bp)
	return err
}

// addEventsFrame places an already-decoded batch whose wire frame is in
// hand: the frame bytes are journaled verbatim (they are exactly the WAL's
// RecordEvents payload format), skipping the re-encode AddEvents would pay.
// Decoded events are already canonical — the codec clears Offset when the
// HasOffset aux bit is unset — so no normalization pass is needed either.
// owned passes through to journalApply: true means the frame's buffer is
// surrendered to the replication tail and must not be reused by the caller.
func (ix *Index) addEventsFrame(frame []byte, owned bool, events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	if ix.dur == nil {
		start := int(ix.rr.Add(uint64(len(events))) - uint64(len(events)))
		ix.addEventsAt(start, events)
		return nil
	}
	ix.dur.gate.RLock()
	defer ix.dur.gate.RUnlock()
	return ix.journalApply(durable.RecordEvents, frame, owned, len(events), func(start int) {
		ix.addEventsAt(start, events)
	})
}

// addEventsAt places events at global ids start..start+len-1, walking each
// shard's arithmetic slice of the batch directly instead of building
// per-shard groups: one lock per shard, zero allocations. Placement is pure
// arithmetic on the global id, so WAL replay (which reserves the same id
// ranges in record order) reproduces it exactly. Shard memory starts at the
// index base, so placement works in memory ids (gid - base); base is stable
// here — every durable caller holds the snapshot gate shared, and eviction
// only moves base under the exclusive gate.
func (ix *Index) addEventsAt(start int, events []event.Event) {
	ix.epoch.Add(1)
	defer ix.epoch.Add(1)
	S := len(ix.shards)
	ms := start - int(ix.base.Load())
	for s := 0; s < S; s++ {
		first := ((s-ms)%S + S) % S
		if first >= len(events) {
			continue
		}
		sh := ix.shards[s]
		sh.mu.Lock()
		for i := first; i < len(events); i += S {
			sh.addEventLocked(&events[i])
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of documents: cold rows (segment-resident, below
// the base) plus everything in shard memory. Retention drops shrink it.
func (ix *Index) Len() int {
	n := int(ix.coldRows.Load())
	for _, sh := range ix.shards {
		n += sh.len()
	}
	return n
}

// ShardDocCounts returns the per-shard document counts, for the telemetry
// shard-imbalance gauge and the _stats API.
func (ix *Index) ShardDocCounts() []int {
	counts := make([]int, len(ix.shards))
	for i, sh := range ix.shards {
		counts[i] = sh.len()
	}
	return counts
}

// SearchRequest describes one search: a query, sorting, pagination, and
// aggregations over the matched set.
type SearchRequest struct {
	Query Query          `json:"query"`
	Sort  []SortField    `json:"sort,omitempty"`
	From  int            `json:"from,omitempty"`
	Size  int            `json:"size,omitempty"` // <=0 returns all hits
	Aggs  map[string]Agg `json:"aggs,omitempty"`
	// SearchAfter resumes a paged walk strictly after the row a previous
	// response's NextAfter named: one scalar per sort field, then the global
	// id tie-break. Requires From == 0. See cursor.go for the wire format.
	SearchAfter []any `json:"search_after,omitempty"`
}

// SortField orders results by a document field.
type SortField struct {
	Field string `json:"field"`
	Desc  bool   `json:"desc,omitempty"`
}

// SearchResponse is an EventsResult rendered for JSON: the /_search body, with
// each hit as its Document view.
type SearchResponse struct {
	Total int                  `json:"total"`
	Hits  []Document           `json:"hits"`
	Aggs  map[string]AggResult `json:"aggs,omitempty"`
	// NextAfter is the continuation token for the next page: present exactly
	// when the request was bounded (Size > 0) and this response filled it.
	NextAfter []any `json:"next_after,omitempty"`
}

// shardResult is one shard's contribution to a search: its match count,
// its (sorted, possibly truncated) hit candidates, and its aggregation
// partials, produced under the shard's read lock and merged lock-free.
type shardResult struct {
	total    int
	hits     []hitRef
	partials map[string]*AggPartial
}

// hitRef names a matched row for merge ordering without copying it: a pointer
// into row storage (a shard's, a transient cold segment's, or — at the
// cluster coordinator — a partition's decoded hits) and the global id used as
// the stable tie-break.
type hitRef struct {
	ev  *event.Event
	gid int
}

// EventsResult is the answer to a search: the matched count, the requested
// window of hits as events copied straight out of row storage, the finalized
// aggregations, and the continuation token. It is the only form a hit takes
// between the shard and whoever asked; a Document exists only where JSON is
// written (Documents).
type EventsResult struct {
	Total int                  `json:"total"`
	Hits  []event.Event        `json:"hits"`
	Aggs  map[string]AggResult `json:"aggs,omitempty"`
	// NextAfter is the continuation token for the next page (cursor.go):
	// present exactly when the request was bounded and this page filled it.
	NextAfter []any `json:"next_after,omitempty"`
}

// Search is SearchEvents rendered as documents.
func (ix *Index) Search(req SearchRequest) SearchResponse {
	return ix.SearchEvents(req).Documents()
}

// SearchEvents runs req against the index: every shard matches, pre-sorts, and
// pre-aggregates its stripe (in parallel when cores are available), then the
// per-shard results are merged — top-k merge for sorted hits, map merges for
// bucketing aggregations, a streaming merge for percentiles. Only the winning
// rows of the requested window are copied out.
func (ix *Index) SearchEvents(req SearchRequest) EventsResult {
	res, _ := ix.searchEventsCtx(context.Background(), req)
	return res
}

// searchEventsCtx is SearchEvents with cancellation: ctx is checked between
// shards during fan-out, so a cancelled client stops consuming cores
// mid-query. The hits are copied out while every shard's read lock is still
// held — the copy reads row storage, so it must happen inside the snapshot.
func (ix *Index) searchEventsCtx(ctx context.Context, req SearchRequest) (EventsResult, error) {
	var res EventsResult
	err := ix.searchShards(ctx, req, nil, func(refs []hitRef, total int, parts map[string]*AggPartial) {
		var aggs map[string]AggResult
		if len(req.Aggs) > 0 {
			aggs = make(map[string]AggResult, len(req.Aggs))
			for name, a := range req.Aggs {
				aggs[name] = finalizePartial(a, parts[name])
			}
		}
		res = eventsResult(req, refs, total, aggs)
	})
	return res, err
}

// eventsResult copies the merged, windowed refs out as the typed answer and
// mints the continuation token: present exactly when the request was bounded
// and this page filled it. The node's shard merge and the coordinator's
// partition merge both finish here, so the two levels cannot disagree on a
// hit or a token.
func eventsResult(req SearchRequest, refs []hitRef, total int, aggs map[string]AggResult) EventsResult {
	res := EventsResult{Total: total, Hits: make([]event.Event, len(refs)), Aggs: aggs}
	for i, ref := range refs {
		res.Hits[i] = *ref.ev
	}
	if req.Size > 0 && len(refs) == req.Size {
		res.NextAfter = nextAfterRef(refs[len(refs)-1], req.Sort)
	}
	return res
}

// partitionView places this index inside a partitioned cluster for one
// scatter: the index holds partition p of n, so its local row l carries
// cluster-global id l*n+p and incoming cursor positions are cluster-global.
// A nil view is the single-node case (local ids are global).
type partitionView struct {
	partition  int
	partitions int
}

// searchShards is the shard fan-out half of the search pipeline: it matches,
// pre-sorts, and pre-aggregates every stripe (cold segments included), k-way
// merges the hit candidates, and hands finish the windowed refs plus the
// per-aggregation COMBINED partials — not yet finalized, so a cluster
// coordinator can combine them once more across partitions before
// finalizing. finish runs while every shard read lock is held. A non-nil
// view translates the request's cursor from cluster-global coordinates into
// node-local ones after validation, so a scattered request rejects exactly
// the cursors a single node would.
func (ix *Index) searchShards(ctx context.Context, req SearchRequest, view *partitionView, finish func(refs []hitRef, total int, parts map[string]*AggPartial)) error {
	exec := &searchExec{req: req, rtm: &ix.rtm}
	resume, err := exec.cursor.parse(req)
	if err != nil {
		return err
	}
	var cur *searchCursor
	if resume {
		cur = &exec.cursor
	}
	P, pt := 1, 0
	if view != nil {
		P, pt = view.partitions, view.partition
	}
	// An unsorted cursor names a resume row by global id; if retention may
	// have dropped any row past it, resuming would silently skip data — fail
	// loudly instead. Under a partition view the retention floor is local, so
	// the highest dropped cluster-global row is (floor-1)*P + p; with P=1,
	// p=0 the condition reduces to the single-node floor > cur.gid+1. Sorted
	// cursors resume by sort key, not position, so a concurrent drop just
	// means fewer rows — the usual deletion-during-pagination semantics — and
	// they never expire.
	if cur != nil && len(req.Sort) == 0 {
		if fl := ix.retFloor.Load(); (fl-1)*int64(P)+int64(pt) > int64(cur.gid) {
			return ErrCursorExpired
		}
	}
	if cur != nil && view != nil {
		// Validation above ran on the cluster-global cursor (the same bounds a
		// 1-node store enforces); only now does the gid translate into this
		// partition's local coordinates. The translated bound may be negative
		// — "before every local row" — which the resume arithmetic handles but
		// the wire format deliberately rejects.
		cur.gid = partitionGidAfter(cur.gid, pt, P)
	}
	S := len(ix.shards)
	plan := ix.planRollup(req)
	cols := neededColumns(req, plan)
	// A single-key sorted page builds its column's order (shard.go) on the
	// hot shards, so this and every later page can walk it (orderedPage).
	ordered := ""
	if len(req.Sort) == 1 && req.Size > 0 {
		ordered = req.Sort[0].Field
	}
	for _, sh := range ix.shards {
		sh.ensureColumns(cols, ordered)
	}
	// Hold every shard's read lock for the whole search. The merge stage
	// reads rows (sort comparisons, hit materialization) and live rollup maps
	// after the per-shard phase, so releasing locks between the two would
	// race a concurrent write; a full read snapshot
	// reproduces the unsharded implementation's single-RLock semantics while
	// the per-shard work still fans out in parallel.
	for _, sh := range ix.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range ix.shards {
			sh.mu.RUnlock()
		}
	}()
	// need is how many leading hit candidates each shard must contribute for
	// a correct global window; 0 means all.
	if req.Size > 0 {
		exec.need = req.From + req.Size
	}
	exec.plan, exec.cur = plan, cur
	// base is frozen for the duration: it only moves under every shard write
	// lock, all of which we now hold shared.
	base := int(ix.base.Load())
	results := make([]shardResult, S)
	if err := forEachShardCtx(ctx, S, func(s int) {
		sh := ix.shards[s]
		gidOf := func(id int32) int { return base + int(id)*S + s }
		firstAfter := func(gid int) int32 { return firstLocalAfter(gid-base, s, S) }
		results[s] = sh.searchLocked(exec, gidOf, firstAfter)
	}); err != nil {
		return err
	}
	if ix.coldRows.Load() > 0 {
		coldResults, err := ix.coldSearch(ctx, exec)
		if err != nil {
			return err
		}
		// The k-way merge below orders by sort key with a gid tie-break, and
		// cold gids all precede hot ones, so appending the per-segment results
		// to the shard results composes correctly.
		results = append(results, coldResults...)
	}

	total := 0
	for i := range results {
		total += results[i].total
	}
	var combined map[string]*AggPartial
	if len(req.Aggs) > 0 {
		combined = make(map[string]*AggPartial, len(req.Aggs))
		for name, a := range req.Aggs {
			parts := make([]*AggPartial, 0, S)
			for i := range results {
				if p := results[i].partials[name]; p != nil {
					parts = append(parts, p)
				}
			}
			combined[name] = combinePartials(a, parts)
		}
	}
	lists := make([][]hitRef, len(results))
	for i := range results {
		lists[i] = results[i].hits
	}
	finish(mergeHits(lists, req), total, combined)
	return nil
}

// searchExec bundles one search's per-request execution state for the shard
// fan-out: the request, the global candidate budget, the rollup plan, and
// the parsed cursor (cur points at cursor, or is nil without one).
type searchExec struct {
	req    SearchRequest
	need   int
	plan   *rollupPlan
	cur    *searchCursor
	cursor searchCursor
	rtm    *readTelemetry
}

// searchLocked produces one row store's result; the caller holds sh.mu.RLock
// (or owns the shard outright, for transient cold-segment shards). Global id
// arithmetic is abstracted behind two closures so the same pipeline serves
// hot shards (dense round-robin ids offset by the index base) and cold
// segments (explicit, possibly sparse, gid lists): gidOf maps a local row id
// to its global id, firstAfter returns the first local id whose global id is
// strictly greater than gid (len(rows) when none), both monotone.
func (sh *shard) searchLocked(exec *searchExec, gidOf func(id int32) int, firstAfter func(gid int) int32) shardResult {
	req := exec.req
	need := exec.need
	matchAll := req.Query.matchesAll()
	// ids materializes lazily: a rollup-served match-all request never needs
	// the O(n) id enumeration at all.
	var ids []int32
	idsReady := false
	getIDs := func() []int32 {
		if !idsReady {
			ids = sh.matchIDs(req.Query)
			idsReady = true
		}
		return ids
	}
	var res shardResult
	if matchAll {
		res.total = sh.rows.len()
	} else {
		res.total = len(getIDs())
	}
	if len(req.Aggs) > 0 {
		res.partials = make(map[string]*AggPartial, len(req.Aggs))
		for name, a := range req.Aggs {
			if exec.plan != nil && exec.plan.served[name] {
				if p := sh.rollupServe(exec.plan, a); p != nil {
					res.partials[name] = p
					exec.rtm.rollupHits.Inc()
					continue
				}
			}
			// Everything else — unplannable requests, unservable agg shapes,
			// per-shard overflow fallbacks — is a scan, and
			// counts as a miss so the hit ratio on /metrics means something.
			exec.rtm.rollupMisses.Inc()
			res.partials[name] = sh.partial(a, getIDs())
		}
	}
	// Aggregations and Total cover the full matched set; the cursor only
	// restricts which rows become hit candidates.
	var hitIDs []int32
	switch {
	case len(req.Sort) > 0:
		var walked bool
		if hitIDs, walked = sh.orderedPage(exec, matchAll, getIDs, firstAfter); walked {
			break
		}
		sortCols := make([]*column, len(req.Sort))
		for i, s := range req.Sort {
			sortCols[i] = sh.cols[s.Field]
		}
		cand := getIDs()
		if exec.cur != nil {
			after := make([]int32, 0, len(cand))
			for _, id := range cand {
				if exec.cur.afterID(sh, id, req.Sort, sortCols, gidOf) {
					after = append(after, id)
				}
			}
			cand = after
		}
		// Sort ids, not documents, comparing through the sort columns, and
		// only materialize the winners. The local-id tie-break makes the
		// order total, which is exactly the stable insertion order (local id
		// order == per-shard global id order), so heap selection below
		// returns the same winners a stable full sort would.
		less := func(a, b int32) bool {
			if r := sh.cmpIDs(a, b, req.Sort, sortCols); r != 0 {
				return r < 0
			}
			return a < b
		}
		if need > 0 && need < len(cand) {
			hitIDs = topK(cand, need, less)
		} else {
			cp := make([]int32, len(cand))
			copy(cp, cand)
			sort.Slice(cp, func(i, j int) bool { return less(cp[i], cp[j]) })
			hitIDs = cp
		}
	case matchAll:
		// Unsorted match-all pages arithmetically: candidates are the local
		// id range starting just past the cursor, clipped to the budget.
		first := int32(0)
		if exec.cur != nil {
			first = firstAfter(exec.cur.gid)
		}
		n := sh.rows.len() - int(first)
		if n < 0 {
			n = 0
		}
		if need > 0 && n > need {
			n = need
		}
		hitIDs = make([]int32, n)
		for i := range hitIDs {
			hitIDs[i] = first + int32(i)
		}
	default:
		cand := getIDs()
		if exec.cur != nil {
			// Unsorted order is gid order, so the resume point is a lower
			// bound on the ascending local ids.
			first := firstAfter(exec.cur.gid)
			lo := sort.Search(len(cand), func(i int) bool { return cand[i] >= first })
			cand = cand[lo:]
		}
		hitIDs = cand
	}
	if need > 0 && len(hitIDs) > need {
		hitIDs = hitIDs[:need]
	}
	res.hits = make([]hitRef, len(hitIDs))
	for i, id := range hitIDs {
		res.hits[i] = hitRef{ev: sh.rows.at(int(id)), gid: gidOf(id)}
	}
	return res
}

// orderedPage selects a single-key sorted page by walking the sort column's
// order (shard.go) from the cursor's position: a binary search finds the
// first row past the cursor, and the walk keeps each row the query matched
// (a binary search in the ascending match list) until need are kept. A page
// then costs O(log n + rows walked), whatever its depth in the walk, where
// the candidate path re-tests every match against the cursor and heaps the
// rest. Desc walks the runs of equal values backward but each run forward,
// so ties keep ascending ids, as hitLess orders them.
//
// A sort on time_enter_ns walks only the positions whose stamps the query's
// time window admits (timeBounds, the bounds the cold tier prunes segments
// by): a dashboard's window over the middle of a session neither walks the
// rows before it nor runs on past it.
//
// walked is false, and the caller takes the candidate path, for a multi-key
// or unbounded sort, a column with no order covering every row (a field
// some row lacks, rows appended since ensureColumns, a transient cold
// shard), a cursor value that is not numeric, and matches too sparse for the
// walk to pay: it visits about need·n/m rows for m matches of the n it may
// walk, so it is taken when that is at most m.
func (sh *shard) orderedPage(exec *searchExec, matchAll bool, getIDs func() []int32, firstAfter func(gid int) int32) (hits []int32, walked bool) {
	req, need := exec.req, exec.need
	if len(req.Sort) != 1 || need <= 0 {
		return nil, false
	}
	s := req.Sort[0]
	c, n := sh.cols[s.Field], sh.rows.len()
	if c == nil || c.order == nil || len(c.order) != n {
		return nil, false
	}
	cur := exec.cur
	if cur != nil && !cur.keys[0].ok {
		return nil, false
	}
	order, vals := c.order, c.vals
	// first returns the first position at or past lo whose value is above, a
	// predicate false then true along order.
	first := func(lo int, above func(v float64) bool) int {
		return lo + sort.Search(len(order)-lo, func(i int) bool { return above(vals[order[lo+i]]) })
	}
	if s.Field == FieldTimeEnter {
		if minT, maxT := timeBounds(req.Query); minT > math.MinInt64 || maxT < math.MaxInt64 {
			// float64 of each integer bound is no further in than the bound
			// (mayMatchTime), so no position cut off can match.
			lf, hf := float64(minT), float64(maxT)
			lo := first(0, func(v float64) bool { return v >= lf })
			order = order[lo:first(lo, func(v float64) bool { return v > hf })]
		}
	}
	var ids []int32
	m := n
	if !matchAll {
		ids = getIDs()
		m = len(ids)
	}
	if need > m || need*len(order) > m*m {
		return nil, false
	}
	hits = make([]int32, 0, need)
	// walk keeps the matched ids of run, in run order, and reports whether
	// the page is full. m distinct ids below n, when m == n, are every id: a
	// session term over a one-session index needs no lookup either.
	every := m == n
	walk := func(run []int32) bool {
		for _, id := range run {
			if !every {
				if _, ok := slices.BinarySearch(ids, id); !ok {
					continue
				}
			}
			if hits = append(hits, id); len(hits) == need {
				return true
			}
		}
		return false
	}
	// [lo, hi) is the run of the cursor's value, and from the first position
	// past the cursor in ascending order: a greater value, or the cursor's
	// value at a local id whose gid is past the cursor's (ids and gids rise
	// together within a shard).
	from, lo, hi := 0, 0, len(order)
	if cur != nil {
		cv, fa := cur.keys[0].num, firstAfter(cur.gid)
		lo = first(0, func(v float64) bool { return v >= cv })
		hi = first(lo, func(v float64) bool { return v > cv })
		from = lo + sort.Search(hi-lo, func(i int) bool { return order[lo+i] >= fa })
	}
	if !s.Desc {
		walk(order[from:])
		return hits, true
	}
	// Descending: first the rest of the cursor's own run, then every run
	// below it, last run first.
	if cur != nil {
		if walk(order[from:hi]) {
			return hits, true
		}
		hi = lo
	}
	for hi > 0 {
		lo = runStart(order, vals, hi)
		if walk(order[lo:hi]) {
			break
		}
		hi = lo
	}
	return hits, true
}

// runStart returns the first position of the run of equal values that ends
// at order[hi-1], galloping backward so that a run costs the log of its
// length, not the length.
func runStart(order []int32, vals []float64, hi int) int {
	v := vals[order[hi-1]]
	lo, step := hi-1, 1
	for lo > 0 {
		probe := max(lo-step, 0)
		if vals[order[probe]] != v {
			// The run starts in (probe, lo].
			return probe + 1 + sort.Search(lo-probe-1, func(i int) bool { return vals[order[probe+1+i]] == v })
		}
		lo, step = probe, step*2
	}
	return lo
}

// topK selects the k smallest ids under less (a total order) in ascending
// order without sorting the full candidate set: a size-k max-heap holds the
// current winners with the worst at the root, so selection is O(n log k)
// instead of O(n log n) — the difference between paging a dashboard and
// re-sorting a whole session per query.
func topK(ids []int32, k int, less func(a, b int32) bool) []int32 {
	h := make([]int32, 0, k)
	down := func(i int) {
		for {
			big := i
			if l := 2*i + 1; l < len(h) && less(h[big], h[l]) {
				big = l
			}
			if r := 2*i + 2; r < len(h) && less(h[big], h[r]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for _, id := range ids {
		if len(h) < k {
			h = append(h, id)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !less(h[p], h[i]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if less(id, h[0]) {
			h[0] = id
			down(0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return less(h[i], h[j]) })
	return h
}

// hitLess orders merged hits by the request's sort fields, breaking ties by
// global id so that unsorted (and tied) results keep insertion order, as the
// unsharded implementation's stable sort did. Numeric keys — every sort the
// dashboards and the diagnosis cursor issue — are read unboxed and compared as
// the float64s cmpField would coerce them to; only a key that is not numeric
// on both sides goes through the boxed document value.
func hitLess(a, b hitRef, sorts []SortField) bool {
	for _, s := range sorts {
		af, aok := a.ev.NumericField(s.Field)
		bf, bok := b.ev.NumericField(s.Field)
		var r int
		if aok && bok {
			r = cmpOrdered(af, bf, s.Desc)
		} else {
			av, _ := a.ev.Field(s.Field)
			bv, _ := b.ev.Field(s.Field)
			r = cmpField(av, bv, s.Desc)
		}
		if r != 0 {
			return r < 0
		}
	}
	return a.gid < b.gid
}

// mergeHits k-way merges pre-sorted candidate lists — one per shard on a
// node, one per partition at the cluster coordinator — under the request's
// order and applies the From/Size window.
func mergeHits(lists [][]hitRef, req SearchRequest) []hitRef {
	need := 0
	if req.Size > 0 {
		need = req.From + req.Size
	}
	out := kwayMerge(lists, func(a, b hitRef) bool { return hitLess(a, b, req.Sort) }, need)
	if req.From > 0 {
		if req.From >= len(out) {
			return nil
		}
		out = out[req.From:]
	}
	if req.Size > 0 && len(out) > req.Size {
		out = out[:req.Size]
	}
	return out
}

// neededColumns lists the numeric fields a request will read through the
// columnar caches: range-query fields, sort fields, and the percentiles and
// stats fields of aggregations at any nesting depth (histograms bucket from
// the row's exact integer, not a column). Aggregations the rollup plan will
// serve are excluded — their columns would be built (and, after every ingest
// batch, re-extended) for nothing.
func neededColumns(req SearchRequest, plan *rollupPlan) []string {
	var out []string
	seen := make(map[string]struct{})
	add := func(f string) {
		if f == "" {
			return
		}
		if _, ok := seen[f]; ok {
			return
		}
		seen[f] = struct{}{}
		out = append(out, f)
	}
	var walk func(q Query)
	walk = func(q Query) {
		if q.Range != nil {
			add(q.Range.Field)
		}
		if q.Bool != nil {
			for _, sub := range q.Bool.Must {
				walk(sub)
			}
			for _, sub := range q.Bool.Should {
				walk(sub)
			}
			for _, sub := range q.Bool.MustNot {
				walk(sub)
			}
		}
	}
	walk(req.Query)
	for _, s := range req.Sort {
		add(s.Field)
	}
	var walkAgg func(a Agg)
	walkAgg = func(a Agg) {
		if a.Percentiles != nil {
			add(a.Percentiles.Field)
		}
		if a.Stats != nil {
			add(a.Stats.Field)
		}
		for _, sub := range a.Aggs {
			walkAgg(sub)
		}
	}
	for name, a := range req.Aggs {
		if plan == nil || !plan.served[name] {
			walkAgg(a)
		}
	}
	return out
}

// Count returns the number of documents matching q.
func (ix *Index) Count(q Query) int {
	n, _ := ix.countCtx(context.Background(), q)
	return n
}

// countCtx is Count with cancellation between shards.
func (ix *Index) countCtx(ctx context.Context, q Query) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cold := ix.coldRows.Load() > 0
	if q.matchesAll() && !cold {
		return ix.Len(), nil
	}
	cols := neededColumns(SearchRequest{Query: q}, nil)
	for _, sh := range ix.shards {
		sh.ensureColumns(cols, "")
	}
	if !cold {
		counts := make([]int, len(ix.shards))
		if err := forEachShardCtx(ctx, len(ix.shards), func(s int) {
			sh := ix.shards[s]
			sh.mu.RLock()
			counts[s] = len(sh.matchIDs(q))
			sh.mu.RUnlock()
		}); err != nil {
			return 0, err
		}
		n := 0
		for _, c := range counts {
			n += c
		}
		return n, nil
	}
	// With cold rows in play, hold every shard read lock across the whole
	// count: a concurrent flush-evict moves rows from shard memory into the
	// cold tier, and counting the two sides at different moments would count
	// those rows twice or zero times. The locks freeze (base, segs, shard
	// contents) into one consistent cut, like searchRefs does.
	for _, sh := range ix.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range ix.shards {
			sh.mu.RUnlock()
		}
	}()
	n := 0
	if q.matchesAll() {
		n = int(ix.coldRows.Load())
		for _, sh := range ix.shards {
			n += sh.len()
		}
		return n, nil
	}
	counts := make([]int, len(ix.shards))
	if err := forEachShardCtx(ctx, len(ix.shards), func(s int) {
		counts[s] = len(ix.shards[s].matchIDs(q))
	}); err != nil {
		return 0, err
	}
	for _, c := range counts {
		n += c
	}
	cn, err := ix.coldCount(ctx, q)
	if err != nil {
		return 0, err
	}
	return n + cn, nil
}

// cmpField orders two field values under one sort direction: numerically
// when both coerce, by key string otherwise. Returns -1, 0, or +1.
func cmpField(av, bv any, desc bool) int {
	af, aok := numeric(av)
	bf, bok := numeric(bv)
	if aok && bok {
		return cmpOrdered(af, bf, desc)
	}
	return cmpOrdered(keyString(av), keyString(bv), desc)
}

// cmpOrdered is cmp.Compare under one sort direction.
func cmpOrdered[T cmp.Ordered](a, b T, desc bool) int {
	if desc {
		a, b = b, a
	}
	return cmp.Compare(a, b)
}
