package store

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// Index stores the documents of one index, striped across shards so that
// writes contend on 1/N of the index and reads fan out across cores.
//
// Documents are assigned to shards round-robin in insertion order: the
// document with global id g lives in shard g%N at local position g/N. A
// single-writer workload therefore observes ids 0,1,2,… exactly as the
// unsharded implementation did, and unsorted searches return documents in
// insertion order.
//
// Rows and path names arrive one way, as journal records through
// applyRecord, whether a client wrote them, recovery replays them, or a
// follower applies them from its primary; only the live correlation pass
// (namePaths) journals its own record.
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
	// holds one shard read lock sees a frozen base. retFloor is one past the
	// highest row id retention ever dropped, the expiry bound for unsorted
	// paging cursors. Both zero on in-memory indices and durable ones that
	// never flushed, making the hot path's arithmetic unchanged.
	base     atomic.Int64
	retFloor atomic.Int64

	cache *queryCache   // nil = caching disabled
	rtm   readTelemetry // cold-tier counters (zero value = no-op)

	// replMu serializes a follower's ReplApply and ReplBootstrap, so frames
	// land in primary order. The applied sequence is dur.recSeq: a follower is
	// durable, and it journals every frame it applies.
	replMu sync.Mutex
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
// the default policy).
func NewIndexWithShards(name string, n int) *Index {
	if n <= 0 {
		n = defaultShardCount()
	}
	ix := &Index{name: name, shards: make([]*shard, n)}
	for i := range ix.shards {
		ix.shards[i] = newShard()
	}
	return ix
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// NumShards returns the number of lock stripes.
func (ix *Index) NumShards() int { return len(ix.shards) }

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
	// Canonicalize before journaling or placement, so what the index holds
	// live is what its journal, a follower and a reopen hold.
	for i := range events {
		events[i].Canonicalize()
	}
	var frame []byte
	if ix.dur != nil {
		bp := encodePool.Get().(*[]byte)
		defer encodePool.Put(bp)
		*bp = event.EncodeBatch((*bp)[:0], events)
		frame = *bp
	}
	_, err := ix.applyRecord(durable.RecordEvents, frame, events, false)
	return err
}

// applyRecord applies one journal record, a batch of events or a paths
// record, and is the one way a record reaches an index: a client write
// (AddEvents, BulkFrame), recovery's WAL replay, and a follower's apply and
// bootstrap. On a durable index a writer journals payload verbatim first and
// places the record inside the append mutex, so placement order is WAL order
// and a follower's WAL is its primary's; replay only places. events is
// payload already decoded, when the caller holds it (decoded events are
// canonical: the codec clears Offset when the HasOffset aux bit is unset);
// otherwise an events payload decodes into a pooled batch. A payload that
// does not decode, or a record type this build does not write, is a
// BadRequest. It returns the rows placed; an empty batch is no record and
// neither journals nor places. Paths records arrive only at durable indices.
// Neither payload nor events is kept.
func (ix *Index) applyRecord(t durable.RecordType, payload []byte, events []event.Event, replay bool) (int, error) {
	d := ix.dur
	var place func(start int)
	switch {
	case t == durable.RecordEvents:
		if events == nil {
			bp, evs, err := decodeEventBatch(payload)
			if err != nil {
				return 0, BadRequest(fmt.Errorf("store: events record: %w", err))
			}
			defer putEventBatch(bp, evs)
			events = evs
		}
		if len(events) == 0 {
			return 0, nil
		}
		place = func(start int) { ix.addEventsAt(start, events) }
	case t == durable.RecordPaths:
		rec, err := ix.decodePaths(payload)
		if err != nil {
			return 0, BadRequest(err)
		}
		d.corrMu.Lock()
		defer d.corrMu.Unlock()
		// The epoch brackets the book entry too: cold rows are named from it.
		place = func(int) {
			ix.epoch.Add(1)
			ix.applyPaths(&rec)
			d.addToBook(rec)
			ix.epoch.Add(1)
		}
	case t.Retired():
		return 0, BadRequest(retiredRecord(t))
	default:
		return 0, BadRequest(fmt.Errorf("store: unknown record type %d", t))
	}
	n := len(events) // zero for a paths record
	if d == nil || replay {
		place(int(ix.rr.Add(uint64(n)) - uint64(n)))
		return n, nil
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	return n, ix.journalApply(t, payload, n, place)
}

// addEventsAt places events at global ids start..start+len-1, walking each
// shard's arithmetic slice of the batch directly instead of building
// per-shard groups: zero allocations. Placement is pure arithmetic on the
// global id, so WAL replay (which reserves the same id ranges in record
// order) reproduces it exactly. Shard memory starts at the index base, so
// placement works in memory ids (gid - base); base is stable here — every
// durable caller holds the snapshot gate shared, and eviction only moves
// base under the exclusive gate. Every shard stays write-locked, taken in
// shard order like every multi-shard locker, until the whole batch is
// placed: a search holds every shard's read lock, so it sees all of a batch
// or none of it — never a row without the earlier rows of its batch, which a
// sorted cursor would resume past.
func (ix *Index) addEventsAt(start int, events []event.Event) {
	ix.epoch.Add(1)
	defer ix.epoch.Add(1)
	S := len(ix.shards)
	ms := start - int(ix.base.Load())
	for _, sh := range ix.shards {
		sh.mu.Lock()
	}
	for s, sh := range ix.shards {
		for i := ((s-ms)%S + S) % S; i < len(events); i += S {
			sh.addEventLocked(&events[i])
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of documents: cold rows (segment-resident, below
// the base) plus everything in shard memory, counted in one cut. Retention
// drops shrink it.
func (ix *Index) Len() int { return ix.Count(MatchAll()) }

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

// shardResult is one read view entry's contribution to a search: its match
// count and its aggregation partials, produced under the entry's read lock.
// Its hits are a source of the page merge beside it (searchLocked).
type shardResult struct {
	total    int
	partials map[string]*AggPartial
}

// hitRef names a matched row for merge ordering without copying it: local
// row id of sh — a hot stripe, a cold segment, or at the cluster coordinator
// the shard a partition's decoded hits are packed into — and the global id
// used as the stable tie-break. key is the row's first sort key when it is
// an integer the row has (keyOK), so the merge compares two integers where it
// would read two rows; both are zero on an unsorted search, and on a sort
// whose first key the row holds as a string or lacks.
type hitRef struct {
	sh    *shard
	gid   int
	key   int64
	id    int32
	keyOK bool
}

// newRef names row id of sh at gid, its key read through the first of the
// request's resolved sort fields.
func newRef(sh *shard, id int32, gid int, sorts []sortBy) hitRef {
	ref := hitRef{sh: sh, id: id, gid: gid}
	if len(sorts) > 0 {
		ref.key, ref.keyOK = sorts[0].f.read(sh.rows.at(int(id)))
	}
	return ref
}

// sortKey is ref's i-th sort key under field f: the first as the ref carries
// it when it is an integer, any other read from the row.
func (r *hitRef) sortKey(i int, f *fieldDef) sortKey {
	if i == 0 && r.keyOK {
		return sortKey{num: r.key, isNum: true}
	}
	return f.key(r.sh.row(r.id))
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
	exec := &searchExec{req: req}
	err := ix.searchShards(ctx, exec, nil, func(refs []hitRef, total int, parts map[string]*AggPartial) {
		var aggs map[string]AggResult
		if len(req.Aggs) > 0 {
			aggs = make(map[string]AggResult, len(req.Aggs))
			for name, a := range req.Aggs {
				aggs[name] = finalizePartial(a, parts[name])
			}
		}
		res = eventsResult(req, exec.sorts, refs, total, aggs)
	})
	return res, err
}

// eventsResult copies the merged, windowed refs out as the typed answer and
// mints the continuation token: present exactly when the request was bounded
// and this page filled it. The node's shard merge and the coordinator's
// partition merge both finish here, so the two levels cannot disagree on a
// hit or a token.
func eventsResult(req SearchRequest, sorts []sortBy, refs []hitRef, total int, aggs map[string]AggResult) EventsResult {
	res := EventsResult{Total: total, Hits: make([]event.Event, len(refs)), Aggs: aggs}
	for i := range refs {
		refs[i].sh.row(refs[i].id).Event(&res.Hits[i])
	}
	if req.Size > 0 && len(refs) == req.Size {
		res.NextAfter = nextAfterRef(refs[len(refs)-1], sorts)
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

// searchShards is the shard fan-out half of the search pipeline, and the
// node's only one: one pass over the read view (tier.go), hot stripes and
// cold segments alike, matches, positions or pre-sorts, and pre-aggregates
// every entry, pulls the page through one k-way merge (mergePage), and hands
// finish the windowed refs plus the per-aggregation COMBINED partials — not
// yet finalized, so a cluster coordinator can combine them once more across
// partitions before finalizing. finish runs while every shard read lock is
// held. A non-nil view translates the request's cursor from cluster-global
// coordinates into node-local ones after validation, so a scattered request
// rejects exactly the cursors a single node would. exec names the request,
// and whether this is a counting execution (searchExec.count); its query is
// compiled and its sort fields are resolved here, before any row is read.
func (ix *Index) searchShards(ctx context.Context, exec *searchExec, view *partitionView, finish func(refs []hitRef, total int, parts map[string]*AggPartial)) error {
	req := exec.req
	if exec.q == nil {
		exec.q, exec.sorts = compileQuery(req.Query), resolveSorts(req.Sort)
		exec.visitor = exec.visit
	}
	// A walk's later page resumes where the walk placed its cursor
	// (searchCursor.at); any other search parses the request's.
	cur := exec.cur
	if cur == nil {
		resume, err := exec.cursor.parse(req)
		if err != nil {
			return err
		}
		if resume {
			cur = &exec.cursor
		}
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
	fields, walk := rangeFields(exec.q), sortWalkOf(req, exec.q)
	for _, sh := range ix.shards {
		sh.ensureRuns(fields, walk)
	}
	// Hold every shard's read lock for the whole search. The merge stage
	// reads rows (sort comparisons, hit materialization) after the per-shard
	// phase, so releasing locks between the two would race a concurrent
	// write; a full read snapshot
	// reproduces the unsharded implementation's single-RLock semantics while
	// the per-shard work still fans out in parallel. It is also the reader
	// half of the eviction protocol: a flush-evict moves rows from shard
	// memory to the cold tier under every shard write lock, so the view built
	// below is one cut, and no row is seen in both tiers or in neither.
	for _, sh := range ix.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range ix.shards {
			sh.mu.RUnlock()
		}
	}()
	// need is how many leading hits an entry may have to contribute for a
	// correct global window; 0 means all.
	if req.Size > 0 {
		exec.need = req.From + req.Size
	}
	exec.cur, exec.walk = cur, walk
	v := &exec.view
	ix.readView(v, exec.q, walk)
	defer v.release()
	// A match-all count opens no cold entry: it takes the rows from the
	// segment's meta, and decodes nothing.
	countAll := exec.count && exec.q.all()
	exec.results, exec.srcs = cleared(exec.results, len(v.entries)), cleared(exec.srcs, len(v.entries))
	if err := v.each(ctx, !countAll, exec.visitor); err != nil {
		return err
	}
	results, srcs := exec.results, exec.srcs

	total := 0
	for i := range results {
		total += results[i].total
	}
	var combined map[string]*AggPartial
	if len(req.Aggs) > 0 {
		combined = make(map[string]*AggPartial, len(req.Aggs))
		for name, a := range req.Aggs {
			parts := make([]*AggPartial, 0, len(results))
			for i := range results {
				if p := results[i].partials[name]; p != nil {
					parts = append(parts, p)
				}
			}
			combined[name] = combinePartials(a, parts)
		}
	}
	finish(exec.merge.mergePage(srcs, exec.sorts, req.From, req.Size), total, combined)
	return nil
}

// cleared returns s holding n zero values, in s's memory when it has room.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// searchExec bundles one search's per-request execution state for the shard
// fan-out: the request, its query compiled (q), its sort fields resolved
// (sorts), the global candidate budget, the parsed cursor (cur points at
// cursor, or is nil without one), and what a sorted page walks. count marks a counting
// execution: every stripe reports its match count and no hit candidates,
// over the same cut a search reads. The rest is the page's memory: its read
// view, its entries' results and merge sources, the merge's tree and
// window, and visit as the func the view's pass runs. A search allocates
// them for its one page; a walk runs every page on one searchExec
// (Store.eachRow), so it compiles its query once and allocates its page
// memory for its first page, whatever its page count.
type searchExec struct {
	req    SearchRequest
	q      *clause
	sorts  []sortBy
	count  bool
	need   int
	cur    *searchCursor
	cursor searchCursor
	walk   sortWalk

	view    readView
	results []shardResult
	srcs    []hitSource
	merge   pageMerge
	visitor func(i int, e *readEntry)
}

// visit fills entry i's result and merge source: a cold entry left unopened
// (a match-all count) from its segment's meta, any other by searchLocked.
func (exec *searchExec) visit(i int, e *readEntry) {
	if e.sh == nil {
		exec.results[i].total = int(e.seg.Rows)
		return
	}
	exec.results[i], exec.srcs[i] = e.searchLocked(exec)
}

// searchLocked produces one read view entry's result, and its hits as one
// ascending source of the page merge: its positioned walk (pageWalk), or its
// sorted, possibly truncated candidates, none on a counting execution. The
// caller holds e.sh.mu.RLock (a hot stripe's or a cold segment's). The
// entry's gidOf and firstAfter, both monotone, place its local ids in the
// global id space, so one pipeline serves dense round-robin stripes and
// sparse cold segments.
func (e *readEntry) searchLocked(exec *searchExec) (shardResult, hitSource) {
	sh, req, need := e.sh, exec.req, exec.need
	matchAll := exec.q.all()
	// ids materializes lazily: a match-all request with no aggregation may
	// never need the O(n) id enumeration at all.
	var ids []int32
	idsReady := false
	getIDs := func() []int32 {
		if !idsReady {
			ids = sh.matchIDs(exec.q)
			idsReady = true
		}
		return ids
	}
	// An exact sorted page's list holds its matches alone, so its length is
	// the total.
	l, listed := sh.walkList(exec.walk)
	var res shardResult
	switch {
	case matchAll:
		res.total = sh.rows.len()
	case listed && exec.walk.exact:
		res.total = l.len()
	default:
		res.total = len(getIDs())
	}
	if exec.count {
		return res, hitSource{}
	}
	if len(req.Aggs) > 0 {
		res.partials = make(map[string]*AggPartial, len(req.Aggs))
		for name, a := range req.Aggs {
			res.partials[name] = sh.partial(a, getIDs())
		}
	}
	// Aggregations and Total cover the full matched set; the cursor only
	// restricts which rows become hit candidates.
	var hitIDs []int32
	switch {
	case len(req.Sort) > 0:
		if src, walked := e.pageWalk(exec, l, listed, getIDs); walked {
			return res, src
		}
		cand := getIDs()
		if exec.cur != nil {
			after := make([]int32, 0, len(cand))
			for _, id := range cand {
				if exec.cur.afterID(sh, id, exec.sorts, e.gidOf) {
					after = append(after, id)
				}
			}
			cand = after
		}
		// Sort ids, not documents, comparing the rows' fields through their
		// entries, and only materialize the winners. The local-id tie-break
		// makes the order total, which is exactly the stable insertion order
		// (local id order == per-shard global id order), so heap selection
		// below returns the same winners a stable full sort would.
		less := func(a, b int32) bool {
			if r := sh.cmpIDs(a, b, exec.sorts); r != 0 {
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
			first = e.firstAfter(exec.cur.gid)
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
			first := e.firstAfter(exec.cur.gid)
			lo := sort.Search(len(cand), func(i int) bool { return cand[i] >= first })
			cand = cand[lo:]
		}
		hitIDs = cand
	}
	if need > 0 && len(hitIDs) > need {
		hitIDs = hitIDs[:need]
	}
	refs := make([]hitRef, len(hitIDs))
	for i, id := range hitIDs {
		refs[i] = newRef(sh, id, e.gidOf(id), exec.sorts)
	}
	return res, hitSource{refs: refs}
}

// walkList returns the run a single-key sorted page walks (walkRun): its
// term's, or the all-rows run, cut to the query's window by binary search.
// Every match of the query is in it, and when the walk is exact every entry
// is one. ok is false for any other request, and when the run is missing or
// falls short (rows appended since ensureRuns). Caller holds the read lock.
func (sh *shard) walkList(w sortWalk) (l termRun, ok bool) {
	if w.field == "" {
		return termRun{}, false
	}
	k, _, n := sh.walkRun(w)
	r := sh.runs[k]
	if r == nil || r.len() != n {
		return termRun{}, false
	}
	return r.window(w.lo, w.hi), true
}

// pageWalk positions a single-key sorted page's walk of l, a run in the
// sort field's order (walkList), at the cursor: a binary search finds the
// first row past it, and the page merge (mergePage) then pulls from the walk
// only the rows the page keeps, each with its sort key as l holds it. A page
// costs O(log n) per entry to position and O(log k) per row pulled over k
// entries, whatever its depth in the walk, where the candidate path
// re-tests every match against the cursor and heaps a page per entry.
// Positioning allocates nothing on the exact path.
//
// l holds every match of the query: the term's run when the query names an
// indexed term, so a page over one session of many walks that session's
// rows alone. When the walk is exact every row walked is kept. Otherwise
// each row walked is tested for membership in the ascending match list: by
// a bit test, or a binary search.
//
// walked is false, and the caller takes the candidate path, for a multi-key
// or unbounded sort, a cursor value that is not an integer, a page with no list
// (listed false: a field some row lacks, rows appended since ensureRuns),
// and, off the exact path, matches too sparse for the walk to pay: it visits
// about need·len/m rows for m matches of the len it may walk, so it is taken
// when that is at most m.
func (e *readEntry) pageWalk(exec *searchExec, l termRun, listed bool, getIDs func() []int32) (src hitSource, walked bool) {
	sh, req, need := e.sh, exec.req, exec.need
	if len(req.Sort) != 1 || need <= 0 || !listed {
		return src, false
	}
	cur := exec.cur
	if cur != nil && !cur.keys[0].isNum {
		return src, false
	}
	// keep tests a walked row for membership; nil keeps every row. m matches,
	// all of them in l, are every row of it when m == len. Else the match
	// list is a bitmap when its m bit sets cost no more than the binary
	// searches they replace (need·len/m rows walked, log m probes each).
	var keep func(id int32) bool
	if !exec.walk.exact {
		ids := getIDs()
		m := len(ids)
		if need > m || need*l.len() > m*m {
			return src, false
		}
		switch {
		case m == l.len():
		case m*m <= need*l.len()*bits.Len(uint(m)):
			in := newIDSet(sh.rows.len(), ids)
			keep = in.has
		default:
			keep = func(id int32) bool {
				_, ok := slices.BinarySearch(ids, id)
				return ok
			}
		}
	}
	src = hitSource{head: hitRef{sh: sh, keyOK: true}, e: e, l: l, keep: keep, desc: req.Sort[0].Desc, hi: l.len()}
	switch {
	case cur != nil:
		// [lo, hi) is the run of the cursor's value, and p the first position
		// past the cursor in ascending order: a greater value, or the cursor's
		// value at a local id whose gid is past the cursor's (ids and gids
		// rise together within a shard). Ascending, the walk goes on from p to
		// the end; descending, it takes the rest of the cursor's run, then
		// every run below it.
		cv, fa := cur.keys[0].num, e.firstAfter(cur.gid)
		lo := sort.Search(l.len(), func(i int) bool { return l.at(i) >= cv })
		hi := lo + sort.Search(l.len()-lo, func(i int) bool { return l.at(lo+i) > cv })
		src.lo, src.p = lo, lo+sort.Search(hi-lo, func(i int) bool { return l.ids[lo+i] >= fa })
		if src.desc {
			src.hi = hi
		}
	case src.desc:
		// Every run, last first: the walk starts past the end.
		src.lo, src.p = src.hi, src.hi
	}
	return src, true
}

// runStart returns the first position of the run of equal values that ends
// at position hi-1 of l, galloping backward so that a run costs the log of
// its length, not the length.
func runStart(l termRun, hi int) int {
	v := l.at(hi - 1)
	lo, step := hi-1, 1
	for lo > 0 {
		probe := max(lo-step, 0)
		if l.at(probe) != v {
			// The run starts in (probe, lo].
			return probe + 1 + sort.Search(lo-probe-1, func(i int) bool { return l.at(probe+1+i) == v })
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

// hitLess orders merged hits by the request's sort fields (cmpKeys),
// breaking ties by global id so that unsorted (and tied) results keep
// insertion order, as the unsharded implementation's stable sort did. The
// first key is compared as the refs carry it when both hold an integer.
func hitLess(a, b *hitRef, sorts []sortBy) bool {
	for i, s := range sorts {
		if r := cmpKeys(a.sortKey(i, s.f), b.sortKey(i, s.f), s.desc); r != 0 {
			return r < 0
		}
	}
	return a.gid < b.gid
}

// rangeFields lists the fields of the ranges among q's conjuncts (its must
// list, compileQuery), which a shard may answer from their all-rows run
// (orderedRun). One list serves every hot stripe; a cold segment's rows
// never grow, so its runs never fall short of them.
func rangeFields(q *clause) []string {
	var out []string
	for _, c := range q.must {
		if c.op == opRange && !slices.Contains(out, c.name) {
			out = append(out, c.name)
		}
	}
	return out
}

// sortWalk is what a single-key sorted page on field walks (pageWalk), on
// hot and resident cold shards alike, so that this and every later page can
// walk it. It is read from the query's conjuncts (its must list,
// compileQuery): term is the first indexed keyword term with one string
// value among them (seedTerm), and [lo, hi] the window their ranges on field
// intersect to; every match holds both. A shard builds the term's run
// (termRun) when the term holds some but not all of its rows, and the
// all-rows run otherwise (walkRun). exact holds when nothing else is asked,
// a match-all included: then the matches are exactly term's rows (every row
// when term is zero) inside the window, and the page tests none of them. The
// zero sortWalk is any other request.
type sortWalk struct {
	field  string
	exact  bool
	term   termKey
	lo, hi int64
}

func sortWalkOf(req SearchRequest, q *clause) sortWalk {
	if len(req.Sort) != 1 || req.Size <= 0 {
		return sortWalk{}
	}
	w := sortWalk{field: req.Sort[0].Field, exact: len(q.should)+len(q.mustNot) == 0, lo: math.MinInt64, hi: math.MaxInt64}
	for i := range q.must {
		c := &q.must[i]
		t, isTerm := c.seedTerm()
		switch {
		case isTerm && w.term.field == "":
			w.term = termKey{c.name, t}
		case c.op == opRange && c.name == w.field:
			w.lo, w.hi = max(w.lo, c.lo), min(w.hi, c.hi)
		default:
			w.exact = false
		}
	}
	return w
}

// Count returns the number of documents matching q.
func (ix *Index) Count(q Query) int {
	n, _ := ix.countCtx(context.Background(), q)
	return n
}

// countCtx is Count with cancellation between shards: the search pipeline's
// counting execution, so a count reads the one cut a search reads.
func (ix *Index) countCtx(ctx context.Context, q Query) (n int, err error) {
	err = ix.searchShards(ctx, &searchExec{req: SearchRequest{Query: q}, count: true}, nil,
		func(_ []hitRef, total int, _ map[string]*AggPartial) { n = total })
	return n, err
}

// sortBy is one SortField resolved against the schema table.
type sortBy struct {
	f    *fieldDef
	desc bool
}

// resolveSorts resolves a request's sort fields, once, before its read phase.
func resolveSorts(sorts []SortField) []sortBy {
	out := make([]sortBy, len(sorts))
	for i, s := range sorts {
		out[i] = sortBy{fieldOf(s.Field), s.Desc}
	}
	return out
}

// sortKey is one sort-key value, unboxed: an integer (isNum), or else the
// string it compares as — a row's string, "" where the row lacks the field,
// a cursor scalar's keyString.
type sortKey struct {
	num   int64
	str   string
	isNum bool
}

// cmpKeys is the one sort comparison, of two rows (cmpIDs), two refs
// (hitLess) or a row and a cursor key (afterID): as integers when both are,
// else as their keyStrings, so a string compares as itself, boxing nothing.
// Returns -1, 0 or +1 under one direction.
func cmpKeys(a, b sortKey, desc bool) int {
	if a.isNum && b.isNum {
		return cmpOrdered(a.num, b.num, desc)
	}
	return cmpOrdered(a.text(), b.text(), desc)
}

// text is the key's keyString: an integer in decimal, a string as it is.
func (k sortKey) text() string {
	if k.isNum {
		return strconv.FormatInt(k.num, 10)
	}
	return k.str
}

// cmpOrdered is cmp.Compare under one sort direction.
func cmpOrdered[T cmp.Ordered](a, b T, desc bool) int {
	if desc {
		a, b = b, a
	}
	return cmp.Compare(a, b)
}
