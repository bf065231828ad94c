package store

import (
	"container/list"
	"context"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// The query cache memoizes search responses per index, keyed by
// (index epoch, canonical request fingerprint). Invalidation is by epoch
// alone: every mutation bumps the index's epoch counter at both its start
// and its end, so stale entries die without anyone scanning the cache — a
// lookup whose entry carries an old epoch misses (and evicts the entry
// lazily), and a response computed while a mutation was in flight is never
// inserted, because the insert re-checks that the epoch did not move since
// it was captured. The double bump means an overlapping mutation always
// moves the epoch at least once inside the search's capture window.
//
// Concurrent-visibility fine print: a mutation that began before the search
// captured its epoch and finishes after the insert can leave a briefly
// servable entry reflecting the store's partially-applied state. That is
// exactly the visibility a concurrent uncached search has (shards lock
// independently), and the mutation's end-of-apply bump retires the entry.
//
// Cached results are shared between callers and must be treated as
// read-only; the Document rendering is built per call, outside the cache.

// queryCache is one index's bounded LRU of search responses.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evicts *telemetry.Counter // nil-safe
}

type cacheEntry struct {
	key   string
	epoch uint64
	val   EventsResult
}

func newQueryCache(capacity int, hits, misses, evicts *telemetry.Counter) *queryCache {
	return &queryCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[string]*list.Element, capacity),
		hits:   hits,
		misses: misses,
		evicts: evicts,
	}
}

// get returns the cached response for key if it was computed at the current
// epoch; an entry from an older epoch is evicted on sight.
func (c *queryCache) get(key string, epoch uint64) (EventsResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return EventsResult{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch {
		c.ll.Remove(el)
		delete(c.items, key)
		c.evicts.Inc()
		c.misses.Inc()
		return EventsResult{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return e.val, true
}

// put inserts (or refreshes) a response computed at epoch, evicting the
// least-recently-used entry past capacity.
func (c *queryCache) put(key string, epoch uint64, val EventsResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.epoch, e.val = epoch, val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, epoch: epoch, val: val})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
		c.evicts.Inc()
	}
}

// size returns the live entry count (the entries gauge).
func (c *queryCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheable limits memoization to bounded pages: Size <= 0 means "return
// every hit", which is a bulk export, not a dashboard query, and one such
// entry could pin an arbitrarily large response.
func cacheable(req SearchRequest) bool { return req.Size > 0 }

// readTelemetry carries the read-path counters wired by the owning Store
// (rollup serves, cold-segment pruning, verification and row selection); the
// zero value (nil counters) is a valid no-op for bare indices.
type readTelemetry struct {
	rollupHits, rollupMisses *telemetry.Counter
	segOpened, segPruned     *telemetry.Counter
	segVerified              *telemetry.Counter
	rowsDecoded, rowsSkipped *telemetry.Counter
}

// cachedSearchEventsCtx is searchEventsCtx behind the query cache. The epoch
// is captured before the search runs and re-checked before insert, so a
// response computed while a mutation was in flight is never cached; a lookup
// only answers from an entry whose epoch is still current. There is one entry
// per request whichever way the caller wants its hits rendered.
func (ix *Index) cachedSearchEventsCtx(ctx context.Context, req SearchRequest) (EventsResult, error) {
	c := ix.cache
	if c == nil || !cacheable(req) {
		return ix.searchEventsCtx(ctx, req)
	}
	key := cacheKey(req)
	e := ix.epoch.Load()
	if res, ok := c.get(key, e); ok {
		return res, nil
	}
	res, err := ix.searchEventsCtx(ctx, req)
	if err != nil {
		return res, err
	}
	if ix.epoch.Load() == e {
		c.put(key, e, res)
	}
	return res, nil
}

// --- Canonical fingerprints ---
//
// Semantically identical requests must map to one cache key: JSON
// round-trips randomize agg map order, callers spell the same filter as
// Must(q) or q, terms lists reorder, and integer range bounds can arrive as
// GT n or GTE n+1. The fingerprint is the full canonical string (no
// hashing, so distinct requests can never collide into a stale answer).

// intRangeFields are the schema fields that hold integral values, where
// GT b ≡ GTE b+1 (and LT b ≡ LTE b-1) for integral b.
var intRangeFields = map[string]bool{
	FieldTimeEnter: true, FieldTimeExit: true, FieldDuration: true,
	FieldRetVal: true, FieldFD: true, FieldCount: true, FieldArgOffset: true,
	FieldWhence: true, FieldFlags: true, FieldMode: true, FieldPID: true,
	FieldTID: true, FieldDevNo: true, FieldInodeNo: true, FieldTagTS: true,
	FieldOffset: true,
}

// maxExactInt is the largest magnitude a float64 represents exactly for
// every integer below it; bound folding past it could change results.
const maxExactInt = float64(1 << 53)

// cacheKey renders a request as its canonical fingerprint.
func cacheKey(req SearchRequest) string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString("q:")
	b.WriteString(canonQuery(req.Query))
	b.WriteString("|s:")
	for _, s := range req.Sort {
		b.WriteString(s.Field)
		if s.Desc {
			b.WriteString("-,")
		} else {
			b.WriteString("+,")
		}
	}
	b.WriteString("|w:")
	b.WriteString(strconv.Itoa(req.From))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(req.Size))
	if len(req.SearchAfter) > 0 {
		b.WriteString("|c:")
		for _, v := range req.SearchAfter {
			b.WriteString(scalarKey(v))
			b.WriteByte(',')
		}
	}
	if len(req.Aggs) > 0 {
		b.WriteString("|a:")
		b.WriteString(canonAggs(req.Aggs))
	}
	return b.String()
}

// canonQuery mirrors Query.matches' evaluation order exactly: the first set
// clause wins, extra clauses are ignored, and an empty bool behaves like
// match-all.
func canonQuery(q Query) string {
	switch {
	case q.Term != nil:
		return "t(" + q.Term.Field + "=" + scalarKey(q.Term.Value) + ")"
	case q.Terms != nil:
		keys := make([]string, 0, len(q.Terms.Values))
		for _, v := range q.Terms.Values {
			keys = append(keys, scalarKey(v))
		}
		sort.Strings(keys)
		keys = dedupSorted(keys)
		return "ts(" + q.Terms.Field + "=" + strings.Join(keys, ",") + ")"
	case q.Range != nil:
		return canonRange(q.Range)
	case q.Prefix != nil:
		return "p(" + q.Prefix.Field + "=" + strconv.Quote(q.Prefix.Value) + ")"
	case q.Exists != nil:
		return "e(" + q.Exists.Field + ")"
	case q.Bool != nil:
		return canonBool(q.Bool)
	default:
		return "*"
	}
}

// canonRange folds each strict integral bound on an integer field into its
// inclusive equivalent and collapses redundant bounds (GTE 6 ∧ GT 5 ≡ GTE 6).
func canonRange(r *RangeQuery) string {
	gte, lte, gt, lt := r.GTE, r.LTE, r.GT, r.LT
	if intRangeFields[r.Field] {
		if gt != nil && isExactInt(*gt) {
			v := *gt + 1
			gte, gt = maxBound(gte, &v), nil
		}
		if lt != nil && isExactInt(*lt) {
			v := *lt - 1
			lte, lt = minBound(lte, &v), nil
		}
	}
	var b strings.Builder
	b.WriteString("r(")
	b.WriteString(r.Field)
	writeBound := func(tag string, v *float64) {
		if v == nil {
			return
		}
		b.WriteByte(',')
		b.WriteString(tag)
		b.WriteString(strconv.FormatFloat(*v, 'g', -1, 64))
	}
	writeBound("gte:", gte)
	writeBound("lte:", lte)
	writeBound("gt:", gt)
	writeBound("lt:", lt)
	b.WriteByte(')')
	return b.String()
}

func isExactInt(f float64) bool {
	return f == math.Trunc(f) && math.Abs(f) < maxExactInt
}

func maxBound(a, b *float64) *float64 {
	if a == nil || *b > *a {
		return b
	}
	return a
}

func minBound(a, b *float64) *float64 {
	if a == nil || *b < *a {
		return b
	}
	return a
}

// canonBool sorts each clause list (must/should/must-not are
// order-insensitive), dedupes, and unwraps the degenerate single-clause
// wrappers Must(q) and Should(q), which evaluate identically to q.
func canonBool(q *BoolQuery) string {
	enc := func(qs []Query) []string {
		out := make([]string, 0, len(qs))
		for _, sub := range qs {
			out = append(out, canonQuery(sub))
		}
		sort.Strings(out)
		return dedupSorted(out)
	}
	must, should, not := enc(q.Must), enc(q.Should), enc(q.MustNot)
	if len(should) == 0 && len(not) == 0 {
		switch len(must) {
		case 0:
			return "*"
		case 1:
			return must[0]
		}
	}
	if len(must) == 0 && len(not) == 0 && len(should) == 1 {
		return should[0]
	}
	return "b(m:" + strings.Join(must, ";") +
		"|s:" + strings.Join(should, ";") +
		"|n:" + strings.Join(not, ";") + ")"
}

func dedupSorted(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// canonAggs renders an agg map with names sorted, fixing JSON map-order
// nondeterminism.
func canonAggs(aggs map[string]Agg) string {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(strconv.Quote(n))
		b.WriteByte('=')
		b.WriteString(canonAgg(aggs[n]))
		b.WriteByte(';')
	}
	return b.String()
}

func canonAgg(a Agg) string {
	var b strings.Builder
	switch {
	case a.Terms != nil:
		b.WriteString("terms(")
		b.WriteString(a.Terms.Field)
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(a.Terms.Size))
		b.WriteByte(')')
	case a.DateHistogram != nil:
		b.WriteString("dh(")
		b.WriteString(a.DateHistogram.Field)
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(a.DateHistogram.IntervalNS, 10))
		b.WriteByte(')')
	case a.Percentiles != nil:
		// Percent order and duplicates don't affect the result map; the
		// empty list means the documented default set.
		pcts := a.Percentiles.Percents
		if len(pcts) == 0 {
			pcts = []float64{50, 90, 95, 99}
		}
		sorted := append([]float64(nil), pcts...)
		sort.Float64s(sorted)
		b.WriteString("pct(")
		b.WriteString(a.Percentiles.Field)
		prev := math.NaN()
		for _, p := range sorted {
			if p == prev {
				continue
			}
			prev = p
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
		}
		b.WriteByte(')')
	case a.Stats != nil:
		b.WriteString("stats(")
		b.WriteString(a.Stats.Field)
		b.WriteByte(')')
	default:
		b.WriteString("none")
	}
	if len(a.Aggs) > 0 {
		b.WriteString("{")
		b.WriteString(canonAggs(a.Aggs))
		b.WriteString("}")
	}
	return b.String()
}

// scalarKey renders one query scalar canonically: strings quoted, numerics
// (bools included, matching valueEquals' coercion) in shortest-round-trip
// float form, nil and everything else distinct.
func scalarKey(v any) string {
	if s, ok := v.(string); ok {
		return strconv.Quote(s)
	}
	if f, ok := numeric(v); ok {
		return "n" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	if v == nil {
		return "_"
	}
	return "v" + keyString(v)
}
