package store

import (
	"container/list"
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// The query cache memoizes search responses per index, keyed by
// (index epoch, the request as written). Invalidation is by epoch
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
// (cold-segment pruning, verification and row selection); the zero value
// (nil counters) is a valid no-op for bare indices.
type readTelemetry struct {
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

// --- Cache keys ---
//
// A key is the request as it is spelled. A dashboard re-issues one fixed
// request per panel, which is all the cache needs to serve it; equivalent
// spellings (Must(q) and q, reordered clauses, GT n and GTE n+1) get entries
// of their own. Every name is quoted, so no field name can spell out another
// request's clauses, and the key is the full string, never a hash.

// keyWriter builds one cache key. Each clause is a tag, its quoted field and
// its operands; scalars are type-tagged, numbers end in ',', and a list ends
// in ')'. tmp formats numbers and names without an allocation of their own.
type keyWriter struct {
	strings.Builder
	tmp [64]byte
}

// cacheKey renders a request as its cache key: every part it sets, in
// declaration order. MatchAll writes nothing, since it never changes an
// answer.
func cacheKey(req SearchRequest) string {
	var w keyWriter
	w.Grow(128)
	w.query(req.Query)
	w.WriteString("|s")
	for _, s := range req.Sort {
		if s.Desc {
			w.WriteByte('-')
		}
		w.quote(s.Field)
	}
	w.WriteString("|w")
	w.int(int64(req.From))
	w.int(int64(req.Size))
	w.WriteString("|c")
	for _, v := range req.SearchAfter {
		w.scalar(v)
	}
	w.WriteString("|a")
	w.aggs(req.Aggs)
	return w.String()
}

func (w *keyWriter) query(q Query) {
	if t := q.Term; t != nil {
		w.clause('t', t.Field)
		w.scalar(t.Value)
	}
	if t := q.Terms; t != nil {
		w.clause('T', t.Field)
		for _, v := range t.Values {
			w.scalar(v)
		}
		w.WriteByte(')')
	}
	if r := q.Range; r != nil {
		w.clause('r', r.Field)
		w.bound("ge", r.GTE)
		w.bound("le", r.LTE)
		w.bound("gt", r.GT)
		w.bound("lt", r.LT)
		w.WriteByte(')')
	}
	if p := q.Prefix; p != nil {
		w.clause('p', p.Field)
		w.quote(p.Value)
	}
	if e := q.Exists; e != nil {
		w.clause('e', e.Field)
	}
	if b := q.Bool; b != nil {
		w.queries('b', b.Must)
		w.queries('s', b.Should)
		w.queries('n', b.MustNot)
	}
}

// queries writes one bool clause list, each query closed by ';' so that an
// empty one still counts.
func (w *keyWriter) queries(tag byte, qs []Query) {
	w.WriteByte(tag)
	for _, q := range qs {
		w.query(q)
		w.WriteByte(';')
	}
	w.WriteByte(')')
}

func (w *keyWriter) bound(tag string, v *float64) {
	if v != nil {
		w.WriteString(tag)
		w.float(*v)
	}
}

// aggs writes an aggregation map with its names sorted, since a map has no
// order.
func (w *keyWriter) aggs(aggs map[string]Agg) {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := aggs[n]
		w.quote(n)
		if a.Terms != nil {
			w.clause('t', a.Terms.Field)
			w.int(int64(a.Terms.Size))
		}
		if h := a.DateHistogram; h != nil {
			w.clause('h', h.Field)
			w.int(h.IntervalNS)
		}
		if p := a.Percentiles; p != nil {
			w.clause('p', p.Field)
			for _, f := range p.Percents {
				w.float(f)
			}
			w.WriteByte(')')
		}
		if a.Stats != nil {
			w.clause('s', a.Stats.Field)
		}
		w.WriteByte('{')
		w.aggs(a.Aggs)
		w.WriteByte('}')
	}
}

func (w *keyWriter) clause(tag byte, field string) {
	w.WriteByte(tag)
	w.quote(field)
}

func (w *keyWriter) quote(s string) { w.Write(strconv.AppendQuote(w.tmp[:0], s)) }

func (w *keyWriter) int(n int64) { w.Write(append(strconv.AppendInt(w.tmp[:0], n, 10), ',')) }

func (w *keyWriter) float(f float64) {
	w.Write(append(strconv.AppendFloat(w.tmp[:0], f, 'g', -1, 64), ','))
}

// scalar writes one query value type-tagged: a string quoted, a number
// (bools included, as valueEquals coerces them) as 'n' and its float, nil as
// '_', and anything else as 'v' and its quoted bucket key.
func (w *keyWriter) scalar(v any) {
	if s, ok := v.(string); ok {
		w.quote(s)
	} else if f, ok := numeric(v); ok {
		w.WriteByte('n')
		w.float(f)
	} else if v == nil {
		w.WriteByte('_')
	} else {
		w.WriteByte('v')
		w.quote(keyString(v))
	}
}
