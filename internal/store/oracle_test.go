package store

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The differential tests' reference engine. It shares nothing with the
// sharded pipeline beyond the row storage and the scalar helpers (intOf,
// keyString, cmpOrdered): its query evaluator (Query.Matches) reads each
// field of a document by name and compares boxed values, and its sort
// comparator is its own boxed cmpField. Every hot row is materialized in
// global-id order, filtered one document at a time, stable-sorted whole,
// aggregated serially, and windowed by copying. No compiled clause, posting
// list, dictionary code, run, per-shard pre-sort, top-k heap, or merge is
// consulted, so agreement with Index.Search is evidence about all of them.

// Matches evaluates the query against doc by name: the first clause set
// counts, in the order Term, Terms, Range, Prefix, Exists, Bool, and with
// none set the query matches every document.
func (q Query) Matches(doc Document) bool {
	switch {
	case q.Term != nil:
		return valueEquals(doc[q.Term.Field], q.Term.Value)
	case q.Terms != nil:
		v := doc[q.Terms.Field]
		for _, want := range q.Terms.Values {
			if valueEquals(v, want) {
				return true
			}
		}
		return false
	case q.Range != nil:
		n, ok := intOf(doc[q.Range.Field])
		return ok && q.Range.contains(n)
	case q.Prefix != nil:
		s, ok := doc[q.Prefix.Field].(string)
		return ok && strings.HasPrefix(s, q.Prefix.Value)
	case q.Exists != nil:
		v := doc[q.Exists.Field]
		if v == nil {
			return false
		}
		if s, isStr := v.(string); isStr && s == "" {
			return false
		}
		return true
	case q.Bool != nil:
		for _, sub := range q.Bool.Must {
			if !sub.Matches(doc) {
				return false
			}
		}
		for _, sub := range q.Bool.MustNot {
			if sub.Matches(doc) {
				return false
			}
		}
		for _, sub := range q.Bool.Should {
			if sub.Matches(doc) {
				return true
			}
		}
		return len(q.Bool.Should) == 0
	default:
		return true
	}
}

// contains reports whether v satisfies every bound of r: GT and LT strict,
// GTE and LTE inclusive.
func (r *RangeQuery) contains(v int64) bool {
	if r.GTE != nil && v < *r.GTE {
		return false
	}
	if r.LTE != nil && v > *r.LTE {
		return false
	}
	if r.GT != nil && v <= *r.GT {
		return false
	}
	if r.LT != nil && v >= *r.LT {
		return false
	}
	return true
}

// valueEquals compares a document value with a query value: strings as
// strings, integers with intOf's coercion (so a bool is 0/1 and a
// json.Number an integer), and otherwise by their printed forms, which is
// how "true" equals a bool and "5" the integer 5. A nil value equals an
// absent field and nothing else.
func valueEquals(have, want any) bool {
	if have == nil || want == nil {
		return have == nil && want == nil
	}
	if hs, ok := have.(string); ok {
		ws, ok := want.(string)
		return ok && hs == ws
	}
	hn, hok := intOf(have)
	wn, wok := intOf(want)
	if hok && wok {
		return hn == wn
	}
	return fmt.Sprintf("%v", have) == fmt.Sprintf("%v", want)
}

// cursorVal renders one document value as a cursor scalar: strings stay
// strings, integers (bool included, as sorting coerces through intOf)
// become int64, anything else is null.
func cursorVal(v any) any {
	if s, ok := v.(string); ok {
		return s
	}
	if n, ok := intOf(v); ok {
		return n
	}
	return nil
}

// oracleRows returns every hot row of ix as a document, in global-id order,
// with the global id of the first. Placement is round-robin, so the m-th
// row past the base lives in shard m%S at local position m/S.
func oracleRows(ix *Index) (rows []Document, base int) {
	for _, sh := range ix.shards {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	n, S := 0, len(ix.shards)
	for _, sh := range ix.shards {
		n += sh.rows.len()
	}
	rows = make([]Document, n)
	for m := range rows {
		rows[m] = EventToDoc(ix.shards[m%S].eventAt(m / S))
	}
	return rows, int(ix.base.Load())
}

// oracleCache holds the documents of the last index state the oracle read:
// a differential test asks many requests of one state, and materializing
// every row for each of them dominated its run time. A state is keyed by
// what any change to the hot rows moves — the index epoch (every mutation
// bumps it), the base gid (a flush's eviction advances it) and the hot row
// count — and by the index, which the entry holds so that its address is not
// reused while cached. The oracle reads a quiescent index: a mutation in
// flight across two reads of one key would go unseen by the second.
var oracleCache struct {
	sync.Mutex
	ix      *Index
	epoch   uint64
	base, n int
	rows    []Document
}

// sharedOracleRows is oracleRows through oracleCache, for the oracle's
// read-only passes: the documents are shared and must not be modified.
func sharedOracleRows(ix *Index) (rows []Document, base int) {
	n := 0
	for _, sh := range ix.shards {
		n += sh.len()
	}
	c := &oracleCache
	c.Lock()
	defer c.Unlock()
	if c.ix != ix || c.epoch != ix.epoch.Load() || c.base != int(ix.base.Load()) || c.n != n {
		c.ix, c.epoch = ix, ix.epoch.Load()
		c.rows, c.base = oracleRows(ix)
		c.n = len(c.rows)
	}
	return c.rows, c.base
}

// oracleCorrelate applies file-path correlation (§II-C) to rows by brute
// force, in place, and returns the pass's accounting: per tag of the session
// (every session when empty) the earliest open-variant row that carries a
// kernel path names it (path as the tie-break), any other path-carrying row
// only where no open did; then every tagged row of the scope without a
// file_path takes its own kernel path, else its tag's.
func oracleCorrelate(rows []Document, session string) CorrelationResult {
	type anchor struct {
		path string
		t    int64
		open bool
	}
	str := func(d Document, f string) string { s, _ := d[f].(string); return s }
	inScope := func(d Document) bool {
		return str(d, FieldFileTag) != "" && (session == "" || str(d, FieldSession) == session)
	}
	dict := map[string]anchor{}
	for _, d := range rows {
		if !inScope(d) || str(d, FieldKernelPath) == "" {
			continue
		}
		sys := str(d, FieldSyscall)
		c := anchor{str(d, FieldKernelPath), d[FieldTimeEnter].(int64), sys == "open" || sys == "openat" || sys == "creat"}
		cur, seen := dict[str(d, FieldFileTag)]
		if !seen || (c.open && !cur.open) ||
			(c.open == cur.open && (c.t < cur.t || (c.t == cur.t && c.path < cur.path))) {
			dict[str(d, FieldFileTag)] = c
		}
	}
	res := CorrelationResult{TagsResolved: len(dict)}
	for _, d := range rows {
		if !inScope(d) {
			continue
		}
		res.EventsWithTag++
		c, named := dict[str(d, FieldFileTag)]
		switch {
		case str(d, FieldFilePath) != "":
			res.EventsAlreadyResolved++
		case str(d, FieldKernelPath) != "":
			d[FieldFilePath] = d[FieldKernelPath]
			res.EventsUpdated++
		case named:
			d[FieldFilePath] = c.path
			res.EventsUpdated++
		default:
			res.EventsUnresolved++
		}
	}
	return res
}

// oracleCount counts the hot rows matching q.
func oracleCount(ix *Index, q Query) int {
	rows, _ := sharedOracleRows(ix)
	n := 0
	for _, d := range rows {
		if q.Matches(d) {
			n++
		}
	}
	return n
}

// oracleSearch answers req by brute force. A search_after cursor is honoured
// by skipping the prefix of the fully sorted match list that does not sort
// strictly after it (sort keys first, global id as the tie-break); the
// cursor is assumed well-formed.
func oracleSearch(ix *Index, req SearchRequest) SearchResponse {
	rows, base := sharedOracleRows(ix)
	var matched []Document
	var gids []int
	for m, d := range rows {
		if req.Query.Matches(d) {
			matched = append(matched, d)
			gids = append(gids, base+m)
		}
	}
	// Sort a permutation so each document keeps its gid; stability makes
	// ties fall in gid order.
	ord := make([]int, len(matched))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(i, j int) bool {
		for _, s := range req.Sort {
			if r := cmpField(matched[ord[i]][s.Field], matched[ord[j]][s.Field], s.Desc); r != 0 {
				return r < 0
			}
		}
		return false
	})

	resp := SearchResponse{Total: len(matched)}
	if len(req.Aggs) > 0 {
		resp.Aggs = make(map[string]AggResult, len(req.Aggs))
		for name, a := range req.Aggs {
			resp.Aggs[name] = oracleAgg(a, matched)
		}
	}

	if len(req.SearchAfter) > 0 {
		vals := req.SearchAfter[:len(req.Sort)]
		after, _ := intOf(req.SearchAfter[len(req.Sort)])
		past := func(i int) bool {
			for k, s := range req.Sort {
				if r := cmpField(matched[i][s.Field], cursorValue(matched[i][s.Field], vals[k]), s.Desc); r != 0 {
					return r > 0
				}
			}
			return gids[i] > int(after)
		}
		for len(ord) > 0 && !past(ord[0]) {
			ord = ord[1:]
		}
	}
	if req.From >= len(ord) {
		ord = nil
	} else {
		ord = ord[req.From:]
	}
	if req.Size > 0 && len(ord) > req.Size {
		ord = ord[:req.Size]
	}
	resp.Hits = make([]Document, len(ord))
	for i, oi := range ord {
		resp.Hits[i] = matched[oi]
	}
	if req.Size > 0 && len(ord) == req.Size {
		last := ord[len(ord)-1]
		for _, s := range req.Sort {
			resp.NextAfter = append(resp.NextAfter, cursorVal(matched[last][s.Field]))
		}
		resp.NextAfter = append(resp.NextAfter, gids[last])
	}
	return resp
}

// cursorValue is cursor value v as compared with doc, a row's value for the
// sort field: a string that spells an integer is that integer where the row
// holds an integer (or a has_offset bool), as it is where the row holds a
// string or nothing.
func cursorValue(doc, v any) any {
	if s, ok := v.(string); ok {
		if _, isInt := intOf(doc); isInt {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				return n
			}
		}
	}
	return v
}

// cmpField orders two document values under one sort direction: as integers
// when both coerce, by key string otherwise — the boxed comparison the
// engine's cmpKeys must reproduce unboxed. Returns -1, 0, or +1.
func cmpField(av, bv any, desc bool) int {
	af, aok := intOf(av)
	bf, bok := intOf(bv)
	if aok && bok {
		return cmpOrdered(af, bf, desc)
	}
	return cmpOrdered(keyString(av), keyString(bv), desc)
}

// oracleAgg aggregates docs one document at a time: every bucket is a slice
// of documents and sub-aggregations recurse over those slices. It shares no
// code with the partial/combine/finalize pipeline — only the scalar helpers
// keyString and intOf.
func oracleAgg(a Agg, docs []Document) AggResult {
	subs := func(group []Document) map[string]AggResult {
		if len(a.Aggs) == 0 {
			return nil
		}
		out := make(map[string]AggResult, len(a.Aggs))
		for name, sub := range a.Aggs {
			out[name] = oracleAgg(sub, group)
		}
		return out
	}
	numbers := func(field string) []float64 {
		var vals []float64
		for _, d := range docs {
			if n, ok := intOf(d[field]); ok {
				vals = append(vals, float64(n))
			}
		}
		return vals
	}
	switch {
	case a.Terms != nil:
		groups := make(map[string][]Document)
		for _, d := range docs {
			k := keyString(d[a.Terms.Field])
			groups[k] = append(groups[k], d)
		}
		buckets := make([]Bucket, 0, len(groups))
		for k, g := range groups {
			buckets = append(buckets, Bucket{Key: k, Count: len(g), Sub: subs(g)})
		}
		sort.Slice(buckets, func(i, j int) bool {
			if buckets[i].Count != buckets[j].Count {
				return buckets[i].Count > buckets[j].Count
			}
			return buckets[i].Key < buckets[j].Key
		})
		if a.Terms.Size > 0 && len(buckets) > a.Terms.Size {
			buckets = buckets[:a.Terms.Size]
		}
		return AggResult{Buckets: buckets}
	case a.DateHistogram != nil:
		interval := a.DateHistogram.IntervalNS
		if interval <= 0 {
			interval = 1
		}
		groups := make(map[int64][]Document)
		for _, d := range docs {
			n, ok := intOf(d[a.DateHistogram.Field])
			if !ok {
				continue
			}
			// The floor of n/interval, times interval, clipped at MinInt64.
			b := new(big.Int).Mul(new(big.Int).Div(big.NewInt(n), big.NewInt(interval)), big.NewInt(interval))
			if !b.IsInt64() {
				b.SetInt64(math.MinInt64)
			}
			groups[b.Int64()] = append(groups[b.Int64()], d)
		}
		keys := make([]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		buckets := make([]Bucket, 0, len(keys))
		for _, k := range keys {
			g := groups[k]
			buckets = append(buckets, Bucket{Key: strconv.FormatInt(k, 10), KeyNum: float64(k), Count: len(g), Sub: subs(g)})
		}
		return AggResult{Buckets: buckets}
	case a.Percentiles != nil:
		vals := numbers(a.Percentiles.Field)
		if len(vals) == 0 {
			return AggResult{}
		}
		sort.Float64s(vals)
		percents := a.Percentiles.Percents
		if len(percents) == 0 {
			percents = []float64{50, 90, 95, 99}
		}
		out := make(map[string]float64, len(percents))
		for _, pct := range percents {
			// Nearest rank, clamped to the value range.
			rank := int(math.Ceil(pct / 100 * float64(len(vals))))
			rank = max(1, min(rank, len(vals)))
			out[strconv.FormatFloat(pct, 'g', -1, 64)] = vals[rank-1]
		}
		return AggResult{Percentiles: out}
	case a.Stats != nil:
		// The sum is exact, a big.Int, and the sum and the mean each round
		// to float64 once, at 53 bits.
		var res StatsResult
		sum := new(big.Int)
		for _, d := range docs {
			n, ok := intOf(d[a.Stats.Field])
			if !ok {
				continue
			}
			if f := float64(n); res.Count == 0 || f < res.Min {
				res.Min = f
			}
			if f := float64(n); res.Count == 0 || f > res.Max {
				res.Max = f
			}
			res.Count++
			sum.Add(sum, big.NewInt(n))
		}
		if res.Count > 0 {
			exact := new(big.Float).SetInt(sum)
			res.Sum, _ = new(big.Float).SetPrec(53).Set(exact).Float64()
			res.Avg, _ = new(big.Float).SetPrec(53).Quo(exact, new(big.Float).SetInt64(int64(res.Count))).Float64()
		}
		return AggResult{Stats: &res}
	default:
		return AggResult{}
	}
}
