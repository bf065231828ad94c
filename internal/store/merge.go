package store

import "math/bits"

// The merge layer: node-count-agnostic reductions shared by the two fan-out
// levels. Inside one Index the sharded search produces a shardResult per lock
// stripe and merges them (DESIGN.md §5); in cluster mode a coordinator
// scatters the same request across partition nodes and gathers per-node
// ScatterResponses (DESIGN.md §16). Both levels reduce through the functions
// in this file: a k-way ordered merge for hits (mergePage), combinable (not yet
// finalized) aggregation partials, and plain integer sums for counts. The
// split between combinePartials and finalizePartial is what makes the
// two-level composition exact — partials combine associatively at each level
// and finalize exactly once, at the top, so bucket ordering, terms-size
// truncation, and percentile ranks are computed over the complete data no
// matter how many times it was partitioned on the way up.

// hitSource is one ascending input of the page merge (mergePage): a slice of
// refs, or an entry's positioned walk of its list (e non-nil, pageWalk). A
// walk yields the entries of l at positions [p, hi), each with its key as l
// holds it and kept when keep (nil keeps all) says so; a descending walk then
// yields every run of equal values below lo, last run first and each run
// forward, so ties keep ascending ids, as hitLess orders them. head is the
// ref advance last yielded, and done whether advance found none. A walk's
// head names e's shard with an integer key from the start (pageWalk), so
// advance writes only its id, gid and key.
type hitSource struct {
	head      hitRef
	done      bool
	refs      []hitRef
	e         *readEntry
	l         termRun
	keep      func(id int32) bool
	desc      bool
	p, lo, hi int
}

// bound is the most refs s can still yield past its head.
func (s *hitSource) bound() int {
	if s.e == nil {
		return len(s.refs)
	}
	if s.desc {
		return s.hi - s.p + s.lo
	}
	return s.hi - s.p
}

// advance moves s's head to its next ref, or sets done when it has none.
func (s *hitSource) advance() {
	if s.e == nil {
		if s.done = len(s.refs) == 0; !s.done {
			s.head, s.refs = s.refs[0], s.refs[1:]
		}
		return
	}
	for {
		if s.p == s.hi {
			if !s.desc || s.lo == 0 {
				s.done = true
				return
			}
			s.hi = s.lo
			s.lo = runStart(s.l, s.hi)
			s.p = s.lo
		}
		p := s.p
		s.p++
		if id := s.l.ids[p]; s.keep == nil || s.keep(id) {
			s.head.id, s.head.gid, s.head.key = id, s.e.gidOf(id), s.l.at(p)
			return
		}
	}
}

// pageMerge is the page merge's memory: its loser tree and its window. A
// zero pageMerge allocates both for its one page; a walk keeps one across
// its pages (searchExec), so it allocates them once, for its first page.
type pageMerge struct {
	tree   []int
	window []hitRef
}

// mergePage merges srcs, each ascending under hitLess by sorts, and returns
// the window [from, from+size) of the merge, everything past from when size
// <= 0: the one k-way merge of both fan-out levels, over a node's read view
// entries and over a coordinator's partitions. A loser tree over the
// sources' heads makes each ref pulled cost ⌈log₂ k⌉ comparisons, and a
// source is read one ref past what the window takes from it, so a walk
// reads the rows the page keeps, not a page of its own. The window, in m's
// memory, is the only allocation proportional to the page, and it is valid
// until m's next merge. hitLess is a total order (the gid breaks ties), so
// the merge is the same whatever the sources' order.
func (m *pageMerge) mergePage(srcs []hitSource, sorts []sortBy, from, size int) []hitRef {
	n := -from
	for i := range srcs {
		n += srcs[i].bound()
	}
	if size > 0 {
		n = min(n, size)
	}
	if n <= 0 {
		return nil
	}
	// Node j of the tree has children 2j and 2j+1, and source i is leaf k+i.
	// loser[j] is the source that lost the match at internal node j, and
	// loser[0] the one that won them all; win[j] is the winner at node j,
	// read only to build the tree. A source with no head loses every match.
	// Two different first keys decide a single-key match with one integer
	// comparison, as hitLess would.
	k := len(srcs)
	if cap(m.tree) < 3*k {
		m.tree = make([]int, 3*k)
	}
	loser, win := m.tree[:k], m.tree[k:3*k]
	one := len(sorts) == 1
	desc := one && sorts[0].desc
	beats := func(a, b int) bool {
		x, y := &srcs[a], &srcs[b]
		if x.done || y.done {
			return !x.done
		}
		if one && x.head.keyOK && y.head.keyOK && x.head.key != y.head.key {
			return (x.head.key < y.head.key) != desc
		}
		return hitLess(&x.head, &y.head, sorts)
	}
	for i := range srcs {
		srcs[i].advance()
		win[k+i] = i
	}
	for j := k - 1; j > 0; j-- {
		a, b := win[2*j], win[2*j+1]
		if beats(b, a) {
			a, b = b, a
		}
		win[j], loser[j] = a, b
	}
	loser[0] = win[1]
	if cap(m.window) < n {
		m.window = make([]hitRef, 0, n)
	}
	out := m.window[:0]
	for w := loser[0]; !srcs[w].done; loser[0] = w {
		s := &srcs[w]
		if from > 0 {
			from--
		} else if out = append(out, s.head); len(out) == n {
			break
		}
		s.advance()
		// Replay w's path to the root: each match it loses parks it and sends
		// the node's old loser on up.
		for j := (k + w) / 2; j > 0; j /= 2 {
			if beats(loser[j], w) {
				loser[j], w = w, loser[j]
			}
		}
	}
	return out
}

// StatsPartial is a stats aggregation's mergeable accumulator: the count of
// values, the least and the greatest, and their sum as a 128-bit two's
// complement integer (SumHi the high word, SumLo the low one), which no sum
// of int64 values can overflow. The sum is exact, so partials combine in any
// order and grouping — by shard, by tier, by partition — to the same
// accumulator, and it rounds to float64 once, in finalizeStats: a stats
// answer does not depend on how the rows are laid out. Min and Max are
// meaningless where Count is 0.
type StatsPartial struct {
	Count int    `json:"count"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	SumHi int64  `json:"sum_hi"`
	SumLo uint64 `json:"sum_lo"`
}

// add folds one value into s.
func (s *StatsPartial) add(n int64) {
	s.combine(&StatsPartial{Count: 1, Min: n, Max: n, SumHi: n >> 63, SumLo: uint64(n)})
}

// combine folds the accumulator p into s.
func (s *StatsPartial) combine(p *StatsPartial) {
	if p == nil || p.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min, s.Max = p.Min, p.Max
	}
	s.Min, s.Max = min(s.Min, p.Min), max(s.Max, p.Max)
	s.Count += p.Count
	var carry uint64
	s.SumLo, carry = bits.Add64(s.SumLo, p.SumLo, 0)
	s.SumHi += p.SumHi + int64(carry)
}

// AggPartial is one mergeable aggregation partial: what a shard contributes
// to the intra-node merge and, unchanged, what a partition node ships back
// from a scatter instead of a finalized AggResult, so the coordinator can
// combine partials across nodes and finalize once. A bucketing aggregation
// carries its bucket counts; with sub-aggregations it also carries, per
// bucket, one nested partial per sub-aggregation name — the tree is
// O(buckets) on the wire however many rows matched. Integer-keyed histogram
// maps survive JSON (Go renders int64 map keys as decimal strings); an empty
// stats accumulator is a missing Stats field because its ±Inf min/max
// sentinels have no JSON encoding.
type AggPartial struct {
	TermCounts map[string]int `json:"term_counts,omitempty"` // TermsAgg bucket counts
	HistCounts map[int64]int  `json:"hist_counts,omitempty"` // DateHistogramAgg bucket counts
	// Subs holds the sub-aggregation partials of a bucketing aggregation:
	// bucket key (Bucket.Key rendering: the term, or the histogram key in
	// decimal) -> sub-aggregation name -> partial.
	Subs  map[string]map[string]*AggPartial `json:"subs,omitempty"`
	Vals  []float64                         `json:"vals,omitempty"`  // PercentilesAgg values, sorted
	Stats *StatsPartial                     `json:"stats,omitempty"` // StatsAgg accumulator
}

// combinePartials folds per-stripe (or per-node) partials of one aggregation
// into a single combined partial without finalizing it. The operation is
// associative and commutative over the count maps, the nested partials, and
// the stats accumulators, and order-preserving over the sorted percentile
// values, so partials can combine level by level — shards into a node
// partial, node partials into a cluster one — and finalize once at the top.
func combinePartials(a Agg, parts []*AggPartial) *AggPartial {
	switch {
	case a.Terms != nil:
		counts := make(map[string]int)
		for _, p := range parts {
			for k, n := range p.TermCounts {
				counts[k] += n
			}
		}
		return &AggPartial{TermCounts: counts, Subs: combineSubs(a, parts)}
	case a.DateHistogram != nil:
		counts := make(map[int64]int)
		for _, p := range parts {
			for k, n := range p.HistCounts {
				counts[k] += n
			}
		}
		return &AggPartial{HistCounts: counts, Subs: combineSubs(a, parts)}
	case a.Percentiles != nil:
		var merged []float64
		for _, p := range parts {
			merged = mergeSortedFloats(merged, p.Vals)
		}
		return &AggPartial{Vals: merged}
	case a.Stats != nil:
		var res StatsPartial
		for _, p := range parts {
			res.combine(p.Stats)
		}
		if res.Count == 0 {
			return &AggPartial{}
		}
		return &AggPartial{Stats: &res}
	default:
		return &AggPartial{}
	}
}

// combineSubs combines the parts' nested partials per (bucket, sub-aggregation
// name). A null partial, which only a foreign wire body can carry, is dropped.
func combineSubs(a Agg, parts []*AggPartial) map[string]map[string]*AggPartial {
	if len(a.Aggs) == 0 {
		return nil
	}
	grouped := make(map[string]map[string][]*AggPartial)
	for _, p := range parts {
		for key, subs := range p.Subs {
			g := grouped[key]
			if g == nil {
				g = make(map[string][]*AggPartial, len(a.Aggs))
				grouped[key] = g
			}
			for name, sp := range subs {
				if sp != nil {
					g[name] = append(g[name], sp)
				}
			}
		}
	}
	out := make(map[string]map[string]*AggPartial, len(grouped))
	for key, g := range grouped {
		subs := make(map[string]*AggPartial, len(g))
		for name, sps := range g {
			subs[name] = combinePartials(a.Aggs[name], sps)
		}
		out[key] = subs
	}
	return out
}

// finalizePartial turns a fully-combined partial into the aggregation's final
// result: bucket ordering and truncation, the same for every bucket's nested
// partials, percentile ranks over the complete sorted values, and the stats
// average. nil finalizes as the empty partial (an aggregation no stripe
// contributed to).
func finalizePartial(a Agg, p *AggPartial) AggResult {
	if p == nil {
		p = &AggPartial{}
	}
	switch {
	case a.Terms != nil:
		return a.finalizeTermCounts(p)
	case a.DateHistogram != nil:
		return a.finalizeHistCounts(p)
	case a.Percentiles != nil:
		return percentilesFromSorted(p.Vals, a.Percentiles)
	case a.Stats != nil:
		return AggResult{Stats: finalizeStats(p.Stats)}
	default:
		return AggResult{}
	}
}

// MergeAggPartials combines partials from any number of partitions and
// finalizes the result — the cluster coordinator's half of the two-level
// aggregation reduction. It is the same combine+finalize the intra-node shard
// merge uses, so a 1-node and an N-node execution of one request produce
// identical AggResults.
func MergeAggPartials(a Agg, parts []AggPartial) AggResult {
	ps := make([]*AggPartial, len(parts))
	for i := range parts {
		ps[i] = &parts[i]
	}
	return finalizePartial(a, combinePartials(a, ps))
}

// floorDiv is integer division rounding toward negative infinity: a
// histogram bucket's start (histKey), and the gid arithmetic for translating
// a cluster-global cursor position onto one partition (the translated bound
// may be -1 when the position precedes every row the partition owns).
func floorDiv[T int | int64](a, b T) T {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// partitionGidAfter translates a cluster-global resume position onto
// partition p of n: the greatest node-local row id q such that every local
// row l with l > q has cluster-global id l*n+p > gid. Both cursor tie-breaks
// and unsorted resume arithmetic consume it: "strictly after the global
// position" becomes "strictly after local q" on every partition, including
// the ones that do not own the boundary row.
func partitionGidAfter(gid, p, n int) int {
	return floorDiv(gid-p, n)
}
