package store

import "github.com/dsrhaslab/dio-go/internal/event"

// Continuous rollups: every shard maintains pre-merged AggPartial shapes for
// the dashboard aggregations — terms counts over the indexed keyword fields
// and a base-interval date histogram of time_enter_ns — incrementally at
// ingest. A query whose filter the rollup can key exactly (match-all, or a
// single term on the session field) and whose aggregations have no
// sub-aggregations is answered from these partials instead of scanning the
// shard, which is what keeps p99 dashboard latency flat while typed ingest
// runs at full rate.
//
// Correctness rules, each mirroring the scan path it replaces:
//
//   - Terms counts key by keyString (missing fields land in ""), exactly as
//     shard.termCounts does for a full scan.
//   - The histogram keys at base-aligned truncated buckets; an aggregation
//     interval I is servable iff I % base == 0, and re-bucketing a
//     base-aligned key to I is exact (trunc division composes for I = k·base).
//   - bySession groups rows by their session string, and only a Term filter
//     whose value is a string is served from it (valueEquals has Sprintf
//     coercion edges — numeric 5 matches "5" — that string-keyed maps cannot
//     reproduce).
//   - A stored row's indexed fields and time never change (the store's one
//     update names file paths), so a rollup is never stale.
//   - Total map-key cardinality is capped; past the cap the rollup frees its
//     maps and serves nothing until eviction starts it afresh, so adversarial
//     key cardinality degrades to the scan path instead of growing RSS.
const defaultRollupIntervalNS = int64(100_000_000) // 100ms histogram base

// maxRollupKeys caps the total map keys one shard's rollup may hold across
// all partials (a package variable so tests can force overflow cheaply).
var maxRollupKeys = 1 << 16

// rollupPartial is the pre-merged aggregation state for one group of rows:
// per-indexed-field term counts and the base-aligned time_enter histogram.
// Both maps are exactly the count-only AggPartial shapes the merge layer
// (combinePartials) consumes, so serving is a pointer handoff under the held
// read lock.
type rollupPartial struct {
	terms [len(indexedFields)]map[string]int
	hist  map[int64]int
}

// rollupSlot maps an indexed field name to its terms slot, -1 when the field
// is not indexed.
func rollupSlot(field string) int {
	for i, f := range indexedFields {
		if f == field {
			return i
		}
	}
	return -1
}

func newRollupPartial() *rollupPartial {
	p := &rollupPartial{hist: make(map[int64]int)}
	for i := range p.terms {
		p.terms[i] = make(map[string]int)
	}
	return p
}

// shardRollup is one shard's continuous rollup state. All access is under the
// shard's mutex: ingest maintenance under the write lock, serving under the
// read lock.
type shardRollup struct {
	base int64 // histogram bucket width in ns (> 0; 0 never constructs one)

	overflow bool // key cap exceeded; serve nothing

	keys int // total map keys across all partials, for the cap

	all       *rollupPartial
	bySession map[string]*rollupPartial
}

func newShardRollup(base int64) *shardRollup {
	return &shardRollup{
		base:      base,
		all:       newRollupPartial(),
		bySession: make(map[string]*rollupPartial),
	}
}

// live reports whether the rollup can serve right now.
func (r *shardRollup) live() bool { return r != nil && !r.overflow }

// drop frees the maps after a cap overflow; ingest skips maintenance from
// then on.
func (r *shardRollup) drop() {
	r.overflow = true
	r.all, r.bySession = nil, nil
	r.keys = 0
}

// incTerm / incHist count one row into a map, tracking total key cardinality
// through len() deltas (O(1), no double lookup).
func (r *shardRollup) incTerm(m map[string]int, k string) {
	n := len(m)
	m[k]++
	if len(m) != n {
		r.keys++
	}
}

func (r *shardRollup) incHist(m map[int64]int, k int64) {
	n := len(m)
	m[k]++
	if len(m) != n {
		r.keys++
	}
}

// sessionPartial returns the per-session group for key s, creating it on
// first use.
func (r *shardRollup) sessionPartial(s string) *rollupPartial {
	p := r.bySession[s]
	if p == nil {
		p = newRollupPartial()
		r.bySession[s] = p
		r.keys++
	}
	return p
}

// addEvent folds one row into the rollup. Caller holds the shard write lock.
// Steady state (known session, known terms, in-range bucket) performs only
// map increments — no allocation — which is what keeps the ingest path inside
// its AllocsPerRun budget.
func (r *shardRollup) addEvent(e *event.Event) {
	if !r.live() {
		return
	}
	bucket := e.TimeEnterNS / r.base * r.base
	r.bumpEvent(r.all, e, bucket)
	r.bumpEvent(r.sessionPartial(e.Session), e, bucket)
	if r.keys > maxRollupKeys {
		r.drop()
	}
}

func (r *shardRollup) bumpEvent(p *rollupPartial, e *event.Event, bucket int64) {
	r.incTerm(p.terms[0], e.Session)
	r.incTerm(p.terms[1], e.Syscall)
	r.incTerm(p.terms[2], e.ProcName)
	r.incTerm(p.terms[3], e.ThreadName)
	r.incTerm(p.terms[4], e.Class)
	r.incHist(p.hist, bucket)
}

// rollupPlan is the per-request decision of which aggregations the rollups
// can serve, computed once before the shard fan-out. nil means the request is
// not rollup-eligible at all.
type rollupPlan struct {
	matchAll bool
	session  string // valid when !matchAll: the Term(session, …) filter value
	served   map[string]bool
}

// planRollup inspects the request: the filter must be match-all or exactly
// one term on the session field with a string value, and a served
// aggregation must be a no-sub-agg terms over an indexed field or a
// no-sub-agg date histogram over time_enter_ns whose interval is a multiple
// of the rollup base. The plan covers the whole read view: an entry with no
// rollup (a cold segment's shard) scans the aggregations it names.
func (ix *Index) planRollup(req SearchRequest) *rollupPlan {
	if ix.rollupBase <= 0 || len(req.Aggs) == 0 {
		return nil
	}
	p := &rollupPlan{}
	q := req.Query
	switch {
	case q.matchesAll():
		p.matchAll = true
	case q.Term != nil && q.Term.Field == FieldSession &&
		q.Terms == nil && q.Range == nil && q.Prefix == nil && q.Exists == nil && q.Bool == nil:
		s, ok := q.Term.Value.(string)
		if !ok {
			return nil
		}
		p.session = s
	default:
		return nil
	}
	for name, a := range req.Aggs {
		if !rollupServable(a, ix.rollupBase) {
			continue
		}
		if p.served == nil {
			p.served = make(map[string]bool, len(req.Aggs))
		}
		p.served[name] = true
	}
	if p.served == nil {
		return nil
	}
	return p
}

// rollupServable reports whether one aggregation's shape can come from the
// rollup partials.
func rollupServable(a Agg, base int64) bool {
	if len(a.Aggs) > 0 {
		return false
	}
	switch {
	case a.Terms != nil:
		return rollupSlot(a.Terms.Field) >= 0
	case a.DateHistogram != nil:
		return a.DateHistogram.Field == FieldTimeEnter &&
			a.DateHistogram.IntervalNS > 0 && a.DateHistogram.IntervalNS%base == 0
	default:
		return false
	}
}

// rollupServe answers one planned aggregation from the shard's rollup, or
// nil to fall back to the scan (no rollup, as on a cold segment's shard, or
// one dropped past the key cap).
// Caller holds the shard read lock; the returned partial aliases the
// live rollup maps, which is safe because combinePartials only reads and the
// read lock is held through the merge.
func (sh *shard) rollupServe(p *rollupPlan, a Agg) *AggPartial {
	r := sh.rollup
	if !r.live() {
		return nil
	}
	var g *rollupPartial
	if p.matchAll {
		g = r.all
	} else if g = r.bySession[p.session]; g == nil {
		// No rows for this session in this shard: an empty partial.
		return &AggPartial{}
	}
	if a.Terms != nil {
		return &AggPartial{TermCounts: g.terms[rollupSlot(a.Terms.Field)]}
	}
	interval := a.DateHistogram.IntervalNS
	if interval == r.base {
		return &AggPartial{HistCounts: g.hist}
	}
	// Re-bucket the base-aligned keys to the coarser interval. Exact for
	// interval = k·base: truncating toward zero in two steps equals one.
	counts := make(map[int64]int, len(g.hist))
	for k, n := range g.hist {
		counts[k/interval*interval] += n
	}
	return &AggPartial{HistCounts: counts}
}
