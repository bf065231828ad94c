package store

import (
	"math"
	"math/big"
	"slices"
	"sort"
	"strconv"

	"github.com/dsrhaslab/dio-go/internal/metrics"
)

// Agg is a JSON-serializable aggregation: exactly one kind should be set.
// Sub-aggregations apply within each bucket (e.g. a date histogram of
// syscall counts split by thread name, which is how Fig. 4 is built).
type Agg struct {
	Terms         *TermsAgg         `json:"terms,omitempty"`
	DateHistogram *DateHistogramAgg `json:"date_histogram,omitempty"`
	Percentiles   *PercentilesAgg   `json:"percentiles,omitempty"`
	Stats         *StatsAgg         `json:"stats,omitempty"`
	Aggs          map[string]Agg    `json:"aggs,omitempty"`
}

// TermsAgg buckets documents by the distinct values of a field.
type TermsAgg struct {
	Field string `json:"field"`
	// Size limits the number of buckets returned (0 = all), ordered by
	// descending count then key.
	Size int `json:"size,omitempty"`
}

// DateHistogramAgg buckets documents into fixed nanosecond intervals of a
// numeric timestamp field.
type DateHistogramAgg struct {
	Field      string `json:"field"`
	IntervalNS int64  `json:"interval_ns"`
}

// PercentilesAgg estimates percentiles of a numeric field.
type PercentilesAgg struct {
	Field    string    `json:"field"`
	Percents []float64 `json:"percents,omitempty"` // default 50,90,95,99
}

// StatsAgg computes count/min/max/sum/avg of a numeric field.
type StatsAgg struct {
	Field string `json:"field"`
}

// Bucket is one group of documents produced by a bucketing aggregation.
type Bucket struct {
	Key    string               `json:"key"`
	KeyNum float64              `json:"key_num,omitempty"`
	Count  int                  `json:"count"`
	Sub    map[string]AggResult `json:"sub,omitempty"`
}

// StatsResult is the output of a stats aggregation.
type StatsResult struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Avg   float64 `json:"avg"`
}

// AggResult is the output of one aggregation.
type AggResult struct {
	Buckets     []Bucket           `json:"buckets,omitempty"`
	Percentiles map[string]float64 `json:"percentiles,omitempty"`
	Stats       *StatsResult       `json:"stats,omitempty"`
}

// finalizeSubs finalizes one bucket's sub-aggregation partials. A sub no
// stripe contributed to finalizes as the empty partial, so every bucket
// carries every sub-aggregation name.
func (a Agg) finalizeSubs(subs map[string]*AggPartial) map[string]AggResult {
	if len(a.Aggs) == 0 {
		return nil
	}
	out := make(map[string]AggResult, len(a.Aggs))
	for name, sub := range a.Aggs {
		out[name] = finalizePartial(sub, subs[name])
	}
	return out
}

// finalizeTermCounts turns fully-combined term counts into buckets ordered by
// descending count then key and truncated to Size; sub-aggregations finalize
// for the surviving buckets only.
func (a Agg) finalizeTermCounts(p *AggPartial) AggResult {
	buckets := make([]Bucket, 0, len(p.TermCounts))
	for k, n := range p.TermCounts {
		buckets = append(buckets, Bucket{Key: k, Count: n})
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
	for i := range buckets {
		buckets[i].Sub = a.finalizeSubs(p.Subs[buckets[i].Key])
	}
	return AggResult{Buckets: buckets}
}

// finalizeHistCounts turns fully-combined interval counts into buckets in
// ascending key order.
func (a Agg) finalizeHistCounts(p *AggPartial) AggResult {
	keys := make([]int64, 0, len(p.HistCounts))
	for k := range p.HistCounts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buckets := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		key := strconv.FormatInt(k, 10)
		buckets = append(buckets, Bucket{
			Key:    key,
			KeyNum: float64(k),
			Count:  p.HistCounts[k],
			Sub:    a.finalizeSubs(p.Subs[key]),
		})
	}
	return AggResult{Buckets: buckets}
}

// percentilesFromSorted computes the requested percentiles of pre-sorted
// values. An empty value set has no percentiles (and NaN has no JSON
// encoding), so it yields none.
func percentilesFromSorted(sorted []float64, p *PercentilesAgg) AggResult {
	if len(sorted) == 0 {
		return AggResult{}
	}
	percents := p.Percents
	if len(percents) == 0 {
		percents = []float64{50, 90, 95, 99}
	}
	out := make(map[string]float64, len(percents))
	for _, pct := range percents {
		out[strconv.FormatFloat(pct, 'g', -1, 64)] = metrics.Percentile(sorted, pct)
	}
	return AggResult{Percentiles: out}
}

// finalizeStats renders an accumulator as the aggregation's result: the
// exact sum and the exact mean each rounded to the nearest float64, once.
// nil, like any empty accumulator, is all zeros.
func finalizeStats(p *StatsPartial) *StatsResult {
	if p == nil || p.Count <= 0 {
		return &StatsResult{}
	}
	sum := new(big.Int).Lsh(big.NewInt(p.SumHi), 64)
	sum.Add(sum, new(big.Int).SetUint64(p.SumLo))
	r := new(big.Rat).SetInt(sum)
	total, _ := r.Float64()
	mean, _ := r.Quo(r, new(big.Rat).SetInt64(int64(p.Count))).Float64()
	return &StatsResult{Count: p.Count, Min: float64(p.Min), Max: float64(p.Max), Sum: total, Avg: mean}
}

// --- Per-shard partials ---
//
// The sharded Search computes one AggPartial per (shard, aggregation) while
// holding only that shard's read lock, then merges the partials lock-free
// (merge.go). A bucketing aggregation with sub-aggregations groups the
// matched local row ids per bucket and recurses, so every leaf of the partial
// tree is a count map, sorted value slice, or stats accumulator — no
// row is materialized to answer an aggregation at any depth.

// termCounts tallies ids, ascending, by term. A string field counts codes
// and hashes no string per row. When the field is indexed and the ids, no
// fewer than its terms, are a whole span of the shard (every row, a window of
// its time order), a posting list's entries inside the span are the term's
// rows there: its length, or two binary searches. Else the rows' codes count
// into an array indexed by code when the ids outnumber the dictionary, and
// into the term map when they do not, so a selective query over a session
// does not allocate a counter per term. Other fields count each row's key
// string: keyString of its document value, "" where the row lacks it.
func (sh *shard) termCounts(field *fieldDef, ids []int32) map[string]int {
	counts := make(map[string]int)
	f := field.slot
	switch {
	case field.kind != slotKind:
		for _, id := range ids {
			counts[field.key(sh.row(id)).text()]++
		}
	case f < len(sh.postings) && len(sh.postings[f]) <= len(ids) && int(ids[len(ids)-1]-ids[0])+1 == len(ids):
		for c, pl := range sh.postings[f] {
			i, n := 0, len(pl)
			if len(ids) < sh.rows.len() {
				i, _ = slices.BinarySearch(pl, ids[0])
				n, _ = slices.BinarySearch(pl[i:], ids[len(ids)-1]+1)
			}
			if n > 0 {
				counts[sh.dicts[f].terms[c]] = n
			}
		}
	case len(ids) <= len(sh.dicts[f].terms):
		for _, id := range ids {
			counts[sh.dicts[f].terms[sh.rows.at(int(id)).str[f]]]++
		}
	default:
		dense := make([]int, len(sh.dicts[f].terms))
		for _, id := range ids {
			dense[sh.rows.at(int(id)).str[f]]++
		}
		for c, n := range dense {
			if n > 0 {
				counts[sh.dicts[f].terms[c]] = n
			}
		}
	}
	return counts
}

// termGroups groups ids, ascending, by term, so each group stays ascending.
// It is partial's terms grouping in a function of its own so that its map is
// not in partial's frame, which is on the stack of every aggregation a
// fan-out worker computes: a worker's stack grows, by a copy, when its
// deepest frame does not fit.
func (sh *shard) termGroups(field *fieldDef, ids []int32) map[string][]int32 {
	groups := make(map[string][]int32)
	for _, id := range ids {
		k := field.key(sh.row(id)).text()
		groups[k] = append(groups[k], id)
	}
	return groups
}

// histKey returns the start of the interval bucket holding row id's field,
// floor-aligned in exact int64 arithmetic: the multiple of interval at or
// below the value, so a bucket is interval wide on both sides of zero. A
// bucket whose start would fall below MinInt64 starts at MinInt64: the first
// bucket is clipped, not wrapped. Such a start is the one product that wraps,
// to a value past the row's own.
func (sh *shard) histKey(id int32, field *fieldDef, interval int64) (int64, bool) {
	n, ok := field.read(sh.rows.at(int(id)))
	if b := floorDiv(n, interval) * interval; b <= n {
		return b, ok
	}
	return math.MinInt64, ok
}

// subPartials computes every sub-aggregation of a over one bucket's rows.
func (sh *shard) subPartials(a Agg, ids []int32) map[string]*AggPartial {
	subs := make(map[string]*AggPartial, len(a.Aggs))
	for name, sub := range a.Aggs {
		subs[name] = sh.partial(sub, ids)
	}
	return subs
}

// partial computes a's partial over the matched local ids, its field
// resolved once and every row read through the entry. Caller holds the read
// lock.
func (sh *shard) partial(a Agg, ids []int32) *AggPartial {
	switch {
	case a.Terms != nil:
		field := fieldOf(a.Terms.Field)
		if len(a.Aggs) == 0 {
			return &AggPartial{TermCounts: sh.termCounts(field, ids)}
		}
		groups := sh.termGroups(field, ids)
		p := &AggPartial{
			TermCounts: make(map[string]int, len(groups)),
			Subs:       make(map[string]map[string]*AggPartial, len(groups)),
		}
		for k, g := range groups {
			p.TermCounts[k] = len(g)
			p.Subs[k] = sh.subPartials(a, g)
		}
		return p
	case a.DateHistogram != nil:
		field, interval := fieldOf(a.DateHistogram.Field), a.DateHistogram.IntervalNS
		if interval <= 0 {
			interval = 1
		}
		nested := len(a.Aggs) > 0
		counts := make(map[int64]int)
		groups := make(map[int64][]int32)
		for _, id := range ids {
			if b, ok := sh.histKey(id, field, interval); ok {
				counts[b]++
				if nested {
					groups[b] = append(groups[b], id)
				}
			}
		}
		p := &AggPartial{HistCounts: counts}
		if nested {
			p.Subs = make(map[string]map[string]*AggPartial, len(groups))
			for b, g := range groups {
				p.Subs[strconv.FormatInt(b, 10)] = sh.subPartials(a, g)
			}
		}
		return p
	case a.Percentiles != nil:
		field, vals := fieldOf(a.Percentiles.Field), make([]float64, 0, len(ids))
		for _, id := range ids {
			if n, ok := field.read(sh.rows.at(int(id))); ok {
				vals = append(vals, float64(n))
			}
		}
		sort.Float64s(vals)
		return &AggPartial{Vals: vals}
	case a.Stats != nil:
		field, res := fieldOf(a.Stats.Field), StatsPartial{}
		for _, id := range ids {
			if n, ok := field.read(sh.rows.at(int(id))); ok {
				res.add(n)
			}
		}
		if res.Count == 0 {
			return &AggPartial{}
		}
		return &AggPartial{Stats: &res}
	default:
		return &AggPartial{}
	}
}

// mergeSortedFloats streams two ascending slices into one.
func mergeSortedFloats(a, b []float64) []float64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
