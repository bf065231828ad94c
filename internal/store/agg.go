package store

import (
	"math"
	"sort"
	"strconv"
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

// apply runs the aggregation over the matched documents.
func (a Agg) apply(docs []Document) AggResult {
	switch {
	case a.Terms != nil:
		return a.applyTerms(docs)
	case a.DateHistogram != nil:
		return a.applyDateHistogram(docs)
	case a.Percentiles != nil:
		return applyPercentiles(docs, a.Percentiles)
	case a.Stats != nil:
		return applyStats(docs, a.Stats)
	default:
		return AggResult{}
	}
}

func (a Agg) applySubs(docs []Document) map[string]AggResult {
	if len(a.Aggs) == 0 {
		return nil
	}
	out := make(map[string]AggResult, len(a.Aggs))
	for name, sub := range a.Aggs {
		out[name] = sub.apply(docs)
	}
	return out
}

func (a Agg) applyTerms(docs []Document) AggResult {
	groups := make(map[string][]Document)
	for _, d := range docs {
		k := keyString(d[a.Terms.Field])
		groups[k] = append(groups[k], d)
	}
	return a.finalizeTerms(groups)
}

// finalizeTerms turns (possibly merged) term groups into ordered, truncated
// buckets with sub-aggregations.
func (a Agg) finalizeTerms(groups map[string][]Document) AggResult {
	buckets := make([]Bucket, 0, len(groups))
	for k, g := range groups {
		buckets = append(buckets, Bucket{Key: k, Count: len(g), Sub: a.applySubs(g)})
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
}

// finalizeTermCounts is finalizeTerms for count-only partials (no sub-aggs).
func (a Agg) finalizeTermCounts(counts map[string]int) AggResult {
	buckets := make([]Bucket, 0, len(counts))
	for k, n := range counts {
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
	return AggResult{Buckets: buckets}
}

// finalizeHistCounts is finalizeHistogram for count-only partials.
func (a Agg) finalizeHistCounts(counts map[int64]int) AggResult {
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buckets := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		buckets = append(buckets, Bucket{
			Key:    strconv.FormatInt(k, 10),
			KeyNum: float64(k),
			Count:  counts[k],
		})
	}
	return AggResult{Buckets: buckets}
}

func (a Agg) applyDateHistogram(docs []Document) AggResult {
	interval := a.DateHistogram.IntervalNS
	if interval <= 0 {
		interval = 1
	}
	groups := make(map[int64][]Document)
	for _, d := range docs {
		f, ok := numeric(d[a.DateHistogram.Field])
		if !ok {
			continue
		}
		b := int64(f) / interval * interval
		groups[b] = append(groups[b], d)
	}
	return a.finalizeHistogram(groups)
}

// finalizeHistogram turns (possibly merged) interval groups into ordered
// buckets with sub-aggregations.
func (a Agg) finalizeHistogram(groups map[int64][]Document) AggResult {
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buckets := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		buckets = append(buckets, Bucket{
			Key:    strconv.FormatInt(k, 10),
			KeyNum: float64(k),
			Count:  len(g),
			Sub:    a.applySubs(g),
		})
	}
	return AggResult{Buckets: buckets}
}

func applyPercentiles(docs []Document, p *PercentilesAgg) AggResult {
	vals := make([]float64, 0, len(docs))
	for _, d := range docs {
		if f, ok := numeric(d[p.Field]); ok {
			vals = append(vals, f)
		}
	}
	sort.Float64s(vals)
	return percentilesFromSorted(vals, p)
}

// percentilesFromSorted computes the requested percentiles of pre-sorted
// values.
func percentilesFromSorted(sorted []float64, p *PercentilesAgg) AggResult {
	percents := p.Percents
	if len(percents) == 0 {
		percents = []float64{50, 90, 95, 99}
	}
	out := make(map[string]float64, len(percents))
	for _, pct := range percents {
		out[strconv.FormatFloat(pct, 'g', -1, 64)] = percentileOf(sorted, pct)
	}
	return AggResult{Percentiles: out}
}

// percentileOf computes the pct-th percentile of sorted vals using the
// nearest-rank method.
func percentileOf(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if pct <= 0 {
		return sorted[0]
	}
	if pct >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func applyStats(docs []Document, s *StatsAgg) AggResult {
	res := StatsResult{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, d := range docs {
		f, ok := numeric(d[s.Field])
		if !ok {
			continue
		}
		res.Count++
		res.Sum += f
		if f < res.Min {
			res.Min = f
		}
		if f > res.Max {
			res.Max = f
		}
	}
	return AggResult{Stats: finalizeStats(res)}
}

// finalizeStats computes the average and normalizes the empty accumulator.
func finalizeStats(res StatsResult) *StatsResult {
	if res.Count > 0 {
		res.Avg = res.Sum / float64(res.Count)
	} else {
		res.Min, res.Max = 0, 0
	}
	return &res
}

// --- Per-shard partials and their merges ---
//
// The sharded Search computes one partialAgg per (shard, aggregation) while
// holding only that shard's read lock, then merges the partials lock-free:
// bucketing aggregations merge their group maps (sub-aggregations run on the
// merged groups, so nesting stays exact), percentiles stream-merge per-shard
// sorted value slices, and stats combine their accumulators.

// partialAgg is one shard's mergeable contribution to an aggregation.
// Bucketing aggregations without sub-aggregations carry only bucket counts;
// document groups are materialized only when nested aggregations need to run
// over the merged groups.
type partialAgg struct {
	terms      map[string][]Document // TermsAgg groups (sub-aggs present)
	termCounts map[string]int        // TermsAgg counts (no sub-aggs)
	hist       map[int64][]Document  // DateHistogramAgg groups (sub-aggs present)
	histCounts map[int64]int         // DateHistogramAgg counts (no sub-aggs)
	vals       []float64             // PercentilesAgg values, sorted
	stats      *StatsResult          // StatsAgg raw accumulator (no Avg, ±Inf when empty)
}

// termCounts tallies ids by term. When the matched set is the whole shard
// and the field is indexed, the counts are just the posting-list lengths
// (every row posts a term in every indexed field) — no per-row work at all.
func (sh *shard) termCounts(t *TermsAgg, ids []int32) map[string]int {
	if pl, ok := sh.postings[t.Field]; ok && len(ids) == len(sh.events) {
		counts := make(map[string]int, len(pl))
		for term, l := range pl {
			counts[term] = len(l)
		}
		return counts
	}
	counts := make(map[string]int)
	for _, id := range ids {
		counts[keyString(sh.val(id, t.Field))]++
	}
	return counts
}

// partial computes a's partial over the matched local ids, reading numeric
// fields through the shard's columnar caches. Caller holds the read lock.
func (sh *shard) partial(a Agg, ids []int32) *partialAgg {
	switch {
	case a.Terms != nil:
		if len(a.Aggs) == 0 {
			return &partialAgg{termCounts: sh.termCounts(a.Terms, ids)}
		}
		groups := make(map[string][]Document)
		for _, id := range ids {
			// Sub-aggregations run over merged Document groups, so rows
			// materialize here — the one aggregation path that still needs maps.
			d := sh.docView(id)
			k := keyString(d[a.Terms.Field])
			groups[k] = append(groups[k], d)
		}
		return &partialAgg{terms: groups}
	case a.DateHistogram != nil:
		interval := a.DateHistogram.IntervalNS
		if interval <= 0 {
			interval = 1
		}
		c := sh.cols[a.DateHistogram.Field]
		if len(a.Aggs) == 0 {
			counts := make(map[int64]int)
			for _, id := range ids {
				f, ok := sh.colVal(c, a.DateHistogram.Field, id)
				if !ok {
					continue
				}
				counts[int64(f)/interval*interval]++
			}
			return &partialAgg{histCounts: counts}
		}
		groups := make(map[int64][]Document)
		for _, id := range ids {
			f, ok := sh.colVal(c, a.DateHistogram.Field, id)
			if !ok {
				continue
			}
			b := int64(f) / interval * interval
			groups[b] = append(groups[b], sh.docView(id))
		}
		return &partialAgg{hist: groups}
	case a.Percentiles != nil:
		c := sh.cols[a.Percentiles.Field]
		vals := make([]float64, 0, len(ids))
		for _, id := range ids {
			if f, ok := sh.colVal(c, a.Percentiles.Field, id); ok {
				vals = append(vals, f)
			}
		}
		sort.Float64s(vals)
		return &partialAgg{vals: vals}
	case a.Stats != nil:
		c := sh.cols[a.Stats.Field]
		res := StatsResult{Min: math.Inf(1), Max: math.Inf(-1)}
		for _, id := range ids {
			f, ok := sh.colVal(c, a.Stats.Field, id)
			if !ok {
				continue
			}
			res.Count++
			res.Sum += f
			if f < res.Min {
				res.Min = f
			}
			if f > res.Max {
				res.Max = f
			}
		}
		return &partialAgg{stats: &res}
	default:
		return &partialAgg{}
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
