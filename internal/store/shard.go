package store

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// shard is one lock stripe of an Index. Rows are distributed across shards
// round-robin by insertion order, so shard s of S holds the rows whose global
// ids are ≡ s (mod S) and the global id of the row at local position i is
// i*S + s. Per-shard global ids are therefore always sorted in append order,
// which the merge phase of Search relies on.
//
// A row is an event.Event, stored as a plain struct: postings, columns, query
// evaluation, and aggregation read it through the typed accessors and never
// build a map; a search hit is a copy of the struct. Everything else a shard
// holds is derived from its rows: postings at append, numeric columns and
// keyword codes on demand (ensureColumns).
type shard struct {
	mu       sync.RWMutex
	rows     rows
	postings map[string]map[string][]int32 // field -> term -> local row ids
	cols     map[string]*column            // lazy numeric columns, keyed by field
	codes    map[string]*codeColumn        // lazy keyword codes of indexed fields, keyed by field
}

// column is a pre-extracted numeric view of one field: vals[i] holds the
// float64 coercion of row i's field and ok[i] whether the field was numeric.
// Columns are built lazily up to the current row count and extended on the
// next use after writes; a stored row's numeric fields never change.
//
// order is the column's sort order, built for a field that a single-key
// sorted page asked for: the shard's local ids ascending by (vals[id], id),
// the total order cmpIDs and the id tie-break define. It covers exactly the
// rows vals covers, is extended with them, and exists only while every row
// holds the field (missing == 0), so a sorted page can resume by binary
// search instead of re-testing every match. It costs 4 B per row and goes
// with the column: eviction drops both.
type column struct {
	vals    []float64
	ok      []bool
	missing int
	order   []int32
}

// cmpOrder is the order's comparator: by value, then by local id.
func (c *column) cmpOrder(a, b int32) int {
	if r := cmp.Compare(c.vals[a], c.vals[b]); r != 0 {
		return r
	}
	return cmp.Compare(a, b)
}

// extendOrder brings order up to len(vals). The new ids are sorted among
// themselves; every one exceeds every ordered id, so one that sorts after the
// last entry is appended as is, and otherwise only the suffix of order whose
// values the new ones overlap is merged with them, in place from the back.
// order's own append growth is the only allocation on the appending path.
// Caller holds the write lock.
func (c *column) extendOrder() {
	k, n := len(c.order), len(c.vals)
	if c.order == nil {
		c.order = make([]int32, 0, n)
	}
	for id := k; id < n; id++ {
		c.order = append(c.order, int32(id))
	}
	fresh := c.order[k:]
	if !slices.IsSortedFunc(fresh, c.cmpOrder) {
		slices.SortFunc(fresh, c.cmpOrder)
	}
	if k == 0 || k == n || c.vals[fresh[0]] >= c.vals[c.order[k-1]] {
		return
	}
	v := c.vals[fresh[0]]
	p := sort.Search(k, func(i int) bool { return c.vals[c.order[i]] > v })
	fresh = slices.Clone(fresh)
	i, j := k-1, len(fresh)-1
	for w := n - 1; j >= 0; w-- {
		if i >= p && c.vals[c.order[i]] > c.vals[fresh[j]] {
			c.order[w] = c.order[i]
			i--
		} else {
			c.order[w] = fresh[j]
			j--
		}
	}
}

// orderedRun returns the run of c's order holding exactly the rows r admits,
// or ok false unless the order covers all n rows: two binary searches making
// contains' float64 comparisons, whose lower bounds are false then true along
// the order and upper bounds true then false. Caller holds the read lock.
func (c *column) orderedRun(r *RangeQuery, n int) (run []int32, ok bool) {
	if c == nil || c.order == nil || len(c.order) != n {
		return nil, false
	}
	order, vals := c.order, c.vals
	lo := sort.Search(n, func(i int) bool {
		v := vals[order[i]]
		return !(r.GTE != nil && v < *r.GTE) && !(r.GT != nil && v <= *r.GT)
	})
	hi := lo + sort.Search(n-lo, func(i int) bool {
		v := vals[order[lo+i]]
		return r.LTE != nil && v > *r.LTE || r.LT != nil && v >= *r.LT
	})
	return order[lo:hi], true
}

// codeColumn is the dictionary-encoded view of one indexed keyword field,
// built for a field that a terms aggregation buckets: codes[i] is the code of
// row i's term and terms[code] the term, so a terms count over rows inside
// the column reads no row and hashes no string. Like a numeric column it is
// built up to the current row count and extended on a later use; a stored
// row's keyword fields never change (the store's one update names
// file_path), so a code is never stale. Term → code needs no map of its own:
// a posting list's first id is its term's first row, which is already coded
// exactly when the term is. It costs 4 B per row plus a string header per
// term and goes with the columns: eviction drops both.
type codeColumn struct {
	codes []uint32
	terms []string
}

// extendCodes brings kc, field's code column, up to every row. An empty one
// fills from the field's posting lists, one code per list and one write per
// row; a built one codes each appended row by its posting list's first id.
// Caller holds the write lock.
func (sh *shard) extendCodes(kc *codeColumn, field string) {
	pl, n := sh.postings[field], sh.rows.len()
	if len(kc.codes) == 0 {
		kc.codes = make([]uint32, n)
		kc.terms = make([]string, 0, len(pl))
		for term, ids := range pl {
			for _, id := range ids {
				kc.codes[id] = uint32(len(kc.terms))
			}
			kc.terms = append(kc.terms, term)
		}
		return
	}
	for i := len(kc.codes); i < n; i++ {
		term, _ := sh.rows.at(i).StringField(field)
		if first := pl[term][0]; int(first) < i {
			kc.codes = append(kc.codes, kc.codes[first])
		} else {
			kc.codes = append(kc.codes, uint32(len(kc.terms)))
			kc.terms = append(kc.terms, term)
		}
	}
}

// idSet is one request's set of a shard's local ids, a bit per row: built in
// O(members) plus n/64 words and garbage once the request is answered.
type idSet []uint64

func newIDSet(n int, ids []int32) idSet {
	s := make(idSet, (n+63)>>6)
	for _, id := range ids {
		s[id>>6] |= 1 << (id & 63)
	}
	return s
}

func (s idSet) has(id int32) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// sortedIDs returns run, distinct local ids below n, in ascending order by a
// bitmap read-out: two drain workers leave a time order far from id order.
func sortedIDs(run []int32, n int) []int32 {
	out := make([]int32, 0, len(run))
	for w, word := range newIDSet(n, run) {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// blockRows is the row count of one storage block: a power of two, so a row
// id splits into block and slot by shift and mask. 512 rows of 304 bytes are
// 19 allocator pages exactly (256 rows would round 9.5 pages up to 10, 5 %
// lost on every block). The tail block is allocated whole, so an index's
// heap is a staircase in its row count with a step of shards × one block:
// at 1 024 rows a 20 000-row session index moved by 18 % as it crossed a
// step; the block list of a million-row shard is still only 2 000 headers.
const (
	blockShift = 9
	blockRows  = 1 << blockShift
)

// rows is a shard's row storage: append-only blocks of blockRows rows, every
// block full but the last. A row is written once into its slot and never
// moves, so growing the shard allocates (and zeroes) exactly the block being
// opened, and a pointer from at stays valid for as long as the block is
// referenced — it does not pin a superseded copy of the whole array.
type rows struct {
	blocks [][]event.Event
	n      int
}

func (r *rows) len() int { return r.n }

// at returns row i in place.
func (r *rows) at(i int) *event.Event { return &r.blocks[i>>blockShift][i&(blockRows-1)] }

// append copies e into the next slot, opening a block when the tail is full.
func (r *rows) append(e *event.Event) {
	if r.n&(blockRows-1) == 0 {
		r.blocks = append(r.blocks, make([]event.Event, 0, blockRows))
	}
	tail := &r.blocks[len(r.blocks)-1]
	*tail = append(*tail, *e)
	r.n++
}

// adopt makes flat the storage of an empty rows by slicing it into
// block-sized views; no row is copied. The views' capacity is clipped, so an
// append after adopt reallocates the partial tail view (moving those rows
// once) rather than writing into flat.
func (r *rows) adopt(flat []event.Event) {
	r.blocks = make([][]event.Event, 0, (len(flat)+blockRows-1)>>blockShift)
	for lo := 0; lo < len(flat); lo += blockRows {
		hi := min(lo+blockRows, len(flat))
		r.blocks = append(r.blocks, flat[lo:hi:hi])
	}
	r.n = len(flat)
}

// reset drops every block.
func (r *rows) reset() { *r = rows{} }

func newShard() *shard { return &shard{postings: newPostings()} }

// newPostings returns empty posting lists for every indexed field.
func newPostings() map[string]map[string][]int32 {
	p := make(map[string]map[string][]int32, len(indexedFields))
	for _, f := range indexedFields {
		p[f] = make(map[string][]int32)
	}
	return p
}

// row adapts one stored event to the query evaluator's fieldSource without
// materializing a Document. Callers reuse one row value across a scan and
// only repoint ev, so evaluation allocates nothing per slot.
type row struct{ ev *event.Event }

func (r *row) field(name string) any {
	v, _ := r.ev.Field(name)
	return v
}

// val returns the document-view value of one field of row id (nil when
// absent), boxing it on demand; hot paths use numAt instead. Caller holds at
// least the read lock.
func (sh *shard) val(id int32, field string) any {
	v, _ := sh.rows.at(int(id)).Field(field)
	return v
}

// numAt reads one numeric field without boxing. Caller holds at least the
// read lock.
func (sh *shard) numAt(id int32, field string) (float64, bool) {
	return sh.rows.at(int(id)).NumericField(field)
}

// addEventLocked appends a row and returns its local id: the struct is
// copied into shard storage and the keyword postings are fed straight from
// its fields — no Document is built. Caller holds the write lock.
func (sh *shard) addEventLocked(e *event.Event) int32 {
	id := int32(sh.rows.len())
	sh.rows.append(e)
	sh.postEventLocked(id)
	return id
}

// postEventLocked feeds the keyword postings of the row stored at id, which
// must be past every id already posted. Caller holds the write lock.
func (sh *shard) postEventLocked(id int32) {
	e := sh.rows.at(int(id))
	sh.postTermLocked(FieldSession, e.Session, id)
	sh.postTermLocked(FieldSyscall, e.Syscall, id)
	sh.postTermLocked(FieldClass, e.Class, id)
	sh.postTermLocked(FieldProcName, e.ProcName, id)
	sh.postTermLocked(FieldThreadName, e.ThreadName, id)
}

func (sh *shard) postTermLocked(field, term string, id int32) {
	// Empty terms are posted too: the document view stores these five fields
	// unconditionally, so a Term query for "" must find the rows that hold it.
	sh.postings[field][term] = append(sh.postings[field][term], id)
}

// len returns the shard's row count under its own lock.
func (sh *shard) len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rows.len()
}

// evictLocked drops every row and everything derived from them: postings,
// columns with their orders, and codes. Caller holds the write lock.
func (sh *shard) evictLocked() {
	sh.rows.reset()
	sh.postings = newPostings()
	sh.cols, sh.codes = nil, nil
}

// ensureColumns builds or extends, for each of fields, the code column of an
// indexed keyword field and the numeric column of any other, so they cover
// every row currently in the shard, and builds the order of the numeric
// column named ordered (one of fields, or "" for none) if it has none yet. A
// column that has an order keeps it extended whatever asked for the column.
// It is called before the read phase of a search; rows appended concurrently
// afterwards are handled by the per-row fallbacks in colVal and termCounts,
// and by the candidate path for a sorted page.
func (sh *shard) ensureColumns(fields []string, ordered string) {
	if len(fields) == 0 {
		return
	}
	sh.mu.RLock()
	need := false
	for _, f := range fields {
		if _, keyword := sh.postings[f]; keyword {
			kc := sh.codes[f]
			need = kc == nil || len(kc.codes) < sh.rows.len()
		} else {
			c := sh.cols[f]
			need = c == nil || len(c.vals) < sh.rows.len() || (f == ordered && c.order == nil && c.missing == 0)
		}
		if need {
			break
		}
	}
	sh.mu.RUnlock()
	if !need {
		return
	}
	sh.mu.Lock()
	for _, f := range fields {
		if _, keyword := sh.postings[f]; keyword {
			kc := sh.codes[f]
			if kc == nil {
				if sh.codes == nil {
					sh.codes = make(map[string]*codeColumn)
				}
				kc = &codeColumn{}
				sh.codes[f] = kc
			}
			sh.extendCodes(kc, f)
			continue
		}
		c := sh.cols[f]
		if c == nil {
			if sh.cols == nil {
				sh.cols = make(map[string]*column)
			}
			c = &column{}
			sh.cols[f] = c
		}
		for i := len(c.vals); i < sh.rows.len(); i++ {
			v, ok := sh.numAt(int32(i), f)
			c.vals = append(c.vals, v)
			c.ok = append(c.ok, ok)
			if !ok {
				c.missing++
			}
		}
		switch {
		case c.missing > 0:
			c.order = nil
		case c.order != nil || f == ordered:
			c.extendOrder()
		}
	}
	sh.mu.Unlock()
}

// colVal reads one value through the column cache, falling back to the row
// itself for ids past the built prefix. Caller
// holds at least the read lock.
func (sh *shard) colVal(c *column, field string, id int32) (float64, bool) {
	if c != nil && int(id) < len(c.vals) {
		return c.vals[id], c.ok[id]
	}
	return sh.numAt(id, field)
}

// cmpIDs orders two local docs under sorts, reading through the sort
// fields' columns (cols, aligned with sorts) when both values are numeric
// there, and falling back to the exact document-compare semantics otherwise.
// Caller holds at least the read lock.
func (sh *shard) cmpIDs(a, b int32, sorts []SortField, cols []*column) int {
	for i, s := range sorts {
		if c := cols[i]; c != nil && int(a) < len(c.vals) && int(b) < len(c.vals) && c.ok[a] && c.ok[b] {
			af, bf := c.vals[a], c.vals[b]
			if af == bf {
				continue
			}
			if (af < bf) != s.Desc {
				return -1
			}
			return 1
		}
		if r := cmpField(sh.val(a, s.Field), sh.val(b, s.Field), s.Desc); r != 0 {
			return r
		}
	}
	return 0
}

// matchIDs evaluates q and returns the local ids of matching docs in
// ascending order. The returned slice may alias a posting list and must not
// be mutated. Caller holds at least the read lock.
func (sh *shard) matchIDs(q Query) []int32 {
	// Match-all: enumerate without consulting rows.
	if q.matchesAll() {
		out := make([]int32, sh.rows.len())
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	// Plain indexed term: the posting list is the answer.
	if q.Term != nil {
		if terms, ok := sh.postings[q.Term.Field]; ok {
			if val, isStr := q.Term.Value.(string); isStr {
				return terms[val]
			}
		}
	}
	// Top-level range with a built column: scan the column, not the docs.
	if q.Range != nil {
		if c := sh.cols[q.Range.Field]; c != nil {
			return sh.rangeScan(q.Range, c)
		}
	}
	// Bool/must: intersect every indexed keyword term's posting list, then
	// evaluate the residual query over the candidates only.
	if q.Bool != nil && len(q.Bool.Must) > 0 {
		if ids, ok := sh.boolCandidates(q); ok {
			return ids
		}
	}
	// Fallback: full scan through the row adapter (fields resolve on demand,
	// no map materialization).
	var out []int32
	var r row
	for b, blk := range sh.rows.blocks {
		for j := range blk {
			r.ev = &blk[j]
			if q.matches(&r) {
				out = append(out, int32(b<<blockShift+j))
			}
		}
	}
	return out
}

// rangeScan evaluates r over the column cache (plus the uncovered tail),
// sharing RangeQuery.contains with the per-document evaluator, or reads the
// run of the column's order when it covers every row.
func (sh *shard) rangeScan(r *RangeQuery, c *column) []int32 {
	if run, ok := c.orderedRun(r, sh.rows.len()); ok {
		return sortedIDs(run, sh.rows.len())
	}
	var out []int32
	n := min(len(c.vals), sh.rows.len())
	for i := 0; i < n; i++ {
		if c.ok[i] && r.contains(c.vals[i]) {
			out = append(out, int32(i))
		}
	}
	for i := n; i < sh.rows.len(); i++ {
		if f, ok := sh.numAt(int32(i), r.Field); ok && r.contains(f) {
			out = append(out, int32(i))
		}
	}
	return out
}

// isPureRange reports whether q is exactly one range clause, so it can be
// evaluated through a numeric column alone.
func (q Query) isPureRange() bool {
	return q.Range != nil && q.Term == nil && q.Terms == nil &&
		q.Prefix == nil && q.Exists == nil && q.Bool == nil
}

// boolCandidates resolves a bool query whose must clauses include indexed
// keyword terms (or a range with a built column) by posting-list
// intersection followed by residual evaluation. ok is false when no clause
// can seed a candidate list, meaning the caller should scan. A range whose
// run of its column's order (orderedRun) is shorter than every posting list
// that filters seeds; a list holding every row filters nothing.
func (sh *shard) boolCandidates(q Query) ([]int32, bool) {
	n := sh.rows.len()
	var lists [][]int32
	residualMust := make([]Query, 0, len(q.Bool.Must))
	for _, sub := range q.Bool.Must {
		if sub.Term != nil {
			if terms, ok := sh.postings[sub.Term.Field]; ok {
				if val, isStr := sub.Term.Value.(string); isStr {
					lists = append(lists, terms[val])
					continue
				}
			}
		}
		residualMust = append(residualMust, sub)
	}
	// Intersect smallest-first; lists[:full] are the ones that filter.
	slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
	full := len(lists)
	for full > 0 && len(lists[full-1]) == n {
		full--
	}
	seed, run := -1, []int32(nil)
	for i, sub := range residualMust {
		if sub.isPureRange() {
			if r, ok := sh.cols[sub.Range.Field].orderedRun(sub.Range, n); ok && (seed < 0 || len(r) < len(run)) {
				seed, run = i, r
			}
		}
	}
	var candidates []int32
	switch {
	case seed >= 0 && (full == 0 || len(run) < len(lists[0])):
		candidates, lists = sortedIDs(run, n), lists[:full]
		residualMust = slices.Delete(residualMust, seed, seed+1)
	case len(lists) > 0:
		candidates, lists = lists[0], lists[1:]
	case len(residualMust) > 0 && residualMust[0].isPureRange() && sh.cols[residualMust[0].Range.Field] != nil:
		// A leading range over a column with no order seeds by a column scan.
		r := residualMust[0].Range
		candidates, residualMust = sh.rangeScan(r, sh.cols[r.Field]), residualMust[1:]
	default:
		return nil, false
	}
	for _, l := range lists {
		if candidates = intersectSorted(candidates, l); len(candidates) == 0 {
			return nil, true
		}
	}
	// Pure range residuals read the numeric columns instead of going back to
	// the row storage; everything else falls through to the generic evaluator.
	var colRanges []*RangeQuery
	var colCols []*column
	kept := residualMust[:0]
	for _, sub := range residualMust {
		if sub.isPureRange() {
			if c := sh.cols[sub.Range.Field]; c != nil {
				colRanges = append(colRanges, sub.Range)
				colCols = append(colCols, c)
				continue
			}
		}
		kept = append(kept, sub)
	}
	residualMust = kept
	rest := Query{Bool: &BoolQuery{
		Must:    residualMust,
		Should:  q.Bool.Should,
		MustNot: q.Bool.MustNot,
	}}
	needRest := len(residualMust) > 0 || len(q.Bool.Should) > 0 || len(q.Bool.MustNot) > 0
	if !needRest && len(colRanges) == 0 {
		return candidates, true
	}
	var out []int32
	var rrow row
next:
	for _, id := range candidates {
		for i, r := range colRanges {
			f, ok := sh.colVal(colCols[i], r.Field, id)
			if !ok || !r.contains(f) {
				continue next
			}
		}
		if needRest {
			rrow.ev = sh.rows.at(int(id))
			if !rest.matches(&rrow) {
				continue
			}
		}
		out = append(out, id)
	}
	return out, true
}

// intersectSorted intersects two ascending id lists.
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
