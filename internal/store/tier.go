package store

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// This file is the cold read path of the tiered layout: committed segments,
// read, verified and decoded once into read-only shards that stay resident,
// and the regular search pipeline run over those shards, with time-range
// pruning so a narrow dashboard query over a long retention window only ever
// touches the segments whose stamped [MinTime, MaxTime] range can contain
// matches.

// satFloor/satCeil convert a float query bound to int64, saturating at the
// representable range, and satInc/satDec step without overflow.
func satFloor(f float64) int64 {
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(math.Floor(f))
}

func satCeil(f float64) int64 {
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(math.Ceil(f))
}

func satInc(v int64) int64 {
	if v == math.MaxInt64 {
		return v
	}
	return v + 1
}

func satDec(v int64) int64 {
	if v == math.MinInt64 {
		return v
	}
	return v - 1
}

// timeBounds extracts the time_enter_ns window every matching row must fall
// in: [min, max] in integer nanoseconds, (MinInt64, MaxInt64) when the query
// implies no bound. It mirrors the evaluator's clause precedence exactly
// (Term → Terms → Range → Prefix → Exists → Bool, first set clause wins) and
// only descends into Bool.Must — a required conjunct constrains every match,
// while Should/MustNot clauses never tighten the window.
func timeBounds(q Query) (int64, int64) {
	minT, maxT := int64(math.MinInt64), int64(math.MaxInt64)
	switch {
	case q.Term != nil, q.Terms != nil:
		return minT, maxT
	case q.Range != nil:
		r := q.Range
		if r.Field != FieldTimeEnter {
			return minT, maxT
		}
		if r.GTE != nil {
			if v := satCeil(*r.GTE); v > minT {
				minT = v
			}
		}
		if r.GT != nil {
			if v := satInc(satFloor(*r.GT)); v > minT {
				minT = v
			}
		}
		if r.LTE != nil {
			if v := satFloor(*r.LTE); v < maxT {
				maxT = v
			}
		}
		if r.LT != nil {
			if v := satDec(satCeil(*r.LT)); v < maxT {
				maxT = v
			}
		}
		return minT, maxT
	case q.Prefix != nil, q.Exists != nil:
		return minT, maxT
	case q.Bool != nil:
		for _, sub := range q.Bool.Must {
			lo, hi := timeBounds(sub)
			if lo > minT {
				minT = lo
			}
			if hi < maxT {
				maxT = hi
			}
		}
		return minT, maxT
	default:
		return minT, maxT
	}
}

// mayMatchTime reports whether a row stamped anywhere in [lo, hi] — one row
// when lo == hi, a segment's stamped range otherwise — can satisfy the window
// [minT, maxT] that timeBounds extracted. It compares in float64, the
// evaluator's domain: RangeQuery.contains sees float64(t), whose ulp is
// 256 ns at epoch scale, so a row a few ns outside the integer window can
// round onto the bound and match. The conversion is monotone and takes each
// integer bound back to the float it came from (or, for a strict bound past
// 2^53, to a float no further in), so this test never rejects a time that
// contains accepts.
func mayMatchTime(lo, hi, minT, maxT int64) bool {
	return float64(hi) >= float64(minT) && float64(lo) <= float64(maxT)
}

// segMayMatch reports whether a segment can hold a row inside [minT, maxT]:
// its stamped time_enter_ns range overlaps the window (an empty range,
// MinTime > MaxTime, a segment with no rows, never does). A stored row's time
// never changes, so the stamp stays true for the file's life.
func segMayMatch(sm durable.SegmentMeta, minT, maxT int64) bool {
	return sm.MinTime <= sm.MaxTime && mayMatchTime(sm.MinTime, sm.MaxTime, minT, maxT)
}

// coldSegment is one opened segment's rows in a shard of their own, plus the
// explicit global id of each local row — cold segments can be sparse after
// compaction folded retention gaps. A resident one holds every typed row and
// is read-only once filled: queries share it under its read lock, and only
// ensureColumns writes to it, columns and orders. One over the budget holds
// one query's window.
type coldSegment struct {
	sh   *shard
	gids []int
}

// rowBytes is what one decoded row costs a cold segment: the event, its gid,
// and its slot in every indexed field's posting list.
const rowBytes = int64(unsafe.Sizeof(event.Event{})) + int64(unsafe.Sizeof(0)) + 4*int64(len(indexedFields))

// size is cs's decoded bytes: its rows, and the columns and orders built on
// it at their capacity. Caller holds cs.sh.mu or owns cs.
func (cs *coldSegment) size() int64 {
	n := int64(len(cs.gids)) * rowBytes
	for _, c := range cs.sh.cols {
		n += int64(cap(c.vals))*8 + int64(cap(c.ok)) + int64(cap(c.order))*4
	}
	return n
}

// residentBudget bounds the decoded bytes of the segments one index keeps
// resident between queries: cold_history's 84 000 cold rows (~30 MB) twice.
const residentBudget = 64 << 20

// residentSegments is an index's set of decoded cold segments, keyed by
// segment sequence (never reused within an index), filled on first read and
// evicted least recently used, whole segments, to stay within budget bytes.
// Each entry records the path book its rows were named by; a query holding
// another book decodes the segment again and replaces the entry. Concurrent
// queries share an entry; an evicted, replaced or dropped one is left to the
// collector, never recycled, because a query may still be reading it.
type residentSegments struct {
	budget int64
	mu     sync.Mutex
	bySeq  map[int]*residentSegment
	bytes  int64
	tick   uint64
}

type residentSegment struct {
	cs    *coldSegment
	book  *[]event.PathsRecord // the path book cs's rows were named by
	bytes int64                // cs.size() when last accounted
	used  uint64               // the tick of the last lookup that returned cs
}

// get returns the resident rows of segment seq if they were named by book.
func (rs *residentSegments) get(seq int, book *[]event.PathsRecord) *coldSegment {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e := rs.bySeq[seq]
	if e == nil || e.book != book {
		return nil
	}
	rs.tick++
	e.used = rs.tick
	return e.cs
}

// put keeps cs, segment seq just decoded in full and named by book, in place
// of an entry named by another book. Two queries that miss together both
// decode, and the first to put stays.
func (rs *residentSegments) put(seq int, book *[]event.PathsRecord, cs *coldSegment) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if e := rs.bySeq[seq]; e != nil {
		if e.book == book {
			return
		}
		rs.dropLocked(seq)
	}
	if rs.bySeq == nil {
		rs.bySeq = make(map[int]*residentSegment)
	}
	rs.tick++
	e := &residentSegment{cs: cs, book: book, used: rs.tick}
	rs.bySeq[seq] = e
	rs.resizeLocked(seq, e, cs.size())
}

// account re-accounts segment seq's entry, if it still holds cs, after
// ensureColumns may have built a column or an order on it. Caller holds
// cs.sh.mu, so the size it reads is the one it records.
func (rs *residentSegments) account(seq int, cs *coldSegment) {
	size := cs.size()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if e := rs.bySeq[seq]; e != nil && e.cs == cs && e.bytes != size {
		rs.resizeLocked(seq, e, size)
	}
}

// resizeLocked sets the account of e, segment seq's entry, to size, then
// evicts least recently used entries, e last, until the set fits its budget.
func (rs *residentSegments) resizeLocked(seq int, e *residentSegment, size int64) {
	rs.bytes += size - e.bytes
	e.bytes = size
	for rs.bytes > rs.budget {
		lru := seq
		for s, o := range rs.bySeq {
			if s != seq && (lru == seq || o.used < rs.bySeq[lru].used) {
				lru = s
			}
		}
		rs.dropLocked(lru)
	}
}

// drop forgets the resident rows of segment seq, if any.
func (rs *residentSegments) drop(seq int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.dropLocked(seq)
}

func (rs *residentSegments) dropLocked(seq int) {
	if e := rs.bySeq[seq]; e != nil {
		rs.bytes -= e.bytes
		delete(rs.bySeq, seq)
	}
}

// clear drops every resident segment.
func (rs *residentSegments) clear() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.bySeq, rs.bytes = nil, 0
}

// size reports the resident decoded bytes.
func (rs *residentSegments) size() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.bytes
}

// openColdSegment returns segment sm's rows named by book (the index's path
// book, usually empty, which names the rows of a segment written before a
// correlation pass): from the resident set when it holds them named by that
// book, and otherwise read and verified from the file and decoded by one
// path. When the decoded segment fits the budget, every typed row is decoded,
// named and posted, and the shard joins the set; the image is then garbage.
// Otherwise only the rows whose stored time can fall in [minT, maxT] are, for
// this query alone. Decoded rows do not alias the image. Rollups are disabled
// on the shard (base 0); columns and orders build on demand.
func (ix *Index) openColdSegment(sm durable.SegmentMeta, book *[]event.PathsRecord, minT, maxT int64) (*coldSegment, error) {
	rs := &ix.dur.resident
	if cs := rs.get(sm.Seq, book); cs != nil {
		return cs, nil
	}
	r, err := durable.OpenSegment(filepath.Join(ix.dur.dir, durable.SegmentName(sm.Seq)))
	if err != nil {
		return nil, err
	}
	ix.rtm.segVerified.Inc()
	info := r.Info()
	if info.Generic > 0 {
		return nil, fmt.Errorf("%d generic rows in %s: %w", info.Generic, durable.SegmentName(sm.Seq), ErrRetiredFormat)
	}
	kept := int64(info.Typed)*rowBytes <= rs.budget
	var sel []int
	for i := 0; i < info.Typed; i++ {
		if t := r.Time(i); kept || mayMatchTime(t, t, minT, maxT) {
			sel = append(sel, i)
		}
	}
	start := int(sm.StartRow)
	cs := &coldSegment{sh: newShard(0), gids: make([]int, len(sel))}
	cs.sh.rows.adopt(r.Decode(sel))
	for k, i := range sel {
		cs.gids[k] = start + r.Gid(i)
		if book != nil {
			resolveFromBook(*book, cs.gids[k], cs.sh.rows.at(k))
		}
		cs.sh.postEventLocked(int32(k))
	}
	ix.rtm.rowsDecoded.Add(uint64(len(sel)))
	if kept {
		rs.put(sm.Seq, book, cs)
	} else {
		ix.rtm.rowsSkipped.Add(uint64(info.Typed - len(sel)))
	}
	return cs, nil
}

// coldSegments returns the committed segments below the eviction base — the
// rows not present in shard memory. The caller holds at least one shard read
// lock or the shared gate, either of which freezes both the base and the
// published list (they only change under the exclusive gate and every shard
// write lock), and guarantees the files outlive the read (obsolete files are
// deleted only after those locks were held).
func (ix *Index) coldSegments() []durable.SegmentMeta {
	base := ix.base.Load()
	var out []durable.SegmentMeta
	for _, sm := range *ix.dur.segs.Load() {
		if sm.EndRow <= base {
			out = append(out, sm)
		}
	}
	return out
}

// eachColdSegment is the one pass over the cold tier. It prunes the segments
// whose stamped range req's time window excludes, opens the rest through the
// shard worker pool — resident, or decoded as openColdSegment decides, with
// the columns req reads built — and returns fn's answer per opened segment,
// in row order, computed under the segment's read lock. The opened/pruned
// counters move only for a time-bounded query: without a bound there is no
// decision to report. Caller holds every hot shard's read lock (a search or a
// count) or the shared gate (a correlation pass's tally).
func eachColdSegment[T any](ctx context.Context, ix *Index, req SearchRequest, fn func(*coldSegment) T) ([]T, error) {
	segs := ix.coldSegments()
	book := ix.dur.book.Load()
	minT, maxT := timeBounds(req.Query)
	bounded := minT > math.MinInt64 || maxT < math.MaxInt64
	if bounded {
		open := segs[:0]
		for _, sm := range segs {
			if segMayMatch(sm, minT, maxT) {
				open = append(open, sm)
			} else {
				ix.rtm.segPruned.Inc()
			}
		}
		segs = open
	}
	if len(segs) == 0 {
		return nil, nil
	}
	cols, ordered := neededColumns(req, nil), orderedField(req)
	out, errs := make([]T, len(segs)), make([]error, len(segs))
	if err := forEachShardCtx(ctx, len(segs), func(i int) {
		cs, err := ix.openColdSegment(segs[i], book, minT, maxT)
		if err != nil {
			errs[i] = err
			return
		}
		if bounded {
			ix.rtm.segOpened.Inc()
		}
		cs.sh.ensureColumns(cols, ordered)
		cs.sh.mu.RLock()
		defer cs.sh.mu.RUnlock()
		ix.dur.resident.account(segs[i].Seq, cs)
		out[i] = fn(cs)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// coldSearch runs the per-shard search stage over every cold segment the
// query's time window cannot exclude, returning one shardResult per opened
// segment. Caller holds every hot shard's read lock (searchShards).
func (ix *Index) coldSearch(ctx context.Context, exec *searchExec) ([]shardResult, error) {
	return eachColdSegment(ctx, ix, exec.req, func(cs *coldSegment) shardResult {
		gidOf := func(id int32) int { return cs.gids[id] }
		firstAfter := func(gid int) int32 { return int32(sort.SearchInts(cs.gids, gid+1)) }
		return cs.sh.searchLocked(exec, gidOf, firstAfter)
	})
}
