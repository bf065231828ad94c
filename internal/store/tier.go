package store

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// This file is the cold read path of the tiered layout: decoding committed
// segments, read and verified once and then kept resident, into transient row
// stores and running the regular search pipeline over them, with time-range
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

// coldSegment is the part of one opened segment a query can match, decoded
// into a transient (unshared, unlocked) shard, plus the explicit global id of
// each local row — cold segments can be sparse after compaction folded
// retention gaps, and sparser still once rows outside the window stay
// undecoded.
type coldSegment struct {
	sh   *shard
	gids []int
}

// residentBudget bounds the verified segment images one index keeps resident
// between queries: cold_history's five segments (~15 MB) four times over.
const residentBudget = 64 << 20

// residentSegments is an index's set of verified segment readers, keyed by
// segment sequence (never reused within an index), filled on first read and
// evicted least recently used, whole segments, to stay within budget bytes.
// Concurrent queries share a reader; an evicted or dropped one is left to the
// collector, never recycled, because a query may still be reading it.
type residentSegments struct {
	budget int64
	mu     sync.Mutex
	bySeq  map[int]*residentSegment
	bytes  int64
	tick   uint64
}

type residentSegment struct {
	r    *durable.SegmentReader
	used uint64 // the tick of the last lookup that returned r
}

// reader returns the verified reader of segment seq in dir, reading and
// verifying the file (counted in verified) on a miss, outside the lock: two
// queries that miss together both verify it, and one reader stays.
func (rs *residentSegments) reader(dir string, seq int, verified *telemetry.Counter) (*durable.SegmentReader, error) {
	rs.mu.Lock()
	if e := rs.bySeq[seq]; e != nil {
		rs.tick++
		e.used = rs.tick
		rs.mu.Unlock()
		return e.r, nil
	}
	rs.mu.Unlock()
	r, err := durable.OpenSegment(filepath.Join(dir, durable.SegmentName(seq)))
	if err != nil {
		return nil, err
	}
	verified.Inc()
	size := r.Info().Bytes
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if size > rs.budget || rs.bySeq[seq] != nil {
		return r, nil
	}
	for rs.bytes+size > rs.budget {
		lru := -1
		for s, e := range rs.bySeq {
			if lru < 0 || e.used < rs.bySeq[lru].used {
				lru = s
			}
		}
		rs.dropLocked(lru)
	}
	if rs.bySeq == nil {
		rs.bySeq = make(map[int]*residentSegment)
	}
	rs.tick++
	rs.bySeq[seq] = &residentSegment{r: r, used: rs.tick}
	rs.bytes += size
	return r, nil
}

// drop forgets the resident reader of segment seq, if any.
func (rs *residentSegments) drop(seq int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.dropLocked(seq)
}

func (rs *residentSegments) dropLocked(seq int) {
	if e := rs.bySeq[seq]; e != nil {
		rs.bytes -= e.r.Info().Bytes
		delete(rs.bySeq, seq)
	}
}

// clear drops every resident reader.
func (rs *residentSegments) clear() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.bySeq, rs.bytes = nil, 0
}

// size reports the resident image bytes.
func (rs *residentSegments) size() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.bytes
}

// openColdSegment takes the segment's verified reader from the resident set,
// reads its time column, selects the rows whose stored time can fall in
// [minT, maxT], and decodes only those into one page, which a transient shard
// adopts as its blocks; book (the index's path book, usually empty) then
// names the rows of a segment written before a correlation pass. Decoded rows
// do not alias the reader's image. skipped is the rows left undecoded.
// Rollups are disabled on the transient shard (base 0); columns build on
// demand, but no sort order: the shard answers one request, and a sorted page
// over it takes the candidate path.
func (ix *Index) openColdSegment(sm durable.SegmentMeta, book []event.PathsRecord, minT, maxT int64) (cs *coldSegment, skipped int, err error) {
	r, err := ix.dur.resident.reader(ix.dur.dir, sm.Seq, ix.rtm.segVerified)
	if err != nil {
		return nil, 0, err
	}
	info := r.Info()
	if info.Generic > 0 {
		return nil, 0, fmt.Errorf("%d generic rows in %s: %w", info.Generic, durable.SegmentName(sm.Seq), ErrRetiredFormat)
	}
	start := int(sm.StartRow)
	var sel []int // grows with the window's share, not sized to the whole column
	for i := 0; i < info.Typed; i++ {
		if t := r.Time(i); mayMatchTime(t, t, minT, maxT) {
			sel = append(sel, i)
		}
	}
	cs = &coldSegment{sh: newShard(0), gids: make([]int, len(sel))}
	cs.sh.rows.adopt(r.Decode(sel))
	for k, i := range sel {
		cs.gids[k] = start + r.Gid(i)
		if len(book) > 0 {
			resolveFromBook(book, cs.gids[k], cs.sh.rows.at(k))
		}
		cs.sh.postEventLocked(int32(k))
	}
	return cs, info.Typed - len(sel), nil
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
// shard worker pool — each decoding only the rows the window selects, with the
// columns req reads built — and returns fn's answer
// per opened segment, in row order. The opened/pruned and decoded/skipped
// counters move only for a time-bounded query: without a bound there is no
// decision to report. Caller holds every hot shard's read lock (a search or a
// count) or the shared gate (a correlation pass's tally).
func eachColdSegment[T any](ctx context.Context, ix *Index, req SearchRequest, fn func(*coldSegment) T) ([]T, error) {
	segs := ix.coldSegments()
	book := ix.dur.paths()
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
	cols := neededColumns(req, nil)
	out, errs := make([]T, len(segs)), make([]error, len(segs))
	if err := forEachShardCtx(ctx, len(segs), func(i int) {
		cs, skipped, err := ix.openColdSegment(segs[i], book, minT, maxT)
		if err != nil {
			errs[i] = err
			return
		}
		if bounded {
			ix.rtm.segOpened.Inc()
			ix.rtm.rowsDecoded.Add(uint64(len(cs.gids)))
			ix.rtm.rowsSkipped.Add(uint64(skipped))
		}
		cs.sh.ensureColumns(cols, "")
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
