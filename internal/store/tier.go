package store

import (
	"context"
	"math"
	"path/filepath"
	"sort"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// This file is the cold read path of the tiered layout: opening committed
// segment files as transient row stores and running the regular search
// pipeline over them, with time-range pruning so a narrow dashboard query
// over a long retention window only ever touches the segments whose stamped
// [MinTime, MaxTime] range can contain matches.

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

// segMayMatch reports whether a segment can hold a row inside [minT, maxT]:
// its stamped time_enter_ns range (exact — every row is an event with an
// integer time) overlaps the window. An empty range (MinTime > MaxTime, a
// segment with no rows) never does.
func segMayMatch(sm durable.SegmentMeta, minT, maxT int64) bool {
	return sm.MinTime <= sm.MaxTime && sm.Overlaps(minT, maxT)
}

// coldSegment is one opened segment: its rows loaded into a transient
// (unshared, unlocked) shard, plus the explicit global id of each local row
// — cold segments can be sparse after compaction folded retention gaps.
type coldSegment struct {
	sh   *shard
	gids []int
}

// openColdSegment reads a committed segment into a transient shard,
// substituting pending-overlay rewrites (by absolute gid) at decode time so
// cold reads observe post-flush update-by-query effects. Rollups are
// disabled on the transient shard (base 0); columns build on demand.
func (ix *Index) openColdSegment(sm durable.SegmentMeta, overlay map[int]event.Event) (*coldSegment, error) {
	cs := &coldSegment{sh: newShard(0), gids: make([]int, 0, sm.Rows)}
	path := filepath.Join(ix.dur.dir, durable.SegmentName(sm.Seq))
	err := readSegmentEvents(path, func(gid int, ev *event.Event) error {
		abs := int(sm.StartRow) + gid
		if e, ok := overlay[abs]; ok {
			ev = &e
		}
		cs.sh.addEventLocked(ev)
		cs.gids = append(cs.gids, abs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// coldSegments returns the committed segments below the eviction base — the
// rows not present in shard memory. The caller holds at least one shard read
// lock, which freezes both the base and the published list (they only change
// under every shard write lock), and guarantees the files outlive the read
// (obsolete files are deleted only after those write locks were held).
func (ix *Index) coldSegments() ([]durable.SegmentMeta, int64) {
	segs := *ix.dur.segs.Load()
	base := ix.base.Load()
	n := 0
	for _, sm := range segs {
		if sm.EndRow <= base {
			n++
		}
	}
	out := make([]durable.SegmentMeta, 0, n)
	for _, sm := range segs {
		if sm.EndRow <= base {
			out = append(out, sm)
		}
	}
	return out, base
}

// coldSearch runs the per-shard search stage over every cold segment the
// query's time window cannot exclude, returning one shardResult per opened
// segment. Caller holds every hot shard's read lock (searchRefs).
func (ix *Index) coldSearch(ctx context.Context, exec *searchExec) ([]shardResult, error) {
	segs, _ := ix.coldSegments()
	if len(segs) == 0 {
		return nil, nil
	}
	overlay := ix.dur.pendingOverlay()
	minT, maxT := timeBounds(exec.req.Query)
	hasBound := minT > math.MinInt64 || maxT < math.MaxInt64
	cols := neededColumns(exec.req, nil)
	var out []shardResult
	for _, sm := range segs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hasBound && !segMayMatch(sm, minT, maxT) {
			ix.rtm.segPruned.Inc()
			continue
		}
		if hasBound {
			ix.rtm.segOpened.Inc()
		}
		cs, err := ix.openColdSegment(sm, overlay)
		if err != nil {
			return nil, err
		}
		cs.sh.ensureColumns(cols)
		gidOf := func(id int32) int { return cs.gids[id] }
		firstAfter := func(gid int) int32 { return int32(sort.SearchInts(cs.gids, gid+1)) }
		cs.sh.mu.RLock()
		out = append(out, cs.sh.searchLocked(exec, gidOf, firstAfter))
		cs.sh.mu.RUnlock()
	}
	return out, nil
}

// coldCount counts query matches across the cold segments, with the same
// pruning and pending-overlay semantics as coldSearch. Caller holds every
// hot shard's read lock (countCtx).
func (ix *Index) coldCount(ctx context.Context, q Query) (int, error) {
	segs, _ := ix.coldSegments()
	if len(segs) == 0 {
		return 0, nil
	}
	overlay := ix.dur.pendingOverlay()
	minT, maxT := timeBounds(q)
	hasBound := minT > math.MinInt64 || maxT < math.MaxInt64
	cols := neededColumns(SearchRequest{Query: q}, nil)
	n := 0
	for _, sm := range segs {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if hasBound && !segMayMatch(sm, minT, maxT) {
			ix.rtm.segPruned.Inc()
			continue
		}
		if hasBound {
			ix.rtm.segOpened.Inc()
		}
		cs, err := ix.openColdSegment(sm, overlay)
		if err != nil {
			return 0, err
		}
		cs.sh.ensureColumns(cols)
		cs.sh.mu.RLock()
		if q.matchesAll() {
			n += len(cs.sh.events)
		} else {
			n += len(cs.sh.matchIDs(q))
		}
		cs.sh.mu.RUnlock()
	}
	return n, nil
}
