package store

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// This file is the cold read path of the tiered layout: committed segments,
// read, verified and decoded once into read-only shards that stay resident,
// and the read view, which lists those shards beside the hot stripes so that
// search, count and the correlation tally each make one pass over one list.
// Time-range pruning keeps a cold segment off the list unless its stamped
// [MinTime, MaxTime] range can contain matches, so a narrow dashboard query
// over a long retention window only ever touches the segments it needs.

// satInc/satDec step an int64 without overflow.
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
func timeBounds(q Query) (minT, maxT int64) {
	minT, maxT = math.MinInt64, math.MaxInt64
	switch r := q.Range; {
	case q.Term != nil, q.Terms != nil: // evaluated instead: no bound
	case r != nil:
		if r.Field != FieldTimeEnter {
			break
		}
		if r.GTE != nil {
			minT = max(minT, *r.GTE)
		}
		if r.GT != nil {
			minT = max(minT, satInc(*r.GT))
		}
		if r.LTE != nil {
			maxT = min(maxT, *r.LTE)
		}
		if r.LT != nil {
			maxT = min(maxT, satDec(*r.LT))
		}
	case q.Prefix != nil, q.Exists != nil: // no bound
	case q.Bool != nil:
		for _, sub := range q.Bool.Must {
			lo, hi := timeBounds(sub)
			minT, maxT = max(minT, lo), min(maxT, hi)
		}
	}
	return minT, maxT
}

// mayMatchTime reports whether a row stamped anywhere in [lo, hi] — one row
// when lo == hi, a segment's stamped range otherwise — can satisfy the window
// [minT, maxT] that timeBounds extracted.
func mayMatchTime(lo, hi, minT, maxT int64) bool {
	return hi >= minT && lo <= maxT
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
// ensureColumns writes to it — numeric columns, their orders and term runs,
// and the code columns of the keyword fields a terms aggregation buckets,
// which fill from the posting lists the decode built. One over the budget
// holds one query's window.
type coldSegment struct {
	sh   *shard
	gids []int
}

// rowBytes is what one decoded row costs a cold segment: the event, its gid,
// and its slot in every indexed field's posting list.
const rowBytes = int64(unsafe.Sizeof(event.Event{})) + int64(unsafe.Sizeof(0)) + 4*int64(len(indexedFields))

// size is cs's decoded bytes: its rows, and the columns, orders, term runs
// and code columns built on it at their capacity (a term's bytes are its
// rows'). Caller holds cs.sh.mu or owns cs.
func (cs *coldSegment) size() int64 {
	n := int64(len(cs.gids)) * rowBytes
	for _, c := range cs.sh.cols {
		n += int64(cap(c.vals))*8 + int64(cap(c.ok)) + int64(cap(c.order))*4
	}
	for _, r := range cs.sh.runs {
		if r != nil {
			n += int64(cap(r.ids))*4 + int64(cap(r.vals))*8
		}
	}
	for _, kc := range cs.sh.codes {
		n += int64(cap(kc.codes))*4 + int64(cap(kc.terms))*int64(unsafe.Sizeof(""))
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
	budget  int64
	mu      sync.Mutex
	bySeq   map[int]*residentSegment
	filling map[residentKey]chan struct{} // fills under way, each closed when it ends
	bytes   int64
	tick    uint64
}

// residentKey names one fill: a segment's rows named by one path book.
type residentKey struct {
	seq  int
	book *[]event.PathsRecord
}

type residentSegment struct {
	cs    *coldSegment
	book  *[]event.PathsRecord // the path book cs's rows were named by
	bytes int64                // cs.size() when last accounted
	used  uint64               // the tick of the last lookup that returned cs
}

// get returns the resident rows of segment seq if they were named by book.
// On a miss, when the segment's rows fit the budget, the fill is
// single-flight: the first query to miss leads it (lead true) and must end
// it with filled, and a query that misses while it is under way waits for it
// to end and looks once more. It then finds the rows the leader kept, or, if
// the leader kept none (it failed), decodes on its own. A segment over the
// budget is never kept, so its queries decode their own windows at once.
func (rs *residentSegments) get(seq int, book *[]event.PathsRecord, rows int64) (cs *coldSegment, lead bool) {
	k := residentKey{seq, book}
	rs.mu.Lock()
	cs = rs.lookupLocked(k)
	wait, filling := rs.filling[k]
	lead = cs == nil && !filling && rows*rowBytes <= rs.budget
	if lead {
		if rs.filling == nil {
			rs.filling = make(map[residentKey]chan struct{})
		}
		rs.filling[k] = make(chan struct{})
	}
	rs.mu.Unlock()
	if cs != nil || !filling {
		return cs, lead
	}
	<-wait
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.lookupLocked(k), false
}

func (rs *residentSegments) lookupLocked(k residentKey) *coldSegment {
	e := rs.bySeq[k.seq]
	if e == nil || e.book != k.book {
		return nil
	}
	rs.tick++
	e.used = rs.tick
	return e.cs
}

// filled ends the fill of segment seq named by book that the caller leads,
// after it put the rows, and wakes the queries waiting for it.
func (rs *residentSegments) filled(seq int, book *[]event.PathsRecord) {
	k := residentKey{seq, book}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	close(rs.filling[k])
	delete(rs.filling, k)
}

// put keeps cs, segment seq just decoded in full and named by book, in place
// of an entry named by another book. A query that decodes beside a fill (one
// named by another book, or after a failed one) may put too; the first to
// put stays.
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
// this query alone. Decoded rows do not alias the image. Columns, orders and
// codes build on demand, as on a hot stripe. Queries that miss one segment
// together decode it once (residentSegments.get).
func (ix *Index) openColdSegment(sm durable.SegmentMeta, book *[]event.PathsRecord, minT, maxT int64) (*coldSegment, error) {
	rs := &ix.dur.resident
	cs, lead := rs.get(sm.Seq, book, sm.Rows)
	if cs != nil {
		return cs, nil
	}
	if lead {
		defer rs.filled(sm.Seq, book)
	}
	r, err := durable.OpenSegment(filepath.Join(ix.dur.dir, durable.SegmentName(sm.Seq)))
	if err != nil {
		return nil, err
	}
	ix.rtm.segVerified.Inc()
	info := r.Info()
	kept := int64(info.Rows)*rowBytes <= rs.budget
	var sel []int
	for i := 0; i < info.Rows; i++ {
		if t := r.Time(i); kept || mayMatchTime(t, t, minT, maxT) {
			sel = append(sel, i)
		}
	}
	start := int(sm.StartRow)
	cs = &coldSegment{sh: newShard(), gids: make([]int, len(sel))}
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
		ix.rtm.rowsSkipped.Add(uint64(info.Rows - len(sel)))
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

// readEntry is one row store of a read view: a shard and where its rows sit
// in the global id space — stripe s of S above the base on a hot stripe, the
// ascending list gids on a cold one. seg is a cold entry's segment, nil on a
// hot stripe; each sets a cold entry's shard and gids when it opens it.
type readEntry struct {
	sh         *shard
	seg        *durable.SegmentMeta
	gids       []int
	base, s, S int
}

// gidOf maps a local row id to its global id.
func (e *readEntry) gidOf(id int32) int {
	if e.seg != nil {
		return e.gids[id]
	}
	return e.base + int(id)*e.S + e.s
}

// firstAfter returns the first local id whose global id is past gid, the
// row count when none.
func (e *readEntry) firstAfter(gid int) int32 {
	if e.seg != nil {
		return int32(sort.Search(len(e.gids), func(i int) bool { return e.gids[i] > gid }))
	}
	return firstLocalAfter(gid-e.base, e.s, e.S)
}

// readView is the one list of row stores a read passes over, in gid order:
// every hot stripe, then every cold segment its time window does not prune.
// It carries what each needs to open a cold entry: the path book, the window,
// and the columns, order and run the caller built on the hot stripes.
type readView struct {
	ix         *Index
	entries    []readEntry
	book       *[]event.PathsRecord
	minT, maxT int64
	bounded    bool
	cols       []string
	walk       sortWalk
	locked     bool // each holds every cold entry's read lock
}

// readView builds the view of a read of q under the cut its caller holds:
// every shard read lock (a search or a count) or the shared gate (the
// correlation tally). Either freezes the base and the segment list, so every
// row is in exactly one entry. The opened/pruned counters move only for a
// time-bounded q: without a bound there is no decision to report.
func (ix *Index) readView(q Query, cols []string, walk sortWalk) *readView {
	S := len(ix.shards)
	base := int(ix.base.Load())
	v := &readView{ix: ix, entries: make([]readEntry, S), cols: cols, walk: walk}
	for s, sh := range ix.shards {
		v.entries[s] = readEntry{sh: sh, base: base, s: s, S: S}
	}
	if ix.dur == nil {
		return v
	}
	v.book = ix.dur.book.Load()
	v.minT, v.maxT = timeBounds(q)
	v.bounded = v.minT > math.MinInt64 || v.maxT < math.MaxInt64
	for _, sm := range ix.coldSegments() {
		if v.bounded && !segMayMatch(sm, v.minT, v.maxT) {
			ix.rtm.segPruned.Inc()
			continue
		}
		v.entries = append(v.entries, readEntry{seg: &sm})
	}
	return v
}

// each is the one pass over the view: it runs fn on every entry, under the
// entry's read lock, on the caller and on helpers while shardSem has slots
// (fan). A hot stripe's lock is part of the caller's cut. With openCold,
// every cold entry is first opened (open), one after another on the
// caller, then read-locked in the view's order, ascending rows, and stays
// locked until the caller calls release, as it must whatever each returns:
// a search's merge walks the entries' lists and reads their rows after fn
// returns. Opening may take a cold shard's write lock (ensureColumns), so a
// read opens everything before it holds any cold lock and takes them in one
// order, which leaves no cycle of waits. A resident segment's open is a
// lookup, and one over the budget decodes only the query's window. Without
// openCold, fn gets a cold entry unopened, its shard nil, to answer from
// the segment's meta. ctx is consulted before each open and each entry, so
// a cancelled read stops claiming cores; entries already running finish,
// since fn holds locks. each returns ctx.Err() when it skipped an entry,
// else the first open's error, and always after every entry taken is done.
func (v *readView) each(ctx context.Context, openCold bool, fn func(i int, e *readEntry)) error {
	// The cold entries follow the hot ones.
	if c := slices.IndexFunc(v.entries, func(e readEntry) bool { return e.seg != nil }); openCold && c >= 0 {
		cold := v.entries[c:]
		for i := range cold {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := v.open(&cold[i]); err != nil {
				return err
			}
		}
		for i := range cold {
			cold[i].sh.mu.RLock()
		}
		v.locked = true
	}
	return fan(ctx, v.entries, fn)
}

// release unlocks the cold entries each locked.
func (v *readView) release() {
	if !v.locked {
		return
	}
	for i := range v.entries {
		if e := &v.entries[i]; e.seg != nil {
			e.sh.mu.RUnlock()
		}
	}
	v.locked = false
}

// fan runs fn on every entry, on the caller and on as many helpers as
// shardSem has slots for, each taking the next entry not yet taken, and
// returns ctx.Err() when it skipped an entry, always after every entry
// taken is done. A helper is spawned per free slot, not per entry: a
// sorted page's entry only positions a walk, and a goroutine per entry cost
// more than the entries' work.
func fan(ctx context.Context, entries []readEntry, fn func(i int, e *readEntry)) error {
	var next atomic.Int64
	var skipped atomic.Bool
	work := func() {
		for i := int(next.Add(1) - 1); i < len(entries); i = int(next.Add(1) - 1) {
			if ctx.Err() != nil {
				skipped.Store(true)
				return
			}
			fn(i, &entries[i])
		}
	}
	var wg sync.WaitGroup
spawn:
	for h := 1; h < len(entries); h++ {
		select {
		case shardSem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-shardSem
					wg.Done()
				}()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	if skipped.Load() {
		return ctx.Err()
	}
	return nil
}

// open reads cold entry e through openColdSegment — resident, or decoded as
// it decides — builds the view's columns on it, and re-accounts it to the
// resident set. It leaves e unlocked.
func (v *readView) open(e *readEntry) error {
	cs, err := v.ix.openColdSegment(*e.seg, v.book, v.minT, v.maxT)
	if err != nil {
		return err
	}
	if v.bounded {
		v.ix.rtm.segOpened.Inc()
	}
	cs.sh.ensureColumns(v.cols, v.walk)
	cs.sh.mu.RLock()
	v.ix.dur.resident.account(e.seg.Seq, cs)
	cs.sh.mu.RUnlock()
	e.sh, e.gids = cs.sh, cs.gids
	return nil
}
