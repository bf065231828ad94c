package store

import (
	"context"
	"fmt"
	"slices"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// CorrelationResult summarizes one run of the file-path correlation
// algorithm (§II-C): how many file tags resolved to paths, and how many
// events remained without a resolvable path (the §III-D coverage metric:
// DIO leaves at most ~5% of events unresolved, versus 45% for Sysdig).
//
// The accounting closes: EventsUpdated + EventsUnresolved +
// EventsAlreadyResolved == EventsWithTag. Every tagged event lands in
// exactly one of the three outcome counters.
type CorrelationResult struct {
	// TagsResolved is the number of distinct file tags that mapped to a path.
	TagsResolved int `json:"tags_resolved"`
	// EventsUpdated is the number of events whose file_path was filled in.
	EventsUpdated int `json:"events_updated"`
	// EventsUnresolved is the number of events carrying a file tag whose
	// path could not be determined (their open event was dropped or not
	// captured).
	EventsUnresolved int `json:"events_unresolved"`
	// EventsAlreadyResolved is the number of tagged events that entered the
	// pass with a file_path already set (typically filled by an earlier
	// run — correlation is idempotent).
	EventsAlreadyResolved int `json:"events_already_resolved"`
	// EventsWithTag is the total number of events carrying a file tag.
	EventsWithTag int `json:"events_with_tag"`
}

// UnresolvedFraction returns the share of tagged events without a path.
func (r CorrelationResult) UnresolvedFraction() float64 {
	if r.EventsWithTag == 0 {
		return 0
	}
	return float64(r.EventsUnresolved) / float64(r.EventsWithTag)
}

// anchor is one tag→path candidate with the evidence that ranks it.
type anchor struct {
	// fallback marks a path-carrying syscall other than open, openat and
	// creat (stat, unlink, ...): weaker evidence, which names a tag only
	// when no open variant does.
	fallback bool
	enterNS  int64
	path     string
}

// better reports whether candidate c should replace cur: an open variant
// first, then the earliest FieldTimeEnter, then the lexicographically
// smaller path. The order is total on what the dictionary keeps, so the
// dictionary is independent of shard count, partition count and merge
// order — and the inode-reuse shape of the Fluent Bit case study (§III-B)
// depends on the first open of a tag naming it.
func (c anchor) better(cur anchor) bool {
	if c.fallback != cur.fallback {
		return !c.fallback
	}
	if c.enterNS != cur.enterNS {
		return c.enterNS < cur.enterNS
	}
	return c.path < cur.path
}

// HarvestPaths is the first step of DIO's correlation algorithm (§II-C): one
// search of b for every row of session (of every session, when empty) that
// carries both a file tag and a kernel-resolved path, folded into the record
// that pairs each tag with its best anchor. b may be a node or a cluster
// coordinator: both search the same rows, and the anchor order makes the
// record the same. NamePaths, on each node, is the second step.
func HarvestPaths(ctx context.Context, b Backend, index, session string) (event.PathsRecord, error) {
	must := []Query{Exists(FieldFileTag), Exists(FieldKernelPath)}
	if session != "" {
		must = append(must, Term(FieldSession, session))
	}
	res, err := b.SearchEvents(ctx, index, SearchRequest{Query: Query{Bool: &BoolQuery{Must: must}}, Size: -1})
	if err != nil {
		return event.PathsRecord{}, err
	}
	dict := make(map[event.FileTag]anchor)
	for i := range res.Hits {
		e := &res.Hits[i]
		c := anchor{fallback: e.Syscall != "open" && e.Syscall != "openat" && e.Syscall != "creat",
			enterNS: e.TimeEnterNS, path: e.KernelPath}
		if cur, seen := dict[e.FileTag]; !seen || c.better(cur) {
			dict[e.FileTag] = c
		}
	}
	rec := event.PathsRecord{Session: session, Pairs: make([]event.PathPair, 0, len(dict))}
	for tag, c := range dict {
		rec.Pairs = append(rec.Pairs, event.PathPair{Tag: tag, Path: c.path})
	}
	rec.SortPairs()
	return rec, nil
}

// NamePaths is the second step, on this node: every tagged row of index with
// no file_path takes its own kernel path, else the path rec pairs with its
// tag (namePaths). The node fixes the horizon itself, whatever rec.H says,
// and journals rec once if a row changed. A follower refuses it like any
// write. TagsResolved is the number of pairs.
func (s *Store) NamePaths(ctx context.Context, index string, rec event.PathsRecord) (CorrelationResult, error) {
	if s.Role() == RoleFollower {
		return CorrelationResult{}, ErrReadOnlyFollower
	}
	ix, err := s.lookup(index)
	if err != nil {
		return CorrelationResult{}, err
	}
	var n [pathOutcomes]int
	observeNS(s.tm.updateNS, func() { n, err = ix.namePaths(ctx, &rec) })
	return CorrelationResult{
		TagsResolved:          len(rec.Pairs),
		EventsUpdated:         n[pathUpdated],
		EventsUnresolved:      n[pathUnresolved],
		EventsAlreadyResolved: n[pathAlready],
		EventsWithTag:         n[pathUpdated] + n[pathUnresolved] + n[pathAlready],
	}, err
}

// pathOutcome is what resolvePaths did with one row. The outcomes past
// pathSkip are CorrelationResult's three event counters.
type pathOutcome int

const (
	pathSkip       pathOutcome = iota // untagged, out of scope, or at or past the horizon
	pathAlready                       // entered with a file_path
	pathUpdated                       // file_path filled in
	pathUnresolved                    // tagged, but neither a kernel path nor a pair names it
	pathOutcomes
)

// resolvePaths is the rule by which a stored row changes, and the only code
// that changes one: a tagged row below rec's horizon, in rec's session scope,
// with no file_path takes its own kernel path, else the path rec pairs with
// its tag. The live pass runs it over shard memory; everything that
// materialises a row from a segment written before the pass runs it again.
func resolvePaths(rec *event.PathsRecord, gid int, e *event.Event) pathOutcome {
	switch {
	case int64(gid) >= rec.H || e.FileTag.Zero() || (rec.Session != "" && e.Session != rec.Session):
		return pathSkip
	case e.FilePath != "":
		return pathAlready
	case e.KernelPath != "":
		e.FilePath = e.KernelPath
		return pathUpdated
	}
	p, ok := rec.Lookup(e.FileTag)
	if !ok {
		return pathUnresolved
	}
	e.FilePath = p
	return pathUpdated
}

// resolveFromBook finishes a row materialised from a segment: the book's
// records in journal order, stopping at the first that names the row (after
// which it has a file_path and no later record applies).
func resolveFromBook(book []event.PathsRecord, gid int, e *event.Event) bool {
	for i := range book {
		if resolvePaths(&book[i], gid, e) == pathUpdated {
			return true
		}
	}
	return false
}

// applyPaths runs rec over every row in shard memory, one shard write lock at
// a time, and counts the outcomes. file_path is neither indexed nor numeric,
// so postings and runs stand; each row is resolved unpacked, and a path
// it takes that is new to its shard joins the shard's file_path dictionary.
// The epoch brackets the pass for the query cache. On a durable index the
// caller holds the gate shared (base is frozen) or is single-threaded
// recovery.
func (ix *Index) applyPaths(rec *event.PathsRecord) (n [pathOutcomes]int) {
	ix.epoch.Add(1)
	defer ix.epoch.Add(1)
	S := len(ix.shards)
	base := int(ix.base.Load())
	var e event.Event
	for s, sh := range ix.shards {
		sh.mu.Lock()
		for id := range sh.rows.len() {
			w := sh.row(int32(id))
			w.Event(&e)
			o := resolvePaths(rec, base+id*S+s, &e)
			if o == pathUpdated {
				w.r.str[slotFilePath] = sh.dicts[slotFilePath].intern(e.FilePath)
			}
			n[o]++
		}
		sh.mu.Unlock()
	}
	return n
}

// namePaths is the store's one update. Under the index's correlation mutex
// and the shared gate it fixes the horizon — rr read inside appendMu, where
// placement happens, so every row below it is placed — counts rec over the
// cold rows, applies it to the hot ones, and, if any row changed, journals
// rec itself: one record of parameters, not a row per effect. The horizon is
// what lets ingest run beside the pass: a row placed meanwhile sits at or
// past it, stays unresolved until the next pass, and stays so on every
// replay. One pass at a time per index, or two could journal in the opposite
// order of their application and replay would let the wrong one name a row
// first.
//
// Cold rows are never written: the pass tallies resolvePaths over copies
// (named by the book so far, so an earlier pass's rows count as resolved),
// and once rec joins the book every later decode and merge names them from
// it; a resident segment named by an older book is decoded again.
// The shared gate keeps the segment list and base where the tally found them
// until the hot rows are named, and the epoch brackets the whole pass, book
// entry included, for the query cache. A follower takes the record its
// primary journaled through applyRecord instead.
func (ix *Index) namePaths(ctx context.Context, rec *event.PathsRecord) (n [pathOutcomes]int, err error) {
	d := ix.dur
	if d == nil {
		rec.H = int64(ix.rr.Load())
		return ix.applyPaths(rec), nil
	}
	d.corrMu.Lock()
	defer d.corrMu.Unlock()
	d.gate.RLock()
	defer d.gate.RUnlock()
	ix.epoch.Add(1)
	defer ix.epoch.Add(1)
	d.appendMu.Lock()
	rec.H = int64(ix.rr.Load())
	d.appendMu.Unlock()
	v := &readView{}
	ix.readView(v, compileQuery(MatchAll()), sortWalk{})
	v.entries = v.entries[len(ix.shards):] // applyPaths names the hot stripes below
	cold := make([][pathOutcomes]int, len(v.entries))
	err = v.each(ctx, true, func(i int, e *readEntry) {
		var row event.Event // a copy: a resident segment's rows are shared and read-only
		for k := range e.sh.rows.len() {
			e.sh.row(int32(k)).Event(&row)
			cold[i][resolvePaths(rec, e.gidOf(int32(k)), &row)]++
		}
	})
	v.release()
	if err != nil {
		return n, err
	}
	for _, c := range cold {
		for o := range c {
			n[o] += c[o]
		}
	}
	hot := ix.applyPaths(rec)
	for o := range hot {
		n[o] += hot[o]
	}
	if n[pathUpdated] == 0 {
		return n, nil
	}
	if err := ix.journalApply(durable.RecordPaths, rec.Encode(), 0, nil); err != nil {
		return n, err
	}
	d.addToBook(*rec)
	return n, nil
}

// decodePaths parses a journaled or replicated paths record and checks its
// horizon against the rows this index has placed: the record follows every
// row it names in the log, so a higher horizon is corruption.
func (ix *Index) decodePaths(payload []byte) (event.PathsRecord, error) {
	rec, err := event.DecodePaths(payload)
	if err != nil {
		return rec, fmt.Errorf("store: paths record: %w", err)
	}
	if head := int64(ix.rr.Load()); rec.H > head {
		return rec, fmt.Errorf("store: paths record: horizon %d past the %d rows placed", rec.H, head)
	}
	return rec, nil
}

// paths returns the index's path book: every paths record journaled so far
// (minus those retention outran), oldest first. The slice is immutable.
func (d *indexDurable) paths() []event.PathsRecord {
	if p := d.book.Load(); p != nil {
		return *p
	}
	return nil
}

// addToBook appends rec unless the book already holds it — a record still in
// the live WAL is also in any manifest compaction or retention committed
// since, and recovery meets it twice; a bootstrap ships it in the manifest
// and among the frames. Writers are serialized by corrMu, the
// exclusive gate, or single-threaded recovery.
func (d *indexDurable) addToBook(rec event.PathsRecord) {
	cur := d.paths()
	for i := range cur {
		if cur[i].H == rec.H && cur[i].Session == rec.Session && slices.Equal(cur[i].Pairs, rec.Pairs) {
			return
		}
	}
	next := append(cur[:len(cur):len(cur)], rec)
	d.book.Store(&next)
}
