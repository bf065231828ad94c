package store

import (
	"context"
	"sync/atomic"

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

// openSyscalls are the syscalls that carry both a path argument and a file
// tag, anchoring the tag→path mapping. They are the primary anchor source;
// path-carrying non-open syscalls (stat, unlink, ...) are consulted only as
// a second-pass fallback for tags no open variant resolved.
var openSyscalls = []any{"open", "openat", "creat"}

// anchor is one tag→path candidate with the evidence needed to pick a
// deterministic winner.
type anchor struct {
	path    string
	enterNS int64
}

// better reports whether candidate c should replace cur: the earliest
// FieldTimeEnter anchor wins, with the lexicographically smaller path as the
// tie-break, so the dictionary is independent of shard-merge order.
func (c anchor) better(cur anchor) bool {
	if c.enterNS != cur.enterNS {
		return c.enterNS < cur.enterNS
	}
	return c.path < cur.path
}

// harvestAnchors folds one anchor search's hits into the dictionary,
// keeping the winning anchor per tag under the deterministic order above.
func harvestAnchors(dict map[event.FileTag]anchor, hits []event.Event) {
	for i := range hits {
		e := &hits[i]
		if e.FileTag.Zero() || e.KernelPath == "" {
			continue
		}
		c := anchor{path: e.KernelPath, enterNS: e.TimeEnterNS}
		if cur, seen := dict[e.FileTag]; !seen || c.better(cur) {
			dict[e.FileTag] = c
		}
	}
}

// CorrelateFilePaths implements DIO's custom correlation algorithm using
// the store's query and update features:
//
//  1. Search open-variant events (open/openat/creat) that carry both a file
//     tag and a kernel-resolved path; build the tag→path dictionary. Per
//     tag the anchor with the earliest FieldTimeEnter wins (path string as
//     tie-break), so the dictionary is deterministic under any shard count
//     and merge order — the inode-reuse shape of the Fluent Bit case study
//     (§III-B) depends on the first open of a tag naming it.
//  2. Fallback: tags no open variant anchored (the open was dropped or
//     pre-dates the session) are resolved from any other path-carrying
//     tagged event (stat, unlink, ...), under the same earliest-wins rule.
//  3. Update-by-query every event that carries a file tag but no file_path,
//     setting file_path from the dictionary.
//
// It can run while the tracer is still indexing (near-real-time pipeline)
// or on demand after the session completes (§II-E).
func CorrelateFilePaths(ix *Index, session string) CorrelationResult {
	res, _ := correlateFilePaths(context.Background(), ix, session, nil)
	return res
}

func correlateFilePaths(ctx context.Context, ix *Index, session string, tm *storeTelemetry) (CorrelationResult, error) {
	var res CorrelationResult

	sessionFilter := func() []Query {
		if session == "" {
			return nil
		}
		return []Query{Term(FieldSession, session)}
	}

	// Step 1: harvest tag→path anchors from open-like events only — the
	// syscalls whose path argument names the file the tag identifies.
	dict := make(map[event.FileTag]anchor)
	openAnchors, err := ix.searchEventsCtx(ctx, SearchRequest{
		Query: Query{Bool: &BoolQuery{
			Must: append(sessionFilter(),
				Terms(FieldSyscall, openSyscalls...),
				Exists(FieldFileTag),
				Exists(FieldKernelPath),
			),
		}},
		Size: -1,
	})
	if err != nil {
		return res, err
	}
	harvestAnchors(dict, openAnchors.Hits)

	// Step 2 (fallback): for tags without an open anchor, any path-carrying
	// tagged event still names the file; weaker evidence, so it never
	// overrides an open anchor.
	fallback, err := ix.searchEventsCtx(ctx, SearchRequest{
		Query: Query{Bool: &BoolQuery{
			Must: append(sessionFilter(),
				Exists(FieldFileTag),
				Exists(FieldKernelPath),
			),
			MustNot: []Query{Terms(FieldSyscall, openSyscalls...)},
		}},
		Size: -1,
	})
	if err != nil {
		return res, err
	}
	fallbackDict := make(map[event.FileTag]anchor)
	harvestAnchors(fallbackDict, fallback.Hits)
	for tag, c := range fallbackDict {
		if _, seen := dict[tag]; !seen {
			dict[tag] = c
		}
	}

	res.TagsResolved = len(dict)

	// Step 3: rewrite tagged events without a path. UpdateByQuery fans out
	// across index shards, so the closure runs concurrently; the counters
	// are shared and must be updated atomically. dict is read-only here.
	q := Query{Bool: &BoolQuery{
		Must: append(sessionFilter(), Exists(FieldFileTag)),
	}}
	var withTag, updated, unresolved, already atomic.Int64
	var ubqErr error
	updateByQuery := func() {
		_, ubqErr = ix.updateByQueryCtx(ctx, q, func(e *event.Event) bool {
			withTag.Add(1)
			if e.FilePath != "" {
				already.Add(1)
				return false
			}
			if e.KernelPath != "" {
				e.FilePath = e.KernelPath
				updated.Add(1)
				return true
			}
			c, ok := dict[e.FileTag]
			if !ok {
				unresolved.Add(1)
				return false
			}
			e.FilePath = c.path
			updated.Add(1)
			return true
		})
	}
	if tm != nil {
		observeNS(tm.updateNS, updateByQuery)
	} else {
		updateByQuery()
	}
	res.EventsWithTag = int(withTag.Load())
	res.EventsUpdated = int(updated.Load())
	res.EventsUnresolved = int(unresolved.Load())
	res.EventsAlreadyResolved = int(already.Load())
	return res, ubqErr
}
