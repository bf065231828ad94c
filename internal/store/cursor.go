package store

import (
	"errors"
	"math"
)

// Streaming search cursors ("search_after"): a sorted search whose response
// filled its page carries a NextAfter token — the page's last row rendered as
// its sort-key values plus the global id as the tie-break. Re-issuing the
// request with that token as SearchAfter resumes strictly after that row, so
// large result sets page in bounded responses instead of materializing at
// once. The gid makes the position total even among fully tied sort keys,
// which is what lets paged output replay a monolithic sorted search exactly.
//
// Wire format: "search_after" is a JSON array of len(sort)+1 scalars — one
// value per sort field in request order (string or number, null for a field
// the row lacked), then the gid as a number. Tokens are only meaningful for
// the same index state and the same sort spec they were issued under.

// errBadSearchAfter rejects malformed cursors; the HTTP layer maps it to 400.
var errBadSearchAfter = errors.New("store: invalid search_after cursor")

// ErrCursorExpired rejects an unsorted (insertion-order) cursor whose resume
// position precedes the retention floor: rows past it may have been dropped
// by the retention horizon, so resuming would silently skip data. The HTTP
// layer maps it to 410 Gone; clients restart the walk from the beginning.
// Sorted cursors resume by sort key and never expire — a concurrent drop
// only shrinks the remaining result set.
var ErrCursorExpired = errors.New("store: search_after cursor expired: rows beyond it were dropped by retention")

// searchCursor is a parsed SearchAfter: the boundary row's sort-key values
// and its global id.
type searchCursor struct {
	vals []any
	gid  int
}

// parseSearchAfter validates and decodes req.SearchAfter (nil cursor when the
// request has none). A cursor replaces From — the caller resumes a walk, not
// an offset — so a nonzero From alongside one is an error.
func parseSearchAfter(req SearchRequest) (*searchCursor, error) {
	if len(req.SearchAfter) == 0 {
		return nil, nil
	}
	if req.From != 0 {
		return nil, errBadSearchAfter
	}
	if len(req.SearchAfter) != len(req.Sort)+1 {
		return nil, errBadSearchAfter
	}
	last := req.SearchAfter[len(req.SearchAfter)-1]
	f, ok := numeric(last)
	if !ok || f != math.Trunc(f) || f < 0 || f >= maxExactInt {
		return nil, errBadSearchAfter
	}
	return &searchCursor{
		vals: req.SearchAfter[:len(req.SearchAfter)-1],
		gid:  int(f),
	}, nil
}

// afterID reports whether shard row id (global id gid) sorts strictly after
// the cursor position. Caller holds the shard read lock.
func (c *searchCursor) afterID(sh *shard, id int32, gid int, sorts []SortField) bool {
	for i, s := range sorts {
		if r := cmpField(sh.val(id, s.Field), c.vals[i], s.Desc); r != 0 {
			return r > 0
		}
	}
	return gid > c.gid
}

// firstLocalAfter returns the smallest local id of shard shardIdx (of S)
// whose global id (id*S + shardIdx) exceeds gid — the O(1) resume point for
// unsorted (insertion-order) paging.
func firstLocalAfter(gid, shardIdx, S int) int32 {
	num := gid + 1 - shardIdx
	if num <= 0 {
		return 0
	}
	return int32((num + S - 1) / S)
}

// cursorVal renders one row value as a cursor scalar that survives a JSON
// round-trip and compares back equal under cmpField: strings stay strings,
// numerics (bool included — sorting already coerces through numeric) become
// float64, anything else degrades to null.
func cursorVal(v any) any {
	if s, ok := v.(string); ok {
		return s
	}
	if f, ok := numeric(v); ok {
		return f
	}
	return nil
}

// nextAfterRef encodes the continuation token for the page ending at ref.
func nextAfterRef(ref hitRef, sorts []SortField) []any {
	out := make([]any, 0, len(sorts)+1)
	for _, s := range sorts {
		v, _ := ref.ev.Field(s.Field)
		out = append(out, cursorVal(v))
	}
	return append(out, float64(ref.gid))
}
