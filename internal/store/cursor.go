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

// maxExactInt bounds a cursor's gid: below it every integer is exact in the
// float64 a JSON number decodes to.
const maxExactInt = float64(1 << 53)

// errBadSearchAfter rejects malformed cursors: a 400.
var errBadSearchAfter = BadRequest(errors.New("store: invalid search_after cursor"))

// ErrCursorExpired rejects an unsorted (insertion-order) cursor whose resume
// position precedes the retention floor: rows past it may have been dropped
// by the retention horizon, so resuming would silently skip data. The HTTP
// layer maps it to 410 Gone; clients restart the walk from the beginning.
// Sorted cursors resume by sort key and never expire — a concurrent drop
// only shrinks the remaining result set.
var ErrCursorExpired = errors.New("store: search_after cursor expired: rows beyond it were dropped by retention")

// searchCursor is a parsed SearchAfter: the boundary row's sort keys and its
// global id. It is parsed in place, into the search's own state, and the keys
// of a sort on up to two fields — every sort the dashboards and the diagnosis
// cursor issue — live in inline, so a resumed page allocates nothing a first
// page does not. It must not be copied once parsed.
type searchCursor struct {
	keys   []cursorKey
	gid    int
	inline [2]cursorKey
}

// cursorKey is one sort-key value of a cursor as the token carried it, with
// its numeric coercion parsed once per request: a row compares against it
// through the sort column, unboxed, as cmpIDs compares two rows.
type cursorKey struct {
	val any
	num float64
	ok  bool
}

// parse validates and decodes req.SearchAfter into c; ok is false when the
// request has none. A cursor replaces From — the caller resumes a walk, not
// an offset — so a nonzero From alongside one is an error.
func (c *searchCursor) parse(req SearchRequest) (ok bool, err error) {
	if len(req.SearchAfter) == 0 {
		return false, nil
	}
	if req.From != 0 {
		return false, errBadSearchAfter
	}
	if len(req.SearchAfter) != len(req.Sort)+1 {
		return false, errBadSearchAfter
	}
	last := req.SearchAfter[len(req.SearchAfter)-1]
	f, isNum := numeric(last)
	if !isNum || f != math.Trunc(f) || f < 0 || f >= maxExactInt {
		return false, errBadSearchAfter
	}
	c.gid = int(f)
	if c.keys = c.inline[:0]; len(req.Sort) > len(c.inline) {
		c.keys = make([]cursorKey, 0, len(req.Sort))
	}
	for _, v := range req.SearchAfter[:len(req.Sort)] {
		k := cursorKey{val: v}
		k.num, k.ok = numeric(v)
		c.keys = append(c.keys, k)
	}
	return true, nil
}

// afterID reports whether shard row id sorts strictly after the cursor
// position. Each key reads the row through its sort column (cols, aligned
// with sorts) and compares unboxed when both sides are numeric; only a value
// that is not goes through cmpField. gidOf is called on a full key tie only.
// Caller holds the shard read lock.
func (c *searchCursor) afterID(sh *shard, id int32, sorts []SortField, cols []*column, gidOf func(int32) int) bool {
	for i, s := range sorts {
		k := &c.keys[i]
		var r int
		if f, ok := sh.colVal(cols[i], s.Field, id); ok && k.ok {
			r = cmpOrdered(f, k.num, s.Desc)
		} else {
			r = cmpField(sh.val(id, s.Field), k.val, s.Desc)
		}
		if r != 0 {
			return r > 0
		}
	}
	return gidOf(id) > c.gid
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
