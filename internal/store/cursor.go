package store

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
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
// value per sort field in request order (a string, an integer, or null for a
// field the row lacked), then the gid as a non-negative integer. Integers
// travel as JSON integers and are decoded exactly (decodeJSON), so a 19-digit
// timestamp resumes where it left off. Tokens are only meaningful for the
// same index state and the same sort spec they were issued under.

// errBadSearchAfter rejects malformed cursors: a 400.
var errBadSearchAfter = BadRequest(errors.New("store: invalid search_after cursor"))

// ErrCursorExpired rejects an unsorted (insertion-order) cursor whose resume
// position precedes the retention floor: rows past it may have been dropped
// by the retention horizon, so resuming would silently skip data. The HTTP
// layer maps it to 410 Gone; clients restart the walk from the beginning.
// Sorted cursors resume by sort key and never expire — a concurrent drop
// only shrinks the remaining result set.
var ErrCursorExpired = errors.New("store: search_after cursor expired: rows beyond it were dropped by retention")

// searchCursor is a parsed SearchAfter: the boundary row's sort keys, each
// unboxed once per request so that a row compares against it as cmpIDs
// compares two rows, and its global id. It is parsed in place, into the
// search's own state, and the keys of a sort on up to two fields — every sort
// the dashboards and the diagnosis cursor issue — live in inline, so a
// resumed page allocates nothing a first page does not. It must not be copied
// once parsed.
type searchCursor struct {
	keys   []sortKey
	gid    int
	inline [2]sortKey
}

// cursorGID reads a cursor's last element, the boundary row's global id,
// by the one rule every side applies (parse, and a Client before it sends
// the request): a non-negative integer, as a Go integer or a JSON integer
// literal. A float is not one, whatever its value: next_after writes an
// integer, and JSON would carry a float gid as the integer literal it
// rounds to, so a Client that sent one would resume where the caller did
// not ask.
func cursorGID(after []any) (int, error) {
	last := after[len(after)-1]
	switch x := last.(type) {
	case bool, float32, float64:
		return 0, errBadSearchAfter
	case json.Number:
		if _, err := x.Int64(); err != nil {
			return 0, errBadSearchAfter
		}
	}
	gid, isInt := intOf(last)
	if !isInt || gid < 0 || gid > math.MaxInt {
		return 0, errBadSearchAfter
	}
	return int(gid), nil
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
	gid, err := cursorGID(req.SearchAfter)
	if err != nil {
		return false, err
	}
	c.gid = gid
	if c.keys = c.inline[:0]; len(req.Sort) > len(c.inline) {
		c.keys = make([]sortKey, 0, len(req.Sort))
	}
	for i, v := range req.SearchAfter[:len(req.Sort)] {
		c.keys = append(c.keys, cursorKey(fieldOf(req.Sort[i].Field), v))
	}
	return true, nil
}

// cursorKey reads v, a cursor's value for sort field f, as f's rows hold
// their keys (fieldDef.key): for a string field its keyString; for any other
// the integer v is or spells as a decimal string, so that "5" and 5 resume
// at one place; else its keyString, which cmpKeys compares as text.
func cursorKey(f *fieldDef, v any) sortKey {
	if !f.isString() {
		if n, ok := intOf(v); ok {
			return sortKey{num: n, isNum: true}
		}
		if s, ok := v.(string); ok {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				return sortKey{num: n, isNum: true}
			}
		}
	}
	return sortKey{str: keyString(v)}
}

// at places c at ref, a page's last row: the position parse reads back from
// the page's token, which nextAfterRef renders from the keys at reads. A
// walk in process (Store.eachRow) resumes from c as it is, nothing rendered
// or boxed. Caller holds ref's read lock.
func (c *searchCursor) at(ref *hitRef, sorts []sortBy) {
	if c.keys == nil {
		c.keys = c.inline[:0]
	}
	c.keys, c.gid = c.keys[:0], ref.gid
	for i := range sorts {
		c.keys = append(c.keys, ref.sortKey(i, sorts[i].f))
	}
}

// afterID reports whether shard row id sorts strictly after the cursor
// position, each key read through its entry and compared by cmpKeys. gidOf
// is called on a full key tie only. Caller holds the shard read lock.
func (c *searchCursor) afterID(sh *shard, id int32, sorts []sortBy, gidOf func(int32) int) bool {
	w := sh.row(id)
	for i, s := range sorts {
		if r := cmpKeys(s.f.key(w), c.keys[i], s.desc); r != 0 {
			return r > 0
		}
	}
	return gidOf(id) > c.gid
}

// firstLocalAfter returns the smallest local id of shard shardIdx (of S)
// whose global id (id*S + shardIdx) exceeds gid — the O(1) resume point for
// unsorted (insertion-order) paging. A gid past every id a shard can hold
// saturates at MaxInt32, past every row.
func firstLocalAfter(gid, shardIdx, S int) int32 {
	if gid < shardIdx {
		return 0
	}
	return int32(min((gid-shardIdx)/S+1, math.MaxInt32))
}

// nextAfterRef encodes the continuation token for the page ending at ref:
// each sort key searchCursor.at reads, as a scalar that survives a JSON
// round-trip and compares back equal under cmpKeys — a string the row
// holds, an integer it holds (has_offset as 0/1), or null where it lacks the
// field — then the gid.
func nextAfterRef(ref hitRef, sorts []sortBy) []any {
	var c searchCursor
	c.at(&ref, sorts)
	out := make([]any, 0, len(sorts)+1)
	for i, k := range c.keys {
		var v any
		switch {
		case k.isNum:
			v = k.num
		case k.str != "" || sorts[i].f.indexed(): // present (fieldDef.str)
			v = k.str
		}
		out = append(out, v)
	}
	return append(out, c.gid)
}
