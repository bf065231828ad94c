package store

import "slices"

// CodeTable numbers densely, from 0, the distinct strings one string field
// takes on the rows a walk reads (EachRow), without hashing a string per
// row: a row holds the string as a code into its shard's dictionary, and the
// table maps (dictionary, code) to the string's id through a slice per
// dictionary, so a row costs an integer comparison or two and a slice
// index. Each code is resolved to its id once, through the string's one
// hash, and the same string has the same id on every shard. A code means
// nothing without its dictionary's generation (shard.gen, unique in the
// process): when a shard's dictionaries are re-made (evictLocked, a page
// shard's reuse), their new generation is a dictionary the table has not
// met, and its codes are resolved anew. The table holds no shard, only
// codes, and forgets a dictionary no row has read for codeIdle rows, so it
// stays as small as the dictionaries a page reads, however many pages a walk
// has. A table is one reader's.
type CodeTable struct {
	slot  int
	ids   map[string]int32
	names []string
	dicts []codeDict
	last  int   // the index in dicts of the last row's dictionary
	rows  int64 // rows looked up so far
}

// codeDict is one dictionary generation's codes in a CodeTable: ids[c] is
// one more than the id of code c's string, 0 while c is not resolved. used
// is the table's row count when a row last read the dictionary, refreshed
// when the table leaves it.
type codeDict struct {
	gen  uint64
	used int64
	ids  []int32
}

// codeIdle is how many rows a CodeTable keeps a dictionary no row reads: a
// page shard's or a decoded segment's past pages, an evicted stripe's past
// generations. A dictionary dropped too soon costs its codes' lookups again.
const codeIdle = 256

// NewCodeTable returns an empty table over field, which must be a string
// field of the schema other than file_tag: a row's tag code is not one per
// tag (tagTable), so it cannot stand for the tag's string.
func NewCodeTable(field string) *CodeTable {
	f := fieldOf(field)
	if f.kind != slotKind {
		panic("store: NewCodeTable: " + field + " is not a string field")
	}
	return &CodeTable{slot: f.slot, ids: make(map[string]int32)}
}

// ID returns the id of w's string in the table's field. The dictionaries are
// searched from the last row's: a shard's rows come in runs, and a walk of
// round-robin stripes meets them in stripe order.
func (t *CodeTable) ID(w Row) int32 {
	t.rows++
	c, gen, n := w.r.str[t.slot], w.sh.gen, len(t.dicts)
	for k, i := 0, t.last; k < n; k++ {
		if d := &t.dicts[i]; d.gen == gen {
			if i != t.last {
				t.dicts[t.last].used, t.last = t.rows, i
			}
			if int(c) < len(d.ids) && d.ids[c] != 0 {
				return d.ids[c] - 1
			}
			return t.resolve(d, w.sh, c)
		}
		if i++; i == n {
			i = 0
		}
	}
	if n > 0 {
		t.dicts[t.last].used = t.rows
	}
	t.dicts = slices.DeleteFunc(t.dicts, func(d codeDict) bool { return t.rows-d.used > codeIdle })
	t.dicts = append(t.dicts, codeDict{gen: gen, used: t.rows})
	t.last = len(t.dicts) - 1
	return t.resolve(&t.dicts[t.last], w.sh, c)
}

// resolve gives code c of d, sh's dictionary, the id of its string, a new
// one when the table has not met the string.
func (t *CodeTable) resolve(d *codeDict, sh *shard, c uint32) int32 {
	name := sh.dicts[t.slot].terms[c]
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	if int(c) >= len(d.ids) {
		d.ids = append(d.ids, make([]int32, int(c)+1-len(d.ids))...)
	}
	d.ids[c] = id + 1
	return id
}

// Name returns the string id stands for.
func (t *CodeTable) Name(id int32) string { return t.names[id] }
