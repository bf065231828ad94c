package store

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// shard is one lock stripe of an Index. Rows are distributed across shards
// round-robin by insertion order, so shard s of S holds the rows whose global
// ids are ≡ s (mod S) and the global id of the row at local position i is
// i*S + s. Per-shard global ids are therefore always sorted in append order,
// which the merge phase of Search relies on.
//
// A row is a packed hotRow: each string field is a code into the shard's
// dictionary of that field, and the file tag a code into its tag table,
// written with the row under the write lock, so a string a shard's rows
// repeat is held once, and a tag its recent rows repeat. Postings, runs,
// query evaluation and aggregation read a row in place, each field through
// its resolved table entry (fieldTable), and never build a map; a search hit
// is unpacked into an event.Event only at the edge. Everything else a shard
// holds is derived from its rows: dictionaries, tag table and postings at
// append, sort orders on demand (ensureRuns).
type shard struct {
	mu       sync.RWMutex
	rows     rows
	dicts    [nSlots]dict        // per string slot: code <-> term
	tags     tagTable            // file tags: code -> tag
	postings [nIndexed][][]int32 // per indexed slot and code: local row ids
	runs     map[runKey]*termRun // lazy sort orders, keyed by sort field and term
	gen      uint64              // the dictionaries' generation (dictGens): new each time they are re-made
}

// termKey names one term of one indexed keyword field.
type termKey struct{ field, term string }

// runKey names a run: the numeric field it is in the order of, and the term
// whose rows it holds, the zero term for every row of the shard.
type runKey struct {
	field string
	term  termKey
}

// termRun is a sort order a single-key sorted page asked for: the local ids
// of one indexed keyword term's rows, or of every row under the zero term,
// ascending by (value, id) in the page's sort field — the total order cmpIDs
// and the id tie-break define — with vals[i] the value of ids[i]. A term's
// run holds every match of a query that requires the term, so a page over
// one session of many walks that session's rows alone; a term holding every
// row of the shard has none, the all-rows run is its run. A run's first
// build reads its rows and no other, and a page reads its keys from it, so
// that a page can resume by binary search instead of re-testing every
// match. It is extended by the rows appended since when a page asks for it
// again, and the all-rows run also when a range on its field does, costs
// 12 B per entry, and goes with the rows at eviction. A run some of whose
// rows lack the field is nil: it has no order to walk.
//
// A termRun value is also what a page walks: a run, or a window of one cut
// by binary search (window).
type termRun struct {
	ids  []int32
	vals []int64
}

func (l termRun) len() int { return len(l.ids) }

func (l termRun) at(i int) int64 { return l.vals[i] }

// slice is the entries [lo, hi) of l.
func (l termRun) slice(lo, hi int) termRun {
	return termRun{ids: l.ids[lo:hi], vals: l.vals[lo:hi]}
}

// walkRun returns the key of the run a page of walk reads on this shard,
// and the ids that run holds when it covers the shard, n of them: the
// term's posting list when walk has a term holding fewer than all of the
// shard's rows (none: the page walks nothing), and otherwise the all-rows
// run's, ids nil and n the row count. Caller holds the lock.
func (sh *shard) walkRun(walk sortWalk) (k runKey, ids []int32, n int) {
	if walk.term.field != "" {
		ids, _ = sh.posting(walk.term.field, walk.term.term)
		if len(ids) < sh.rows.len() {
			return runKey{walk.field, walk.term}, ids, len(ids)
		}
	}
	return runKey{field: walk.field}, nil, sh.rows.len()
}

// short reports whether run k falls short of n entries: it was never built,
// or rows were appended since. A nil run has none to fall short of. Caller
// holds the lock.
func (sh *shard) short(k runKey, n int) bool {
	r, built := sh.runs[k]
	return !built || r != nil && len(r.ids) < n
}

// extendRun brings run k up to n entries, ids[i] its i-th row (row i when
// ids is nil, the all-rows run): the rows since the run was last extended,
// all of them the first time, are read from the row and merged in. Caller
// holds the write lock.
func (sh *shard) extendRun(k runKey, ids []int32, n int) {
	if !sh.short(k, n) {
		return
	}
	f := fieldOf(k.field)
	if sh.runs == nil {
		sh.runs = make(map[runKey]*termRun)
	}
	r := sh.runs[k]
	if r == nil {
		r = &termRun{ids: make([]int32, 0, n), vals: make([]int64, 0, n)}
	}
	m := len(r.ids)
	for i := m; i < n; i++ {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		v, ok := f.read(sh.row(id))
		if !ok {
			sh.runs[k] = nil
			return
		}
		r.ids, r.vals = append(r.ids, id), append(r.vals, v)
	}
	r.mergeTail(m)
	sh.runs[k] = r
}

// valID is a row's id with its value, read once for a sort and a merge.
type valID struct {
	v  int64
	id int32
}

func cmpValID(a, b valID) int {
	if r := cmp.Compare(a.v, b.v); r != 0 {
		return r
	}
	return cmp.Compare(a.id, b.id)
}

// mergeTail puts l, whose first k entries are in order and whose rest are
// ids past every one of them, in order. When the new entries are in order
// and sort after the last old one they stay as they are. Otherwise they are
// sorted among themselves, each value read once, and only the suffix of l
// whose values they overlap is merged with them, in place from the back.
func (l termRun) mergeTail(k int) {
	n := l.len()
	inOrder := true
	for i := k + 1; i < n && inOrder; i++ {
		inOrder = cmpValID(valID{l.at(i - 1), l.ids[i-1]}, valID{l.at(i), l.ids[i]}) < 0
	}
	if inOrder && (k == 0 || k == n || l.at(k) >= l.at(k-1)) {
		return
	}
	vs := make([]valID, n-k)
	for i := range vs {
		vs[i] = valID{l.at(k + i), l.ids[k+i]}
	}
	if !inOrder {
		slices.SortFunc(vs, cmpValID)
	}
	put := func(w int, e valID) { l.ids[w], l.vals[w] = e.id, e.v }
	if k == 0 || vs[0].v >= l.at(k-1) {
		for i, e := range vs {
			put(k+i, e)
		}
		return
	}
	p := sort.Search(k, func(i int) bool { return l.at(i) > vs[0].v })
	i, j := k-1, len(vs)-1
	for w := n - 1; j >= 0; w-- {
		if i >= p && l.at(i) > vs[j].v {
			put(w, valID{l.at(i), l.ids[i]})
			i--
		} else {
			put(w, vs[j])
			j--
		}
	}
}

// orderedRun returns the ids of the all-rows run of range clause c's field
// whose values c admits, or ok false unless that run covers every row.
// Caller holds the read lock.
func (sh *shard) orderedRun(c *clause) (run []int32, ok bool) {
	l := sh.runs[runKey{field: c.name}]
	if l == nil || l.len() != sh.rows.len() {
		return nil, false
	}
	return l.window(c.lo, c.hi).ids, true
}

// window returns the entries of l whose values lie in [lo, hi]: two binary
// searches making a range clause's comparisons.
func (l termRun) window(lo, hi int64) termRun {
	i := sort.Search(l.len(), func(k int) bool { return l.at(k) >= lo })
	j := i + sort.Search(l.len()-i, func(k int) bool { return l.at(i+k) > hi })
	return l.slice(i, j)
}

// idSet is one request's set of a shard's local ids, a bit per row: built in
// O(members) plus n/64 words and garbage once the request is answered.
type idSet []uint64

func newIDSet(n int, ids []int32) idSet {
	s := make(idSet, (n+63)>>6)
	for _, id := range ids {
		s[id>>6] |= 1 << (id & 63)
	}
	return s
}

func (s idSet) has(id int32) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// sortedIDs returns run, distinct local ids below n, in ascending order by a
// bitmap read-out: two drain workers leave a time order far from id order.
func sortedIDs(run []int32, n int) []int32 {
	out := make([]int32, 0, len(run))
	for w, word := range newIDSet(n, run) {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// blockRows is the row count of one storage block: a power of two, so a row
// id splits into block and slot by shift and mask. 1 024 rows of 120 bytes
// are 15 allocator pages exactly (512 would round up to 8 pages, 128 B a
// row). The tail block is allocated whole, so an index's heap is a staircase
// in its row count with a step of shards × one block; the block list of a
// million-row shard is still only 1 000 headers.
const (
	blockShift = 10
	blockRows  = 1 << blockShift
)

// The string slots of a hotRow: the first nIndexed are the indexed keyword
// fields, which have posting lists and are present on every row.
const (
	nSlots       = 11
	nIndexed     = 5
	slotFilePath = nSlots - 1
)

// fieldTable is the schema as a packed row holds it, each field listed once:
// a string slot, file_tag (the tag rendered), or an integer with its
// presence. A request resolves each field name it reads to its entry once
// (fieldOf, compileQuery, resolveSorts), and every row read goes through
// the entry. TestPackedRowMatchesEvent holds every entry to the document
// view (EventToDoc).
var fieldTable = map[string]*fieldDef{
	FieldSession:    {kind: slotKind, slot: 0, read: noInt},
	FieldSyscall:    {kind: slotKind, slot: 1, read: noInt},
	FieldProcName:   {kind: slotKind, slot: 2, read: noInt},
	FieldThreadName: {kind: slotKind, slot: 3, read: noInt},
	FieldClass:      {kind: slotKind, slot: 4, read: noInt},
	FieldArgPath:    {kind: slotKind, slot: 5, read: noInt},
	FieldArgPath2:   {kind: slotKind, slot: 6, read: noInt},
	FieldAttrName:   {kind: slotKind, slot: 7, read: noInt},
	FieldFileType:   {kind: slotKind, slot: 8, read: noInt},
	FieldKernelPath: {kind: slotKind, slot: 9, read: noInt},
	FieldFilePath:   {kind: slotKind, slot: slotFilePath, read: noInt},
	FieldFileTag:    {kind: tagKind, read: noInt},
	FieldRetVal:     {kind: intKind, read: func(w Row) (int64, bool) { return w.r.RetVal, true }},
	FieldPID:        {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.PID), true }},
	FieldTID:        {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.TID), true }},
	FieldTimeEnter:  {kind: intKind, read: func(w Row) (int64, bool) { return w.r.TimeEnterNS, true }},
	FieldTimeExit:   {kind: intKind, read: func(w Row) (int64, bool) { return w.r.TimeExitNS, true }},
	FieldDuration:   {kind: intKind, read: func(w Row) (int64, bool) { return w.r.TimeExitNS - w.r.TimeEnterNS, true }},
	FieldFD:         {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.FD), w.r.FD != 0 }},
	FieldCount:      {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.Count), w.r.Count != 0 }},
	FieldArgOffset:  {kind: intKind, read: func(w Row) (int64, bool) { return w.r.ArgOff, w.r.ArgOff != 0 }},
	FieldWhence:     {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.Whence), w.r.Whence != 0 }},
	FieldFlags:      {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.Flags), w.r.Flags != 0 }},
	FieldMode:       {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.r.Mode), w.r.Mode != 0 }},
	FieldOffset:     {kind: intKind, read: func(w Row) (int64, bool) { return w.r.Offset, w.r.HasOffset }},
	FieldDevNo:      {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.FileTag().Dev), w.r.tag != 0 }},
	FieldInodeNo:    {kind: intKind, read: func(w Row) (int64, bool) { return int64(w.FileTag().Ino), w.r.tag != 0 }},
	FieldTagTS:      {kind: intKind, read: func(w Row) (int64, bool) { return w.FileTag().BirthNS, w.r.tag != 0 }},
	FieldHasOffset: {kind: flagKind, read: func(w Row) (int64, bool) {
		if w.r.HasOffset {
			return 1, true
		}
		return 0, true
	}},
}

// fieldKind is what a packed row holds for a field.
type fieldKind uint8

const (
	absentKind fieldKind = iota // a name the schema lacks: no row has it
	slotKind                    // a string slot: present when indexed, else when not ""
	tagKind                     // file_tag: the tag rendered, present when set
	intKind                     // an integer, read with its presence by read
	flagKind                    // has_offset: read gives 0/1, the document view a bool
)

// fieldDef is one entry of fieldTable. read gives the field of a row as an
// integer, ok false where the row lacks it and for a field that is not one.
type fieldDef struct {
	kind fieldKind
	slot int
	read func(w Row) (int64, bool)
}

// absentField is the entry of every name the schema lacks.
var absentField = fieldDef{kind: absentKind, read: noInt}

func noInt(Row) (int64, bool) { return 0, false }

// fieldOf resolves a field name to its table entry.
func fieldOf(name string) *fieldDef {
	if f := fieldTable[name]; f != nil {
		return f
	}
	return &absentField
}

// key reads the field of w as a sort key: an integer where it is one the row
// has, else the string, "" where the row lacks it.
func (f *fieldDef) key(w Row) sortKey {
	if f.isString() {
		s, _ := f.str(w)
		return sortKey{str: s}
	}
	n, ok := f.read(w)
	return sortKey{num: n, isNum: ok}
}

// str reads the field of w as a string field's value: the slot's string,
// present when the field is indexed or the string is not "", or the tag
// rendered, present when set. ok is false for any other field.
func (f *fieldDef) str(w Row) (s string, ok bool) {
	switch f.kind {
	case slotKind:
		s = w.str(f.slot)
		return s, s != "" || f.indexed()
	case tagKind:
		if w.r.tag == 0 {
			return "", false
		}
		return w.FileTag().String(), true
	}
	return "", false
}

// isString reports whether f's values are strings (str), not integers (read).
func (f *fieldDef) isString() bool { return f.kind == slotKind || f.kind == tagKind }

// indexed reports whether f is an indexed keyword field's: it has posting
// lists, and every row holds it.
func (f *fieldDef) indexed() bool { return f.kind == slotKind && f.slot < nIndexed }

// slotsOf points at e's string fields by slot.
func slotsOf(e *event.Event) [nSlots]*string {
	return [nSlots]*string{&e.Session, &e.Syscall, &e.ProcName, &e.ThreadName, &e.Class,
		&e.ArgPath, &e.ArgPath2, &e.AttrName, &e.FileType, &e.KernelPath, &e.FilePath}
}

// hotRow is one stored event in 120 bytes: a dictionary code per string
// slot, a code into the shard's tag table (0: no tag), in 32 bits the fields
// every wire form keeps in 32 (a stored event is canonical,
// event.Event.Canonicalize), and the rest as the event holds them.
type hotRow struct {
	str                                             [nSlots]uint32
	tag                                             uint32
	PID, TID, FD, Count, Whence, Flags              int32
	Mode                                            uint32
	HasOffset                                       bool // in the padding before the int64s
	RetVal, ArgOff, TimeEnterNS, TimeExitNS, Offset int64
}

// dict is one string slot's dictionary on a shard: terms[c] is code c's term,
// codes the way back, and code 0 is "". last is the code interned last, so a
// run of rows repeating a string pays no map lookup.
type dict struct {
	terms []string
	codes map[string]uint32
	last  uint32
}

// intern returns s's code, adding s when the dictionary lacks it. Caller
// holds the shard write lock.
func (d *dict) intern(s string) uint32 {
	if s == d.terms[d.last] {
		return d.last
	}
	c, ok := d.codes[s]
	if !ok && s != "" {
		c = uint32(len(d.terms))
		d.terms, d.codes[s] = append(d.terms, s), c
	}
	d.last = c
	return c
}

// tagTable is a shard's file tags: tags[c] is code c's tag, and code 0, the
// zero tag, is a row with none. It is append-only and holds no map: rows are
// dealt round-robin, so every shard meets most tags, and a map entry per tag
// per shard would cost more than the inline tag it replaces. A direct-mapped
// cache of recent codes, indexed by a hash of the tag, finds a tag the
// shard's recent rows carried; a tag the cache has lost is appended again,
// so one tag may have several codes, and a reader compares tags, not codes.
type tagTable struct {
	tags  []event.FileTag
	cache [256]uint32
}

// intern returns tag's code, appending tag when the cache does not hold it.
// Caller holds the shard write lock.
func (t *tagTable) intern(tag event.FileTag) uint32 {
	if tag.Zero() {
		return 0
	}
	h := (tag.Dev<<32 ^ tag.Ino ^ uint64(tag.BirthNS)) * 0x9e3779b97f4a7c15 >> 56
	if c := t.cache[h]; t.tags[c] == tag {
		return c
	}
	c := uint32(len(t.tags))
	t.tags, t.cache[h] = append(t.tags, tag), c
	return c
}

// reset empties t in place: code 0 alone, and nothing cached.
func (t *tagTable) reset() {
	t.tags, t.cache = append(t.tags[:0], event.FileTag{}), [256]uint32{}
}

// rows is a shard's row storage: append-only blocks of blockRows rows, each
// allocated whole when the last fills. A row is written once into its slot
// and never moves, so growing the shard allocates (and zeroes) exactly the
// block being opened, and a pointer from at stays valid for as long as the
// block is referenced.
type rows struct {
	blocks [][]hotRow
	n      int
}

func (r *rows) len() int { return r.n }

// at returns row i in place.
func (r *rows) at(i int) *hotRow { return &r.blocks[i>>blockShift][i&(blockRows-1)] }

// add returns the next slot, opening a block when the last is full. The
// slot is zero unless reuse emptied the shard; addEventLocked writes every
// field either way.
func (r *rows) add() *hotRow {
	if r.n&(blockRows-1) == 0 && r.n>>blockShift == len(r.blocks) {
		r.blocks = append(r.blocks, make([]hotRow, blockRows))
	}
	r.n++
	return r.at(r.n - 1)
}

func newShard() *shard {
	sh := &shard{}
	sh.evictLocked()
	return sh
}

// posting returns term's posting list in field, and whether field is
// indexed. Caller holds the lock.
func (sh *shard) posting(field, term string) ([]int32, bool) {
	f := fieldOf(field)
	if !f.indexed() {
		return nil, false
	}
	c, ok := sh.dicts[f.slot].codes[term]
	if !ok && term != "" {
		return nil, true
	}
	return sh.postings[f.slot][c], true
}

// Row is one stored row read in place: the packed row and the shard whose
// dictionaries and tag table its codes index. It is what a compiled clause
// tests and what a diagnosis pass observes (EachRow); its accessors answer as
// event.Event's fields and methods do, one per field, so a reader pays for
// the fields it reads and no more. A Row is borrowed: it is valid while the
// read lock, or the walk's page, it was handed under lasts.
type Row struct {
	sh *shard
	r  *hotRow
}

// row returns local row id. Caller holds at least the read lock.
func (sh *shard) row(id int32) Row { return Row{sh, sh.rows.at(int(id))} }

// str returns the row's string in slot f.
func (w Row) str(f int) string { return w.sh.dicts[f].terms[w.r.str[f]] }

// The accessors, one per event.Event field, in slot order for the
// strings; TestPackedRowMatchesEvent holds each to its field.

func (w Row) Session() string        { return w.str(0) }
func (w Row) Syscall() string        { return w.str(1) }
func (w Row) ProcName() string       { return w.str(2) }
func (w Row) ThreadName() string     { return w.str(3) }
func (w Row) Class() string          { return w.str(4) }
func (w Row) ArgPath() string        { return w.str(5) }
func (w Row) ArgPath2() string       { return w.str(6) }
func (w Row) AttrName() string       { return w.str(7) }
func (w Row) FileType() string       { return w.str(8) }
func (w Row) KernelPath() string     { return w.str(9) }
func (w Row) FilePath() string       { return w.str(slotFilePath) }
func (w Row) RetVal() int64          { return w.r.RetVal }
func (w Row) FD() int                { return int(w.r.FD) }
func (w Row) Count() int             { return int(w.r.Count) }
func (w Row) ArgOff() int64          { return w.r.ArgOff }
func (w Row) Whence() int            { return int(w.r.Whence) }
func (w Row) Flags() int             { return int(w.r.Flags) }
func (w Row) Mode() uint32           { return w.r.Mode }
func (w Row) PID() int               { return int(w.r.PID) }
func (w Row) TID() int               { return int(w.r.TID) }
func (w Row) TimeEnterNS() int64     { return w.r.TimeEnterNS }
func (w Row) TimeExitNS() int64      { return w.r.TimeExitNS }
func (w Row) DurationNS() int64      { return w.r.TimeExitNS - w.r.TimeEnterNS }
func (w Row) FileTag() event.FileTag { return w.sh.tags.tags[w.r.tag] }
func (w Row) Offset() int64          { return w.r.Offset }
func (w Row) HasOffset() bool        { return w.r.HasOffset }

// Event writes the row as the event it was stored from, field by field and
// the strings in slot order: no temporary event or pointer array is
// built and copied.
func (w Row) Event(dst *event.Event) {
	r := w.r
	dst.RetVal, dst.ArgOff, dst.TimeEnterNS, dst.TimeExitNS, dst.Offset = r.RetVal, r.ArgOff, r.TimeEnterNS, r.TimeExitNS, r.Offset
	dst.PID, dst.TID, dst.FD, dst.Count = int(r.PID), int(r.TID), int(r.FD), int(r.Count)
	dst.Whence, dst.Flags, dst.Mode, dst.FileTag, dst.HasOffset = int(r.Whence), int(r.Flags), r.Mode, w.FileTag(), r.HasOffset
	dst.Session, dst.Syscall, dst.ProcName, dst.ThreadName, dst.Class = w.str(0), w.str(1), w.str(2), w.str(3), w.str(4)
	dst.ArgPath, dst.ArgPath2, dst.AttrName, dst.FileType, dst.KernelPath, dst.FilePath = w.str(5), w.str(6), w.str(7), w.str(8), w.str(9), w.str(10)
}

// addEventLocked packs e, canonical, into the next row, interning its strings
// and posting its indexed codes (the empty string's too: those five fields
// are present on every row), and returns its local id. Every row arrives
// here: a write, a replay, a follower's apply, a cold segment's decode.
// Caller holds the write lock.
func (sh *shard) addEventLocked(e *event.Event) int32 {
	id, r := int32(sh.rows.len()), sh.rows.add()
	ps := slotsOf(e)
	for f := range ps {
		r.str[f] = sh.dicts[f].intern(*ps[f])
	}
	r.PID, r.TID, r.FD, r.Count, r.Whence, r.Flags = int32(e.PID), int32(e.TID), int32(e.FD), int32(e.Count), int32(e.Whence), int32(e.Flags)
	r.Mode, r.RetVal, r.ArgOff, r.TimeEnterNS, r.TimeExitNS = e.Mode, e.RetVal, e.ArgOff, e.TimeEnterNS, e.TimeExitNS
	r.Offset, r.HasOffset, r.tag = e.Offset, e.HasOffset, sh.tags.intern(e.FileTag)
	for f := range sh.postings {
		if c, pl := r.str[f], sh.postings[f]; int(c) < len(pl) {
			pl[c] = append(pl[c], id)
		} else {
			sh.postings[f] = append(pl, []int32{id})
		}
	}
	return id
}

// len returns the shard's row count under its own lock.
func (sh *shard) len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rows.len()
}

// dictGens numbers dictionary generations across every shard of the
// process, so a generation names one shard's dictionaries as they stood
// between two re-makes, and no other shard's, ever (CodeTable).
var dictGens atomic.Uint64

// evictLocked drops every row and everything derived from them:
// dictionaries, tag table, postings and runs, and starts the dictionaries'
// next generation. Caller holds the write lock.
func (sh *shard) evictLocked() {
	sh.gen = dictGens.Add(1)
	sh.rows = rows{}
	for f := range sh.dicts {
		sh.dicts[f] = dict{terms: []string{""}, codes: make(map[string]uint32)}
	}
	sh.tags = tagTable{tags: []event.FileTag{{}}}
	for f := range sh.postings {
		sh.postings[f] = [][]int32{nil}
	}
	sh.runs = nil
}

// reuse empties a walk's page shard (EachRow) for its next page: rows,
// dictionaries and tag table start over in the blocks, maps and slices the
// shard holds, so a walk allocates its row blocks for its largest page and
// not for every page.
// The dictionaries start their next generation: a code read on one page
// names nothing on the next (CodeTable). Only the walk that owns the shard
// reads it.
func (sh *shard) reuse() {
	sh.gen = dictGens.Add(1)
	sh.rows.n = 0
	for f := range sh.dicts {
		d := &sh.dicts[f]
		d.terms, d.last = d.terms[:1], 0
		clear(d.codes)
	}
	sh.tags.reset()
	for f, pl := range sh.postings {
		sh.postings[f] = append(pl[:0], pl[0][:0])
	}
	sh.runs = nil
}

// ensureRuns builds or extends, before the read phase of a search, the runs
// it reads, so they cover every row currently in the shard: for walk, a
// single-key sorted page (zero for any other read), the run the page walks
// (walkRun); and for each of fields, the fields of the query's ranges, the
// all-rows run of the field where one exists, so an order is extended by
// every later use of its field. Rows appended concurrently afterwards leave a
// run short: a page then takes the candidate path, and a range reads the
// rows.
func (sh *shard) ensureRuns(fields []string, walk sortWalk) {
	if len(fields) == 0 && walk.field == "" {
		return
	}
	sh.mu.RLock()
	need := false
	if walk.field != "" {
		k, _, n := sh.walkRun(walk)
		need = sh.short(k, n)
	}
	for _, f := range fields {
		r := sh.runs[runKey{field: f}]
		need = need || r != nil && r.len() < sh.rows.len()
	}
	sh.mu.RUnlock()
	if !need {
		return
	}
	sh.mu.Lock()
	if walk.field != "" {
		sh.extendRun(sh.walkRun(walk))
	}
	for _, f := range fields {
		if k := (runKey{field: f}); sh.runs[k] != nil {
			sh.extendRun(k, nil, sh.rows.len())
		}
	}
	sh.mu.Unlock()
}

// cmpIDs orders two local rows under sorts (cmpKeys). Caller holds at least
// the read lock.
func (sh *shard) cmpIDs(a, b int32, sorts []sortBy) int {
	wa, wb := sh.row(a), sh.row(b)
	for _, s := range sorts {
		if r := cmpKeys(s.f.key(wa), s.f.key(wb), s.desc); r != 0 {
			return r
		}
	}
	return 0
}

// matchIDs evaluates q and returns the local ids of the matching rows in
// ascending order. The returned slice may alias a posting list and must not
// be mutated. Caller holds at least the read lock.
//
// The candidates are seeded from q's conjuncts (its must list,
// compileQuery): the posting lists of the indexed keyword terms, intersected
// smallest first, unless a range's window of its field's all-rows run
// (orderedRun) is shorter than every list that filters (a list holding every
// row filters nothing). Each candidate is then tested against the
// conjuncts that seeded nothing, and q's must_not and should; with no seed,
// every row is.
func (sh *shard) matchIDs(q *clause) []int32 {
	n := sh.rows.len()
	if q.all() {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	var lists [][]int32
	rest := make([]*clause, 0, len(q.must))
	for i := range q.must {
		c := &q.must[i]
		if t, ok := c.seedTerm(); ok {
			ids, _ := sh.posting(c.name, t)
			lists = append(lists, ids)
		} else {
			rest = append(rest, c)
		}
	}
	slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
	full := len(lists) // lists[:full] are the ones that filter
	for full > 0 && len(lists[full-1]) == n {
		full--
	}
	seed, run := -1, []int32(nil)
	for i, c := range rest {
		if c.op != opRange {
			continue
		}
		if r, ok := sh.orderedRun(c); ok && (seed < 0 || len(r) < len(run)) {
			seed, run = i, r
		}
	}
	cand, seeded := []int32(nil), true
	switch {
	case seed >= 0 && (full == 0 || len(run) < len(lists[0])):
		cand, lists = sortedIDs(run, n), lists[:full]
		rest = slices.Delete(rest, seed, seed+1)
	case len(lists) > 0:
		cand, lists = lists[0], lists[1:]
	default:
		seeded = false
	}
	for _, l := range lists {
		if cand = intersectSorted(cand, l); len(cand) == 0 {
			return nil
		}
	}
	tailed := len(q.should)+len(q.mustNot) > 0
	if seeded && len(rest) == 0 && !tailed {
		return cand
	}
	m := len(cand)
	if !seeded {
		m = n
	}
	var out []int32
next:
	for i := range m {
		id := int32(i)
		if seeded {
			id = cand[i]
		}
		w := sh.row(id)
		for _, c := range rest {
			if !c.match(w) {
				continue next
			}
		}
		if !tailed || q.tail(w) {
			out = append(out, id)
		}
	}
	return out
}

// intersectSorted intersects two ascending id lists.
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
