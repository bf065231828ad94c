package store

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// shard is one lock stripe of an Index. Rows are distributed across shards
// round-robin by insertion order, so shard s of S holds the rows whose global
// ids are ≡ s (mod S) and the global id of the row at local position i is
// i*S + s. Per-shard global ids are therefore always sorted in append order,
// which the merge phase of Search relies on.
//
// A row is a packed hotRow: each string field is a code into the shard's
// dictionary of that field, written with the row under the write lock, so a
// string a shard's rows repeat is held once. Postings, columns, query
// evaluation and aggregation read a row through its accessors (row) and never
// build a map; a search hit is unpacked into an event.Event only at the edge.
// Everything else a shard holds is derived from its rows: dictionaries and
// postings at append, numeric columns on demand (ensureColumns).
type shard struct {
	mu       sync.RWMutex
	rows     rows
	dicts    [nSlots]dict                  // per string slot: code <-> term
	postings [len(indexedFields)][][]int32 // per indexed slot and code: local row ids
	cols     map[string]*column            // lazy numeric columns, keyed by field
	runs     map[runKey]*termRun           // lazy term runs, keyed by sort field and term
}

// column is a pre-extracted numeric view of one field: vals[i] holds row i's
// field as IntField reads it and ok[i] whether the row holds the field.
// Columns are built lazily up to the current row count and extended on the
// next use after writes; a stored row's numeric fields never change.
//
// order is the column's sort order, built for a field that a single-key
// sorted page asked for: the shard's local ids ascending by (vals[id], id),
// the total order cmpIDs and the id tie-break define. It covers exactly the
// rows vals covers, is extended with them, and exists only while every row
// holds the field (missing == 0), so a sorted page can resume by binary
// search instead of re-testing every match. It costs 4 B per row and goes
// with the column: eviction drops both.
type column struct {
	vals    []int64
	ok      []bool
	missing int
	order   []int32
}

// termKey names one term of one indexed keyword field.
type termKey struct{ field, term string }

// runKey names a term run: the numeric field it is in the order of, and the
// term.
type runKey struct {
	field string
	term  termKey
}

// termRun is, for an indexed keyword term that a single-key sorted page
// asked for, the term's posting list in the order of the page's sort field:
// ids ascending by (value, id), as a column's order is, with vals[i] the
// value of ids[i]. It holds every match of a query that requires the term,
// so a page over one session of many walks that session's rows alone; a
// term holding every row of the shard has none, the column's order is its
// run. A run carries its values and needs no column: its first build reads
// the term's rows and no other, and a page reads its keys from it. It is
// extended by the rows posted since when a page asks for it again, costs
// 12 B per entry, and goes with the rows at eviction. A term some of whose
// rows lack the field keeps a nil run: it has no order to walk.
type termRun struct {
	ids  []int32
	vals []int64
}

// idList is what a sorted page walks, an order or a term run: ids ascending
// by (value, id), where at(i) is the value of ids[i], read from vals, a
// run's own, or else from col, the column an order sorts.
type idList struct {
	ids  []int32
	vals []int64
	col  []int64
}

func (l idList) len() int { return len(l.ids) }

func (l idList) at(i int) int64 {
	if l.vals != nil {
		return l.vals[i]
	}
	return l.col[l.ids[i]]
}

// slice is the entries [lo, hi) of l.
func (l idList) slice(lo, hi int) idList {
	l.ids = l.ids[lo:hi]
	if l.vals != nil {
		l.vals = l.vals[lo:hi]
	}
	return l
}

// orderList is c's order as an idList.
func (c *column) orderList() idList { return idList{ids: c.order, col: c.vals} }

// extendOrder brings order up to len(vals). order's own append growth is the
// only allocation on the appending path while rows arrive in order. Caller
// holds the write lock.
func (c *column) extendOrder() {
	k, n := len(c.order), len(c.vals)
	if c.order == nil {
		c.order = make([]int32, 0, n)
	}
	for id := k; id < n; id++ {
		c.order = append(c.order, int32(id))
	}
	c.orderList().mergeTail(k)
}

// termIDs returns the posting list of walk's term, and whether a page of
// walk reads the term's run on this shard rather than the sort column's whole
// order: walk has a term and it holds fewer than all of the shard's rows
// (none: the page walks nothing). Caller holds the lock.
func (sh *shard) termIDs(walk sortWalk) (ids []int32, byRun bool) {
	if walk.term.field == "" {
		return nil, false
	}
	ids, _ = sh.posting(walk.term.field, walk.term.term)
	return ids, len(ids) < sh.rows.len()
}

// extendRun brings the run of k up to ids, the term's posting list: the ids
// posted since the run was last extended, all of them the first time, are
// read through colVal (the column where one covers the row, else the row)
// and merged in as the order's own are. Caller holds the write lock.
func (sh *shard) extendRun(k runKey, ids []int32) {
	r, built := sh.runs[k]
	if built && r == nil || r != nil && len(r.ids) == len(ids) {
		return
	}
	if sh.runs == nil {
		sh.runs = make(map[runKey]*termRun)
	}
	if r == nil {
		r = &termRun{ids: make([]int32, 0, len(ids)), vals: make([]int64, 0, len(ids))}
	}
	m, c := len(r.ids), sh.cols[k.field]
	for _, id := range ids[m:] {
		v, ok := sh.colVal(c, k.field, id)
		if !ok {
			sh.runs[k] = nil
			return
		}
		r.ids, r.vals = append(r.ids, id), append(r.vals, v)
	}
	idList{ids: r.ids, vals: r.vals}.mergeTail(m)
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
func (l idList) mergeTail(k int) {
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
	put := func(w int, e valID) {
		l.ids[w] = e.id
		if l.vals != nil {
			l.vals[w] = e.v
		}
	}
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

// orderedRun returns the run of c's order holding exactly the rows r admits,
// or ok false unless the order covers all n rows. Caller holds the read lock.
func (c *column) orderedRun(r *RangeQuery, n int) (run []int32, ok bool) {
	if c == nil || c.order == nil || len(c.order) != n {
		return nil, false
	}
	return c.orderList().window(r).ids, true
}

// window returns the entries of l whose values r admits: two binary searches
// making contains' comparisons, whose lower bounds are false then true along
// the list and upper bounds true then false.
func (l idList) window(r *RangeQuery) idList {
	lo := sort.Search(l.len(), func(i int) bool {
		v := l.at(i)
		return !(r.GTE != nil && v < *r.GTE) && !(r.GT != nil && v <= *r.GT)
	})
	hi := lo + sort.Search(l.len()-lo, func(i int) bool {
		v := l.at(lo + i)
		return r.LTE != nil && v > *r.LTE || r.LT != nil && v >= *r.LT
	})
	return l.slice(lo, hi)
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
// id splits into block and slot by shift and mask. 512 rows of 144 bytes are
// 9 allocator pages exactly. The tail block is allocated whole, so an index's
// heap is a staircase in its row count with a step of shards × one block;
// the block list of a million-row shard is still only 2 000 headers.
const (
	blockShift = 9
	blockRows  = 1 << blockShift
)

// slotNames names the string slots of a hotRow: the indexed keyword fields
// first, in indexedFields' order, so slot f has posting lists when f <
// len(indexedFields); those five are present on every row.
var slotNames = [...]string{FieldSession, FieldSyscall, FieldProcName, FieldThreadName, FieldClass,
	FieldArgPath, FieldArgPath2, FieldAttrName, FieldFileType, FieldKernelPath, FieldFilePath}

const (
	nSlots       = len(slotNames)
	slotFilePath = nSlots - 1
)

// strSlot returns the slot of a string field, ok false for any other name.
func strSlot(name string) (int, bool) {
	f := slices.Index(slotNames[:], name)
	return f, f >= 0
}

// slotsOf points at e's string fields by slot.
func slotsOf(e *event.Event) [nSlots]*string {
	return [nSlots]*string{&e.Session, &e.Syscall, &e.ProcName, &e.ThreadName, &e.Class,
		&e.ArgPath, &e.ArgPath2, &e.AttrName, &e.FileType, &e.KernelPath, &e.FilePath}
}

// hotRow is one stored event in 144 bytes: a dictionary code per string
// slot, in 32 bits the fields every wire form keeps in 32 (a stored event is
// canonical, event.Event.Canonicalize), and the rest as the event holds them.
type hotRow struct {
	str                                             [nSlots]uint32
	PID, TID, FD, Count, Whence, Flags              int32
	Mode                                            uint32
	RetVal, ArgOff, TimeEnterNS, TimeExitNS, Offset int64
	FileTag                                         event.FileTag
	HasOffset                                       bool
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
	f, _ := strSlot(field)
	if f < 0 || f >= len(sh.postings) {
		return nil, false
	}
	c, ok := sh.dicts[f].codes[term]
	if !ok && term != "" {
		return nil, true
	}
	return sh.postings[f][c], true
}

// Row is one stored row read in place: the packed row and the shard whose
// dictionaries its codes index. It is the query evaluator's fieldSource and
// what a diagnosis pass observes (EachRow); its accessors answer as
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

// The accessors, one per event.Event field, in slotNames' order for the
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
func (w Row) FileTag() event.FileTag { return w.r.FileTag }
func (w Row) Offset() int64          { return w.r.Offset }
func (w Row) HasOffset() bool        { return w.r.HasOffset }

func (w Row) field(name string) any {
	v, _ := w.Field(name)
	return v
}

// StringField is event.Event.StringField on the packed row.
func (w Row) StringField(name string) (string, bool) {
	if f, ok := strSlot(name); ok {
		s := w.str(f)
		return s, f < len(indexedFields) || s != ""
	}
	if name != FieldFileTag {
		return "", false
	}
	s := w.r.FileTag.String()
	return s, s != ""
}

// Field is event.Event.Field on the packed row.
func (w Row) Field(name string) (any, bool) {
	if name == FieldHasOffset {
		return w.r.HasOffset, true
	}
	if n, ok := w.r.IntField(name); ok {
		return n, true
	}
	if s, ok := w.StringField(name); ok {
		return s, true
	}
	return nil, false
}

// IntField is event.Event.IntField on the packed row: the same presence
// rules, which TestPackedRowMatchesEvent holds the two copies to.
func (r *hotRow) IntField(name string) (int64, bool) {
	switch name {
	case FieldHasOffset:
		if r.HasOffset {
			return 1, true
		}
		return 0, true
	case FieldRetVal:
		return r.RetVal, true
	case FieldPID:
		return int64(r.PID), true
	case FieldTID:
		return int64(r.TID), true
	case FieldTimeEnter:
		return r.TimeEnterNS, true
	case FieldTimeExit:
		return r.TimeExitNS, true
	case FieldDuration:
		return r.TimeExitNS - r.TimeEnterNS, true
	case FieldFD:
		return int64(r.FD), r.FD != 0
	case FieldCount:
		return int64(r.Count), r.Count != 0
	case FieldArgOffset:
		return r.ArgOff, r.ArgOff != 0
	case FieldWhence:
		return int64(r.Whence), r.Whence != 0
	case FieldFlags:
		return int64(r.Flags), r.Flags != 0
	case FieldMode:
		return int64(r.Mode), r.Mode != 0
	case FieldOffset:
		return r.Offset, r.HasOffset
	case FieldDevNo:
		return int64(r.FileTag.Dev), !r.FileTag.Zero()
	case FieldInodeNo:
		return int64(r.FileTag.Ino), !r.FileTag.Zero()
	case FieldTagTS:
		return r.FileTag.BirthNS, !r.FileTag.Zero()
	}
	return 0, false
}

// Event writes the row as the event it was stored from, field by field and
// the strings in slotNames' order: no temporary event or pointer array is
// built and copied.
func (w Row) Event(dst *event.Event) {
	r := w.r
	dst.RetVal, dst.ArgOff, dst.TimeEnterNS, dst.TimeExitNS, dst.Offset = r.RetVal, r.ArgOff, r.TimeEnterNS, r.TimeExitNS, r.Offset
	dst.PID, dst.TID, dst.FD, dst.Count = int(r.PID), int(r.TID), int(r.FD), int(r.Count)
	dst.Whence, dst.Flags, dst.Mode, dst.FileTag, dst.HasOffset = int(r.Whence), int(r.Flags), r.Mode, r.FileTag, r.HasOffset
	dst.Session, dst.Syscall, dst.ProcName, dst.ThreadName, dst.Class = w.str(0), w.str(1), w.str(2), w.str(3), w.str(4)
	dst.ArgPath, dst.ArgPath2, dst.AttrName, dst.FileType, dst.KernelPath, dst.FilePath = w.str(5), w.str(6), w.str(7), w.str(8), w.str(9), w.str(10)
}

// val returns the document-view value of one field of row id (nil when
// absent), boxing it on demand; hot paths use numAt instead. Caller holds at
// least the read lock.
func (sh *shard) val(id int32, field string) any {
	return sh.row(id).field(field)
}

// numAt reads one numeric field without boxing. Caller holds at least the
// read lock.
func (sh *shard) numAt(id int32, field string) (int64, bool) {
	return sh.rows.at(int(id)).IntField(field)
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
	r.Offset, r.HasOffset, r.FileTag = e.Offset, e.HasOffset, e.FileTag
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

// evictLocked drops every row and everything derived from them:
// dictionaries, postings, columns with their orders, and term runs. Caller
// holds the write lock.
func (sh *shard) evictLocked() {
	sh.rows = rows{}
	for f := range sh.dicts {
		sh.dicts[f] = dict{terms: []string{""}, codes: make(map[string]uint32)}
	}
	for f := range sh.postings {
		sh.postings[f] = [][]int32{nil}
	}
	sh.cols, sh.runs = nil, nil
}

// reuse empties a walk's page shard (EachRow) for its next page: rows and
// dictionaries start over in the blocks and maps the shard holds, so a walk
// allocates its row blocks for its largest page and not for every page. Only
// the walk that owns the shard reads it.
func (sh *shard) reuse() {
	sh.rows.n = 0
	for f := range sh.dicts {
		d := &sh.dicts[f]
		d.terms, d.last = d.terms[:1], 0
		clear(d.codes)
	}
	for f, pl := range sh.postings {
		sh.postings[f] = append(pl[:0], pl[0][:0])
	}
	sh.cols, sh.runs = nil, nil
}

// ensureColumns builds or extends the numeric column of each of fields, so
// they cover every row currently in the shard; a column that has an order
// keeps it extended. For walk, a single-key sorted page (zero for any other read), it
// builds or extends the list the page walks (walkList): the term's run when
// termIDs says so, and otherwise the sort field's column with its order. It
// is called before the read phase of a search; rows appended concurrently
// afterwards are handled by the per-row fallback in colVal, and by the
// candidate path for a sorted page.
func (sh *shard) ensureColumns(fields []string, walk sortWalk) {
	if len(fields) == 0 && walk.field == "" {
		return
	}
	sh.mu.RLock()
	var need bool
	switch ids, byRun := sh.termIDs(walk); {
	case byRun:
		r, built := sh.runs[runKey{walk.field, walk.term}]
		need = !built || r != nil && len(r.ids) < len(ids)
	case walk.field != "":
		c := sh.cols[walk.field]
		need = c == nil || len(c.vals) < sh.rows.len() || c.missing == 0 && c.order == nil
	}
	for _, f := range fields {
		c := sh.cols[f]
		need = need || c == nil || len(c.vals) < sh.rows.len()
	}
	sh.mu.RUnlock()
	if !need {
		return
	}
	sh.mu.Lock()
	for _, f := range fields {
		sh.fillColumn(f)
	}
	switch ids, byRun := sh.termIDs(walk); {
	case byRun:
		sh.extendRun(runKey{walk.field, walk.term}, ids)
	case walk.field != "":
		if c := sh.fillColumn(walk.field); c.missing == 0 && c.order == nil {
			c.extendOrder()
		}
	}
	sh.mu.Unlock()
}

// fillColumn brings the numeric column of f, built on first use, up to every
// row, and its order with it if it has one; a column some row lacks has none.
// Caller holds the write lock.
func (sh *shard) fillColumn(f string) *column {
	c := sh.cols[f]
	if c == nil {
		if sh.cols == nil {
			sh.cols = make(map[string]*column)
		}
		c = &column{}
		sh.cols[f] = c
	}
	for i := len(c.vals); i < sh.rows.len(); i++ {
		v, ok := sh.numAt(int32(i), f)
		c.vals = append(c.vals, v)
		c.ok = append(c.ok, ok)
		if !ok {
			c.missing++
		}
	}
	switch {
	case c.missing > 0:
		c.order = nil
	case c.order != nil:
		c.extendOrder()
	}
	return c
}

// colVal reads one value through the column cache, falling back to the row
// itself for ids past the built prefix. Caller
// holds at least the read lock.
func (sh *shard) colVal(c *column, field string, id int32) (int64, bool) {
	if c != nil && int(id) < len(c.vals) {
		return c.vals[id], c.ok[id]
	}
	return sh.numAt(id, field)
}

// cmpIDs orders two local docs under sorts, reading through the sort
// fields' columns (cols, aligned with sorts) when both values are numeric
// there, and falling back to the exact document-compare semantics otherwise.
// Caller holds at least the read lock.
func (sh *shard) cmpIDs(a, b int32, sorts []SortField, cols []*column) int {
	for i, s := range sorts {
		if c := cols[i]; c != nil && int(a) < len(c.vals) && int(b) < len(c.vals) && c.ok[a] && c.ok[b] {
			if r := cmpOrdered(c.vals[a], c.vals[b], s.Desc); r != 0 {
				return r
			}
			continue
		}
		if r := cmpField(sh.val(a, s.Field), sh.val(b, s.Field), s.Desc); r != 0 {
			return r
		}
	}
	return 0
}

// matchIDs evaluates q and returns the local ids of matching docs in
// ascending order. The returned slice may alias a posting list and must not
// be mutated. Caller holds at least the read lock.
func (sh *shard) matchIDs(q Query) []int32 {
	// Match-all: enumerate without consulting rows.
	if q.matchesAll() {
		out := make([]int32, sh.rows.len())
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	// Plain indexed term: the posting list is the answer.
	if q.Term != nil {
		if val, isStr := q.Term.Value.(string); isStr {
			if ids, ok := sh.posting(q.Term.Field, val); ok {
				return ids
			}
		}
	}
	// Top-level range with a built column: scan the column, not the docs.
	// A term beside it is the clause evaluated.
	if q.Range != nil && q.Term == nil && q.Terms == nil {
		if c := sh.cols[q.Range.Field]; c != nil {
			return sh.rangeScan(q.Range, c)
		}
	}
	// Bool/must: intersect every indexed keyword term's posting list, then
	// evaluate the residual query over the candidates only.
	if q.boolOnly() && len(q.Bool.Must) > 0 {
		if ids, ok := sh.boolCandidates(q); ok {
			return ids
		}
	}
	// Fallback: full scan through the row adapter (fields resolve on demand,
	// no map materialization).
	var out []int32
	r := Row{sh: sh}
	for id := range sh.rows.len() {
		if r.r = sh.rows.at(id); q.matches(&r) {
			out = append(out, int32(id))
		}
	}
	return out
}

// rangeScan evaluates r over the column cache (plus the uncovered tail),
// sharing RangeQuery.contains with the per-document evaluator, or reads the
// run of the column's order when it covers every row.
func (sh *shard) rangeScan(r *RangeQuery, c *column) []int32 {
	if run, ok := c.orderedRun(r, sh.rows.len()); ok {
		return sortedIDs(run, sh.rows.len())
	}
	var out []int32
	n := min(len(c.vals), sh.rows.len())
	for i := 0; i < n; i++ {
		if c.ok[i] && r.contains(c.vals[i]) {
			out = append(out, int32(i))
		}
	}
	for i := n; i < sh.rows.len(); i++ {
		if f, ok := sh.numAt(int32(i), r.Field); ok && r.contains(f) {
			out = append(out, int32(i))
		}
	}
	return out
}

// isPureRange reports whether q is exactly one range clause, so it can be
// evaluated through a numeric column alone.
func (q Query) isPureRange() bool {
	return q.Range != nil && q.Term == nil && q.Terms == nil &&
		q.Prefix == nil && q.Exists == nil && q.Bool == nil
}

// boolCandidates resolves a bool query whose must clauses include indexed
// keyword terms (or a range with a built column) by posting-list
// intersection followed by residual evaluation. ok is false when no clause
// can seed a candidate list, meaning the caller should scan. A range whose
// run of its column's order (orderedRun) is shorter than every posting list
// that filters seeds; a list holding every row filters nothing.
func (sh *shard) boolCandidates(q Query) ([]int32, bool) {
	n := sh.rows.len()
	var lists [][]int32
	residualMust := make([]Query, 0, len(q.Bool.Must))
	for _, sub := range q.Bool.Must {
		if sub.Term != nil {
			if val, isStr := sub.Term.Value.(string); isStr {
				if ids, ok := sh.posting(sub.Term.Field, val); ok {
					lists = append(lists, ids)
					continue
				}
			}
		}
		residualMust = append(residualMust, sub)
	}
	// Intersect smallest-first; lists[:full] are the ones that filter.
	slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
	full := len(lists)
	for full > 0 && len(lists[full-1]) == n {
		full--
	}
	seed, run := -1, []int32(nil)
	for i, sub := range residualMust {
		if sub.isPureRange() {
			if r, ok := sh.cols[sub.Range.Field].orderedRun(sub.Range, n); ok && (seed < 0 || len(r) < len(run)) {
				seed, run = i, r
			}
		}
	}
	var candidates []int32
	switch {
	case seed >= 0 && (full == 0 || len(run) < len(lists[0])):
		candidates, lists = sortedIDs(run, n), lists[:full]
		residualMust = slices.Delete(residualMust, seed, seed+1)
	case len(lists) > 0:
		candidates, lists = lists[0], lists[1:]
	case len(residualMust) > 0 && residualMust[0].isPureRange() && sh.cols[residualMust[0].Range.Field] != nil:
		// A leading range over a column with no order seeds by a column scan.
		r := residualMust[0].Range
		candidates, residualMust = sh.rangeScan(r, sh.cols[r.Field]), residualMust[1:]
	default:
		return nil, false
	}
	for _, l := range lists {
		if candidates = intersectSorted(candidates, l); len(candidates) == 0 {
			return nil, true
		}
	}
	// Pure range residuals read the numeric columns instead of going back to
	// the row storage; everything else falls through to the generic evaluator.
	var colRanges []*RangeQuery
	var colCols []*column
	kept := residualMust[:0]
	for _, sub := range residualMust {
		if sub.isPureRange() {
			if c := sh.cols[sub.Range.Field]; c != nil {
				colRanges = append(colRanges, sub.Range)
				colCols = append(colCols, c)
				continue
			}
		}
		kept = append(kept, sub)
	}
	residualMust = kept
	rest := Query{Bool: &BoolQuery{
		Must:    residualMust,
		Should:  q.Bool.Should,
		MustNot: q.Bool.MustNot,
	}}
	needRest := len(residualMust) > 0 || len(q.Bool.Should) > 0 || len(q.Bool.MustNot) > 0
	if !needRest && len(colRanges) == 0 {
		return candidates, true
	}
	var out []int32
	rrow := Row{sh: sh}
next:
	for _, id := range candidates {
		for i, r := range colRanges {
			f, ok := sh.colVal(colCols[i], r.Field, id)
			if !ok || !r.contains(f) {
				continue next
			}
		}
		if needRest {
			rrow.r = sh.rows.at(int(id))
			if !rest.matches(&rrow) {
				continue
			}
		}
		out = append(out, id)
	}
	return out, true
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
