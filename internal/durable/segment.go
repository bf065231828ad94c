package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Segment file layout (all integers little-endian). A segment is one
// columnar snapshot of a contiguous (or, after compaction over retention
// gaps, sparse) run of an index's rows in global-id order, written under the
// store's locks and published by the manifest:
//
//	[4]  magic "DIOS"
//	[1]  version (2; any other value is rejected as ErrCorruptSegment)
//	[4]  u32 shard count (advisory: recovery recreates the index with it)
//	[8]  u64 total rows
//	[8]  u64 typed rows T
//	[8]  u64 generic rows G
//	[8]  i64 min time_enter_ns over timed rows   } empty range (min > max)
//	[8]  i64 max time_enter_ns over timed rows   } when none timed
//	typed block (columnar — one array per field over the T typed rows):
//	  gids        T × u64
//	  i64 columns T × u64 each: ret_val, arg_offset, time_enter, time_exit,
//	              offset, dev, ino, birth
//	  i32 columns T × u32 each: pid, tid, fd, count, whence, flags
//	  mode        T × u32
//	  aux         T × u8 (bit 0: has_offset)
//	  11 string columns (wire order of the event codec), each:
//	    offsets (T+1) × u32 into the column's blob, then the blob bytes
//	generic block (row-major, opaque payloads — a retired row form kept
//	readable until segment v3; the store writes G = 0 and refuses G > 0):
//	  per row: u64 gid, u32 len, payload
//	[4]  u32 CRC-32C of everything before it
//
// The column-directory invariant SegmentReader relies on: nothing in the
// typed block is variable-width except the string blobs, and each blob's
// length is the last entry of the offset table in front of it. So T and the
// 11 blob lengths alone place every column, table and blob — the directory
// is built by walking the file once, front to back, with no stored offsets —
// and column c's value for row i sits at column start + i × width, a string
// at blob[offsets[i]:offsets[i+1]]. A writer change that puts anything
// variable-width ahead of the string columns, or reorders columns, breaks the
// reader and needs a new version byte.
const (
	segMagicLen  = 4
	segHeaderLen = segMagicLen + 1 + 4 + 8 + 8 + 8 + 8 + 8
	segVersion   = 2
)

var segMagic = [segMagicLen]byte{'D', 'I', 'O', 'S'}

// segStringCount mirrors the event codec's string field count; the typed
// block stores one string column per field in the same wire order.
const segStringCount = 11

// SegmentRow is one row handed to WriteSegment. The store sets Event only —
// an event is timed via Event.TimeEnterNS. Doc is the retired generic row
// form (an opaque encoded document, with DocTime/DocTimed carrying the
// time_enter_ns the caller extracted from it, if any), which the format
// still carries until segment v3.
type SegmentRow struct {
	Event    *event.Event
	Doc      []byte
	DocTime  int64
	DocTimed bool
}

// RowSource enumerates an index's rows in global-id order. Row may be called
// multiple times per index (the columnar writer makes one pass per column),
// so implementations should return views, not copies.
type RowSource interface {
	NumRows() int
	Row(i int) SegmentRow
}

// GidSource is an optional RowSource extension that assigns explicit
// segment-local row ids instead of the default dense 0..N-1. Compaction uses
// it when merging across a retention gap: ids must be strictly ascending but
// may be sparse.
type GidSource interface {
	Gid(i int) int
}

// segStrings enumerates the typed row's string fields in wire order (shared
// with the event codec's field order).
func segStrings(e *event.Event) [segStringCount]string {
	return [segStringCount]string{
		e.Session, e.Syscall, e.Class, e.ProcName, e.ThreadName,
		e.ArgPath, e.ArgPath2, e.AttrName, e.FileType, e.KernelPath,
		e.FilePath,
	}
}

// segWriter accumulates the segment image and its running checksum.
type segWriter struct {
	buf []byte
}

func (w *segWriter) u8(v byte)      { w.buf = append(w.buf, v) }
func (w *segWriter) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *segWriter) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *segWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }

// WriteSegment writes a columnar snapshot of src to path atomically (tmp +
// fsync + rename) and returns the segment's stats, including the
// time_enter_ns range stamped into the header for query-time pruning. The
// caller holds whatever locks make src a consistent snapshot.
func WriteSegment(path string, shards int, src RowSource) (SegmentInfo, error) {
	image, info := encodeSegment(shards, src)
	if err := writeFileAtomic(path, image); err != nil {
		return SegmentInfo{}, fmt.Errorf("durable: write segment: %w", err)
	}
	return info, nil
}

// encodeSegment builds the file image WriteSegment publishes.
func encodeSegment(shards int, src RowSource) ([]byte, SegmentInfo) {
	n := src.NumRows()
	gid := func(i int) int { return i }
	if gs, ok := src.(GidSource); ok {
		gid = gs.Gid
	}
	var typed, generic []int
	minT, maxT := int64(math.MaxInt64), int64(math.MinInt64)
	stamp := func(t int64) {
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
	}
	for i := 0; i < n; i++ {
		row := src.Row(i)
		if row.Event != nil {
			typed = append(typed, i)
			stamp(row.Event.TimeEnterNS)
		} else {
			generic = append(generic, i)
			if row.DocTimed {
				stamp(row.DocTime)
			}
		}
	}
	w := &segWriter{buf: make([]byte, 0, segHeaderLen+64*n)}
	w.bytes(segMagic[:])
	w.u8(segVersion)
	w.u32(uint32(shards))
	w.u64(uint64(n))
	w.u64(uint64(len(typed)))
	w.u64(uint64(len(generic)))
	w.u64(uint64(minT))
	w.u64(uint64(maxT))

	for _, i := range typed {
		w.u64(uint64(gid(i)))
	}
	i64cols := []func(e *event.Event) int64{
		func(e *event.Event) int64 { return e.RetVal },
		func(e *event.Event) int64 { return e.ArgOff },
		func(e *event.Event) int64 { return e.TimeEnterNS },
		func(e *event.Event) int64 { return e.TimeExitNS },
		func(e *event.Event) int64 { return e.Offset },
		func(e *event.Event) int64 { return int64(e.FileTag.Dev) },
		func(e *event.Event) int64 { return int64(e.FileTag.Ino) },
		func(e *event.Event) int64 { return e.FileTag.BirthNS },
	}
	for _, col := range i64cols {
		for _, i := range typed {
			w.u64(uint64(col(src.Row(i).Event)))
		}
	}
	i32cols := []func(e *event.Event) int32{
		func(e *event.Event) int32 { return int32(e.PID) },
		func(e *event.Event) int32 { return int32(e.TID) },
		func(e *event.Event) int32 { return int32(e.FD) },
		func(e *event.Event) int32 { return int32(e.Count) },
		func(e *event.Event) int32 { return int32(e.Whence) },
		func(e *event.Event) int32 { return int32(e.Flags) },
	}
	for _, col := range i32cols {
		for _, i := range typed {
			w.u32(uint32(col(src.Row(i).Event)))
		}
	}
	for _, i := range typed {
		w.u32(src.Row(i).Event.Mode)
	}
	for _, i := range typed {
		var aux byte
		if src.Row(i).Event.HasOffset {
			aux |= 1
		}
		w.u8(aux)
	}
	for s := 0; s < segStringCount; s++ {
		off := uint32(0)
		w.u32(off)
		for _, i := range typed {
			off += uint32(len(segStrings(src.Row(i).Event)[s]))
			w.u32(off)
		}
		for _, i := range typed {
			w.bytes([]byte(segStrings(src.Row(i).Event)[s]))
		}
	}
	for _, i := range generic {
		doc := src.Row(i).Doc
		w.u64(uint64(gid(i)))
		w.u32(uint32(len(doc)))
		w.bytes(doc)
	}
	w.u32(crc32.Checksum(w.buf, crcTable))
	return w.buf, SegmentInfo{
		Shards:  shards,
		Rows:    n,
		Typed:   len(typed),
		Generic: len(generic),
		Bytes:   int64(len(w.buf)),
		MinTime: minT,
		MaxTime: maxT,
	}
}

// SegmentInfo summarizes a written or loaded segment. MinTime/MaxTime are
// the header's time_enter_ns range: empty (MinTime > MaxTime) when no row is
// timed.
type SegmentInfo struct {
	Shards  int
	Rows    int
	Typed   int
	Generic int
	Bytes   int64
	MinTime int64
	MaxTime int64
}

// segMaxRows bounds the row-count fields so a corrupt header cannot drive
// huge allocations.
const segMaxRows = 1 << 32

// Positions of the typed block's fixed-width columns, in file order.
const (
	segI64Cols      = 8
	segI32Cols      = 6
	segColTimeEnter = 2 // index of time_enter among the i64 columns
	// segTypedRowMin is the least a typed row occupies: its gid, the
	// fixed-width columns, and one offset per string column.
	segTypedRowMin = 8 + 8*segI64Cols + 4*segI32Cols + 4 + 1 + 4*segStringCount
	segGenericMin  = 8 + 4 // a generic row's gid and payload length
)

// SegmentReader is random access over one verified segment image. Opening
// one checks the whole-file CRC and the header and walks the file once to
// build the column directory; after that a typed row's gid, its time, or the
// row itself costs a fixed number of reads at computed offsets, so a caller
// can look at the time column alone and decode only the rows it wants. A
// reader never writes to its image once open, so any number of goroutines may
// share one.
type SegmentReader struct {
	info SegmentInfo
	body []byte // the file image without its trailing CRC
	// The column directory: byte offsets into body.
	gids    int
	i64     [segI64Cols]int
	i32     [segI32Cols]int
	mode    int
	aux     int
	strTab  [segStringCount]int // (T+1) × u32 offsets into the blob at strBlob
	strBlob [segStringCount]int
	generic int // the generic block, running to the end of body
}

// OpenSegment reads the segment at path and verifies it: the checksum before
// any field is trusted, then the header, then — while building the column
// directory — that every column, offset table, blob and generic row lies
// inside the file with nothing left over, and that every string offset table
// is non-decreasing. A reader that opened therefore never indexes outside
// its image, whatever rows are asked of it. The image is the reader's own:
// it is read once, here, and later changes to the file are never seen.
func OpenSegment(path string) (*SegmentReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: read segment: %w", err)
	}
	return openSegmentImage(data)
}

func openSegmentImage(data []byte) (*SegmentReader, error) {
	if len(data) < segHeaderLen+4 {
		return nil, fmt.Errorf("%w: short file (%d bytes)", ErrCorruptSegment, len(data))
	}
	body, sumBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSegment)
	}
	if [segMagicLen]byte(body[:segMagicLen]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	if ver := body[segMagicLen]; ver != segVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptSegment, ver)
	}
	hdr := body[segMagicLen+1:]
	shards := binary.LittleEndian.Uint32(hdr)
	total := binary.LittleEndian.Uint64(hdr[4:])
	typedN := binary.LittleEndian.Uint64(hdr[12:])
	genericN := binary.LittleEndian.Uint64(hdr[20:])
	// The counts must add up and fit the bytes present, so nothing below
	// allocates or multiplies on a number the file does not back.
	if total > segMaxRows || typedN > total || genericN != total-typedN ||
		typedN > uint64(len(body))/segTypedRowMin || genericN > uint64(len(body))/segGenericMin {
		return nil, fmt.Errorf("%w: implausible row counts %d=%d+%d in %d bytes",
			ErrCorruptSegment, total, typedN, genericN, len(data))
	}
	T := int(typedN)
	r := &SegmentReader{body: body, info: SegmentInfo{
		Shards: int(shards), Rows: int(total), Typed: T, Generic: int(genericN), Bytes: int64(len(data)),
		MinTime: int64(binary.LittleEndian.Uint64(hdr[28:])), MaxTime: int64(binary.LittleEndian.Uint64(hdr[36:])),
	}}

	o := segHeaderLen
	var terr error
	take := func(n int) int { // claims the next n bytes, returning their offset
		at := o
		if n > len(body)-o {
			if terr == nil {
				terr = fmt.Errorf("%w: truncated at offset %d (+%d)", ErrCorruptSegment, o, n)
			}
			n = len(body) - o
		}
		o += n
		return at
	}
	r.gids = take(8 * T)
	for c := range r.i64 {
		r.i64[c] = take(8 * T)
	}
	for c := range r.i32 {
		r.i32[c] = take(4 * T)
	}
	r.mode = take(4 * T)
	r.aux = take(T)
	for s := range r.strTab {
		r.strTab[s] = take(4 * (T + 1))
		if terr != nil {
			return nil, terr
		}
		// Non-decreasing offsets put every string inside the blob, whose
		// length is the last of them.
		tab := body[r.strTab[s]:o]
		end := binary.LittleEndian.Uint32(tab)
		for i := 4; i < len(tab); i += 4 {
			v := binary.LittleEndian.Uint32(tab[i:])
			if v < end {
				return nil, fmt.Errorf("%w: string column %d offsets out of order", ErrCorruptSegment, s)
			}
			end = v
		}
		r.strBlob[s] = take(int(end))
	}
	r.generic = o
	for g := 0; g < r.info.Generic; g++ {
		at := take(segGenericMin)
		if terr != nil {
			return nil, terr
		}
		take(int(binary.LittleEndian.Uint32(body[at+8:])))
	}
	if terr != nil {
		return nil, terr
	}
	if o != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSegment, len(body)-o)
	}
	return r, nil
}

// Info returns the segment's header fields and file size.
func (r *SegmentReader) Info() SegmentInfo { return r.info }

// Gid returns the segment-local row id of typed row i (0 <= i < Info().Typed).
func (r *SegmentReader) Gid(i int) int {
	return int(binary.LittleEndian.Uint64(r.body[r.gids+8*i:]))
}

// Time returns typed row i's time_enter_ns, read from its column alone.
func (r *SegmentReader) Time(i int) int64 { return r.i64at(segColTimeEnter, i) }

func (r *SegmentReader) i64at(c, i int) int64 {
	return int64(binary.LittleEndian.Uint64(r.body[r.i64[c]+8*i:]))
}

func (r *SegmentReader) i32at(c, i int) int {
	return int(int32(binary.LittleEndian.Uint32(r.body[r.i32[c]+4*i:])))
}

// Decode assembles the typed rows named by sel, in any order, into a new
// slice: out[k] is row sel[k]. It is the format's only decoder. Strings are
// copied out of the image, short ones interned through a per-call table,
// matching the wire codec's allocation discipline; nothing the result
// references keeps the image alive.
func (r *SegmentReader) Decode(sel []int) []event.Event {
	T := r.info.Typed
	// A column's value rarely changes from one row to the next, so the last
	// string decoded for each column is tried before the table.
	intern := make(map[string]string, 64)
	var last [segStringCount]string
	internStr := func(s int, b []byte) string {
		if string(b) == last[s] {
			return last[s]
		}
		if len(b) > 64 {
			return string(b)
		}
		v, ok := intern[string(b)]
		if !ok {
			v = string(b)
			intern[v] = v
		}
		last[s] = v
		return v
	}
	out := make([]event.Event, len(sel))
	for k, i := range sel {
		if uint(i) >= uint(T) {
			panic(fmt.Sprintf("durable: segment row %d selected of %d", i, T))
		}
		e := &out[k]
		e.RetVal = r.i64at(0, i)
		e.ArgOff = r.i64at(1, i)
		e.TimeEnterNS = r.i64at(segColTimeEnter, i)
		e.TimeExitNS = r.i64at(3, i)
		e.FileTag.Dev = uint64(r.i64at(5, i))
		e.FileTag.Ino = uint64(r.i64at(6, i))
		e.FileTag.BirthNS = r.i64at(7, i)
		e.PID = r.i32at(0, i)
		e.TID = r.i32at(1, i)
		e.FD = r.i32at(2, i)
		e.Count = r.i32at(3, i)
		e.Whence = r.i32at(4, i)
		e.Flags = r.i32at(5, i)
		e.Mode = binary.LittleEndian.Uint32(r.body[r.mode+4*i:])
		if e.HasOffset = r.body[r.aux+i]&1 != 0; e.HasOffset {
			e.Offset = r.i64at(4, i)
		}
		for s, p := range [segStringCount]*string{
			&e.Session, &e.Syscall, &e.Class, &e.ProcName, &e.ThreadName,
			&e.ArgPath, &e.ArgPath2, &e.AttrName, &e.FileType, &e.KernelPath,
			&e.FilePath,
		} {
			tab, blob := r.body[r.strTab[s]+4*i:], r.body[r.strBlob[s]:]
			*p = internStr(s, blob[binary.LittleEndian.Uint32(tab):binary.LittleEndian.Uint32(tab[4:])])
		}
	}
	return out
}

// eachGeneric hands the generic block's rows to fn in file (ascending gid)
// order; doc aliases the image.
func (r *SegmentReader) eachGeneric(fn func(gid int, doc []byte) error) error {
	o := r.generic
	for g := 0; g < r.info.Generic; g++ {
		gid := int(binary.LittleEndian.Uint64(r.body[o:]))
		n := int(binary.LittleEndian.Uint32(r.body[o+8:]))
		o += segGenericMin
		if err := fn(gid, r.body[o:o+n]); err != nil {
			return err
		}
		o += n
	}
	return nil
}

// ReadSegment loads the segment at path and hands every row — typed events
// and encoded generic documents — to fn in global-id order: OpenSegment, then
// Decode with every typed row selected, merged with the generic block. doc
// aliases the image, and fn may keep it (MergeSegments does).
func ReadSegment(path string, fn func(gid int, ev *event.Event, doc []byte) error) (SegmentInfo, error) {
	r, err := OpenSegment(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	all := make([]int, r.info.Typed)
	for i := range all {
		all[i] = i
	}
	events := r.Decode(all)
	// Both streams ascend by gid, so typed rows go out ahead of the first
	// generic row that does not precede them.
	ti := 0
	err = r.eachGeneric(func(gid int, doc []byte) error {
		for ; ti < len(events) && r.Gid(ti) < gid; ti++ {
			if err := fn(r.Gid(ti), &events[ti], nil); err != nil {
				return err
			}
		}
		return fn(gid, nil, doc)
	})
	for ; err == nil && ti < len(events); ti++ {
		err = fn(r.Gid(ti), &events[ti], nil)
	}
	return r.info, err
}
