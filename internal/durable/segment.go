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
// The columnar typed block is what makes snapshots cheap to load: each
// column decodes with one bounds check per row, and the string blobs intern
// naturally because equal values are loaded once per column read.
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
	if err := writeFileAtomic(path, w.buf); err != nil {
		return SegmentInfo{}, fmt.Errorf("durable: write segment: %w", err)
	}
	return SegmentInfo{
		Shards:  shards,
		Rows:    n,
		Typed:   len(typed),
		Generic: len(generic),
		Bytes:   int64(len(w.buf)),
		MinTime: minT,
		MaxTime: maxT,
	}, nil
}

// segReader walks the segment image with bounds checking.
type segReader struct {
	data []byte
	o    int
}

func (r *segReader) need(n int) ([]byte, error) {
	if r.o+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated at offset %d (+%d)", ErrCorruptSegment, r.o, n)
	}
	b := r.data[r.o : r.o+n]
	r.o += n
	return b, nil
}

func (r *segReader) u8() (byte, error) {
	b, err := r.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *segReader) u32() (uint32, error) {
	b, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *segReader) u64() (uint64, error) {
	b, err := r.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
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

// ReadSegment loads the segment at path, verifying the whole-file checksum
// before trusting any field, and hands every row — typed events and encoded
// generic documents — to fn in global-id order. Short strings intern through
// a per-load table, matching the wire codec's allocation discipline.
func ReadSegment(path string, fn func(gid int, ev *event.Event, doc []byte) error) (SegmentInfo, error) {
	var info SegmentInfo
	data, err := os.ReadFile(path)
	if err != nil {
		return info, fmt.Errorf("durable: read segment: %w", err)
	}
	if len(data) < segHeaderLen+4 {
		return info, fmt.Errorf("%w: short file (%d bytes)", ErrCorruptSegment, len(data))
	}
	body, sumBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(sumBytes) {
		return info, fmt.Errorf("%w: checksum mismatch", ErrCorruptSegment)
	}
	r := &segReader{data: body}
	magic, _ := r.need(segMagicLen)
	if [segMagicLen]byte(magic) != segMagic {
		return info, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	ver, _ := r.u8()
	if ver != segVersion {
		return info, fmt.Errorf("%w: unsupported version %d", ErrCorruptSegment, ver)
	}
	shards, _ := r.u32()
	total, _ := r.u64()
	typedN, _ := r.u64()
	genericN, _ := r.u64()
	minT, _ := r.u64()
	maxT, _ := r.u64()
	if total > segMaxRows || typedN+genericN != total {
		return info, fmt.Errorf("%w: implausible row counts %d=%d+%d", ErrCorruptSegment, total, typedN, genericN)
	}
	info = SegmentInfo{
		Shards: int(shards), Rows: int(total), Typed: int(typedN), Generic: int(genericN),
		Bytes: int64(len(data)), MinTime: int64(minT), MaxTime: int64(maxT),
	}

	T := int(typedN)
	gids := make([]int, T)
	for i := 0; i < T; i++ {
		g, err := r.u64()
		if err != nil {
			return info, err
		}
		gids[i] = int(g)
	}
	events := make([]event.Event, T)
	i64cols := []func(e *event.Event, v int64){
		func(e *event.Event, v int64) { e.RetVal = v },
		func(e *event.Event, v int64) { e.ArgOff = v },
		func(e *event.Event, v int64) { e.TimeEnterNS = v },
		func(e *event.Event, v int64) { e.TimeExitNS = v },
		func(e *event.Event, v int64) { e.Offset = v },
		func(e *event.Event, v int64) { e.FileTag.Dev = uint64(v) },
		func(e *event.Event, v int64) { e.FileTag.Ino = uint64(v) },
		func(e *event.Event, v int64) { e.FileTag.BirthNS = v },
	}
	for _, set := range i64cols {
		for i := 0; i < T; i++ {
			v, err := r.u64()
			if err != nil {
				return info, err
			}
			set(&events[i], int64(v))
		}
	}
	i32cols := []func(e *event.Event, v int32){
		func(e *event.Event, v int32) { e.PID = int(v) },
		func(e *event.Event, v int32) { e.TID = int(v) },
		func(e *event.Event, v int32) { e.FD = int(v) },
		func(e *event.Event, v int32) { e.Count = int(v) },
		func(e *event.Event, v int32) { e.Whence = int(v) },
		func(e *event.Event, v int32) { e.Flags = int(v) },
	}
	for _, set := range i32cols {
		for i := 0; i < T; i++ {
			v, err := r.u32()
			if err != nil {
				return info, err
			}
			set(&events[i], int32(v))
		}
	}
	for i := 0; i < T; i++ {
		v, err := r.u32()
		if err != nil {
			return info, err
		}
		events[i].Mode = v
	}
	for i := 0; i < T; i++ {
		aux, err := r.u8()
		if err != nil {
			return info, err
		}
		events[i].HasOffset = aux&1 != 0
		if !events[i].HasOffset {
			events[i].Offset = 0
		}
	}
	intern := make(map[string]string, 64)
	internStr := func(b []byte) string {
		if len(b) == 0 {
			return ""
		}
		if len(b) <= 64 {
			if s, ok := intern[string(b)]; ok {
				return s
			}
			s := string(b)
			intern[s] = s
			return s
		}
		return string(b)
	}
	setters := []func(e *event.Event, s string){
		func(e *event.Event, s string) { e.Session = s },
		func(e *event.Event, s string) { e.Syscall = s },
		func(e *event.Event, s string) { e.Class = s },
		func(e *event.Event, s string) { e.ProcName = s },
		func(e *event.Event, s string) { e.ThreadName = s },
		func(e *event.Event, s string) { e.ArgPath = s },
		func(e *event.Event, s string) { e.ArgPath2 = s },
		func(e *event.Event, s string) { e.AttrName = s },
		func(e *event.Event, s string) { e.FileType = s },
		func(e *event.Event, s string) { e.KernelPath = s },
		func(e *event.Event, s string) { e.FilePath = s },
	}
	for s := 0; s < segStringCount; s++ {
		offsets := make([]uint32, T+1)
		for i := range offsets {
			v, err := r.u32()
			if err != nil {
				return info, err
			}
			offsets[i] = v
		}
		blobLen := int(offsets[T])
		blob, err := r.need(blobLen)
		if err != nil {
			return info, err
		}
		for i := 0; i < T; i++ {
			lo, hi := offsets[i], offsets[i+1]
			if lo > hi || int(hi) > blobLen {
				return info, fmt.Errorf("%w: string column %d offsets out of order", ErrCorruptSegment, s)
			}
			setters[s](&events[i], internStr(blob[lo:hi]))
		}
	}
	type genRow struct {
		gid int
		doc []byte
	}
	gens := make([]genRow, 0, int(genericN))
	for i := 0; i < int(genericN); i++ {
		gid, err := r.u64()
		if err != nil {
			return info, err
		}
		dlen, err := r.u32()
		if err != nil {
			return info, err
		}
		doc, err := r.need(int(dlen))
		if err != nil {
			return info, err
		}
		gens = append(gens, genRow{gid: int(gid), doc: doc})
	}
	if r.o != len(body) {
		return info, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSegment, len(body)-r.o)
	}
	// Merge the two gid-ascending streams so fn sees rows in insertion order.
	ti, gi := 0, 0
	for ti < T || gi < len(gens) {
		switch {
		case gi >= len(gens) || (ti < T && gids[ti] < gens[gi].gid):
			if err := fn(gids[ti], &events[ti], nil); err != nil {
				return info, err
			}
			ti++
		default:
			if err := fn(gens[gi].gid, nil, gens[gi].doc); err != nil {
				return info, err
			}
			gi++
		}
	}
	return info, nil
}
