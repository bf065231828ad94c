package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Segment file layout (fixed-width integers little-endian). A segment is one
// snapshot of a contiguous (or, after compaction over retention gaps, sparse)
// run of an index's rows in global-id order, written under the store's locks
// and published by the manifest. Its rows are held in the event codec's
// frame, the one encoding the WAL and replication already carry:
//
//	[4]  magic "DIOS"
//	[1]  version (3; 2, the retired columnar form, is refused as
//	     ErrRetiredFormat, any other value as ErrCorruptSegment)
//	[4]  u32 shard count (advisory: recovery recreates the index with it)
//	[8]  u64 rows N
//	[8]  i64 min time_enter_ns   } empty range (min > max)
//	[8]  i64 max time_enter_ns   } when N = 0
//	uvarint R, then R gid runs, each a uvarint gap from the previous run's
//	     end (from 0 for the first) and a uvarint length >= 1: the rows'
//	     segment-local ids, one run when dense, one more per retention gap
//	ceil(N / segBlockRows) blocks of segBlockRows rows (the last may be
//	     short), each a zone map — zigzag varint min time_enter_ns, uvarint
//	     max − min — then a uvarint length and one event.EncodeBatch frame
//	[4]  u32 CRC-32C of everything before it
//
// Every frame decodes alone, so a reader decodes only the blocks whose zone
// map meets a query's window; event.DecodeBatch validates each frame.
const (
	segMagicLen       = 4
	segHeaderLen      = segMagicLen + 1 + 4 + 8 + 8 + 8
	segVersion        = 3
	segRetiredVersion = 2
	segBlockRows      = 512
	// segMinRowLen is the least a frame spends on one row (a byte per
	// string ref and per varint, plus aux): the header's row count is
	// believed only as far as the body could hold that many rows.
	segMinRowLen = 27
	// segMaxGid bounds a row id: far past any index's row count, and small
	// enough that no sum of ids and gaps overflows.
	segMaxGid = 1 << 48
)

var segMagic = [segMagicLen]byte{'D', 'I', 'O', 'S'}

// SegmentRow is one row handed to WriteSegment: an event, timed by its
// TimeEnterNS.
type SegmentRow struct {
	Event *event.Event
}

// RowSource enumerates an index's rows in global-id order. WriteSegment
// reads each row once and copies it into the segment writer's block before
// it asks for the next, so a source may hand every row out in one reused
// event (a store unpacks its packed rows so).
type RowSource interface {
	NumRows() int
	Row(i int) SegmentRow
}

// GidSource is an optional RowSource extension that assigns explicit
// segment-local row ids instead of the default dense 0..N-1: strictly
// ascending, and sparse where rows are missing.
type GidSource interface {
	Gid(i int) int
}

// WriteSegment writes a snapshot of src to path atomically (tmp + fsync +
// rename) and returns the segment's stats, including the time_enter_ns range
// stamped into the header for query-time pruning. The caller holds whatever
// locks make src a consistent snapshot.
func WriteSegment(path string, shards int, src RowSource) (SegmentInfo, error) {
	image, info := encodeSegment(shards, src)
	if err := writeFileAtomic(path, image); err != nil {
		return SegmentInfo{}, fmt.Errorf("durable: write segment: %w", err)
	}
	return info, nil
}

// CheckSegmentImage runs OpenSegment's checks on a segment image another
// node wrote, then requires it to match meta, the manifest entry that lists
// it: the same row count and time range, and no row id past its span.
func CheckSegmentImage(data []byte, meta SegmentMeta) error {
	r, err := openSegmentImage(data)
	if err != nil {
		return fmt.Errorf("%s: %w", SegmentName(meta.Seq), err)
	}
	end := 0
	for _, run := range r.runs {
		end = run.gid + run.n
	}
	if in := r.info; int64(in.Rows) != meta.Rows || in.MinTime != meta.MinTime || in.MaxTime != meta.MaxTime || int64(end) > meta.EndRow-meta.StartRow {
		return fmt.Errorf("%w: %s holds %d rows in [%d, %d] over %d ids, not its manifest entry's %+v",
			ErrCorruptSegment, SegmentName(meta.Seq), in.Rows, in.MinTime, in.MaxTime, end, meta)
	}
	return nil
}

// WriteSegmentImage publishes at path a segment image that CheckSegmentImage
// passes against meta.
func WriteSegmentImage(path string, data []byte, meta SegmentMeta) error {
	err := CheckSegmentImage(data, meta)
	if err == nil {
		err = writeFileAtomic(path, data)
	}
	return err
}

// encodeSegment builds the file image WriteSegment publishes: src's rows
// through one segmentWriter.
func encodeSegment(shards int, src RowSource) ([]byte, SegmentInfo) {
	n := src.NumRows()
	gid := func(i int) int { return i }
	if gs, ok := src.(GidSource); ok {
		gid = gs.Gid
	}
	var runs []gidRun
	for i := range n {
		runs = appendRun(runs, gid(i), 1)
	}
	w := newSegmentWriter(shards, runs, segHeaderLen+40*n+64)
	for i := range n {
		w.add(src.Row(i).Event)
	}
	return w.finish()
}

// appendRun gives the next n rows the ids gid, gid+1, ...: runs' last run
// grows when the ids continue it, so runs stay maximal as the layout
// requires of a writer.
func appendRun(runs []gidRun, gid, n int) []gidRun {
	row := 0
	if k := len(runs) - 1; k >= 0 {
		if last := &runs[k]; last.gid+last.n == gid {
			last.n += n
			return runs
		}
		row = runs[k].row + runs[k].n
	}
	return append(runs, gidRun{row: row, gid: gid, n: n})
}

// segmentWriter builds a segment image one block at a time: the header and
// the gid runs first, then each block of segBlockRows rows, its zone map and
// its event.EncodeBatch frame, as soon as the block fills. It holds the image
// and one block's rows, never the run, so a snapshot (WriteSegment) and a
// compaction (MergeSegments) write through it alike.
type segmentWriter struct {
	buf   []byte
	info  SegmentInfo // Rows is the rows the gid runs number
	added int
	batch []event.Event
	frame []byte
}

// newSegmentWriter starts the image of an index of shards shards whose rows
// runs numbers, appending into a buffer of capacity size.
func newSegmentWriter(shards int, runs []gidRun, size int) *segmentWriter {
	w := &segmentWriter{info: SegmentInfo{Shards: shards, MinTime: math.MaxInt64, MaxTime: math.MinInt64}}
	for _, r := range runs {
		w.info.Rows += r.n
	}
	w.buf = make([]byte, segHeaderLen, max(size, segHeaderLen))
	copy(w.buf, segMagic[:])
	w.buf[segMagicLen] = segVersion
	binary.LittleEndian.PutUint32(w.buf[segMagicLen+1:], uint32(shards))
	binary.LittleEndian.PutUint64(w.buf[segMagicLen+5:], uint64(w.info.Rows))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(runs)))
	end := 0
	for _, r := range runs {
		w.buf = binary.AppendUvarint(binary.AppendUvarint(w.buf, uint64(r.gid-end)), uint64(r.n))
		end = r.gid + r.n
	}
	w.batch = make([]event.Event, 0, min(w.info.Rows, segBlockRows))
	return w
}

// add copies e in as the next row; a full block is encoded at once.
func (w *segmentWriter) add(e *event.Event) {
	w.batch = append(w.batch, *e)
	w.added++
	if len(w.batch) == segBlockRows {
		w.flush()
	}
}

// flush encodes the rows held as one block.
func (w *segmentWriter) flush() {
	if len(w.batch) == 0 {
		return
	}
	bmin, bmax := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range w.batch {
		bmin, bmax = min(bmin, w.batch[i].TimeEnterNS), max(bmax, w.batch[i].TimeEnterNS)
	}
	w.frame = event.EncodeBatch(w.frame[:0], w.batch)
	w.buf = binary.AppendVarint(w.buf, bmin)
	w.buf = binary.AppendUvarint(w.buf, uint64(bmax)-uint64(bmin))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(w.frame)))
	w.buf = append(w.buf, w.frame...)
	w.info.MinTime, w.info.MaxTime = min(w.info.MinTime, bmin), max(w.info.MaxTime, bmax)
	w.batch = w.batch[:0]
}

// finish encodes the last, possibly short, block, stamps the header's time
// range and appends the CRC. The rows added must be the rows the gid runs
// numbered: any other count is a caller's bug.
func (w *segmentWriter) finish() ([]byte, SegmentInfo) {
	if w.added != w.info.Rows {
		panic(fmt.Sprintf("durable: segment writer given %d rows, its gid runs number %d", w.added, w.info.Rows))
	}
	w.flush()
	binary.LittleEndian.PutUint64(w.buf[segMagicLen+13:], uint64(w.info.MinTime))
	binary.LittleEndian.PutUint64(w.buf[segMagicLen+21:], uint64(w.info.MaxTime))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, crcTable))
	w.info.Bytes = int64(len(w.buf))
	return w.buf, w.info
}

// SegmentInfo summarizes a written or loaded segment. MinTime/MaxTime are
// the header's time_enter_ns range: empty (MinTime > MaxTime) when no row is
// timed.
type SegmentInfo struct {
	Shards  int
	Rows    int
	Bytes   int64
	MinTime int64
	MaxTime int64
}

// SegmentReader is one verified segment image: its header, its gid runs and
// its block directory. A reader never writes to its image once open, so any
// number of goroutines may share one.
type SegmentReader struct {
	info   SegmentInfo
	runs   []gidRun
	blocks []segBlock
}

// gidRun gives rows [row, row+n) the ids gid, gid+1, ...
type gidRun struct{ row, gid, n int }

// segBlock is one block's zone map and its frame, a view into the image.
type segBlock struct {
	minT, maxT int64
	frame      []byte
}

// OpenSegment reads the segment at path and verifies it: the checksum before
// any field is trusted, then the header, then that the gid runs cover exactly
// the header's rows and that the block directory holds one block per
// segBlockRows rows, each inside the file and stamped inside the header's
// time range, with nothing left over. The frames themselves are validated
// when Rows decodes them. A columnar (version 2) segment fails with
// ErrRetiredFormat. The image is the reader's own: it is read once, here,
// and later changes to the file are never seen.
func OpenSegment(path string) (*SegmentReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: read segment: %w", err)
	}
	r, err := openSegmentImage(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return r, nil
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
	switch ver := body[segMagicLen]; ver {
	case segVersion:
	case segRetiredVersion:
		return nil, fmt.Errorf("%w: columnar segment (version %d)", ErrRetiredFormat, ver)
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptSegment, ver)
	}
	hdr := body[segMagicLen+1:]
	// Nothing below allocates on a number the file's bytes do not back.
	rows := binary.LittleEndian.Uint64(hdr[4:])
	if rows > uint64(len(body)/segMinRowLen) {
		return nil, fmt.Errorf("%w: %d rows in %d bytes", ErrCorruptSegment, rows, len(data))
	}
	N := int(rows)
	r := &SegmentReader{info: SegmentInfo{
		Shards: int(binary.LittleEndian.Uint32(hdr)), Rows: N, Bytes: int64(len(data)),
		MinTime: int64(binary.LittleEndian.Uint64(hdr[12:])), MaxTime: int64(binary.LittleEndian.Uint64(hdr[20:])),
	}}

	o := segHeaderLen
	// uv reads the uvarint at body[o:] into v, false when the bytes end first.
	uv := func(v *uint64) bool {
		x, n := binary.Uvarint(body[o:])
		if n <= 0 {
			return false
		}
		*v, o = x, o+n
		return true
	}
	var nRuns uint64
	if !uv(&nRuns) || nRuns > rows {
		return nil, fmt.Errorf("%w: %d gid runs for %d rows", ErrCorruptSegment, nRuns, N)
	}
	r.runs = make([]gidRun, 0, nRuns)
	row, end := 0, uint64(0)
	for k := uint64(0); k < nRuns; k++ {
		var gap, n uint64
		if !uv(&gap) || !uv(&n) {
			return nil, fmt.Errorf("%w: truncated gid run %d", ErrCorruptSegment, k)
		}
		if n == 0 || n > uint64(N-row) || gap > segMaxGid || end+gap+n > segMaxGid {
			return nil, fmt.Errorf("%w: gid run %d (gap %d, %d rows) past the segment's %d rows or ids",
				ErrCorruptSegment, k, gap, n, N)
		}
		r.runs = append(r.runs, gidRun{row: row, gid: int(end + gap), n: int(n)})
		row, end = row+int(n), end+gap+n
	}
	if row != N {
		return nil, fmt.Errorf("%w: gid runs cover %d of %d rows", ErrCorruptSegment, row, N)
	}

	r.blocks = make([]segBlock, (N+segBlockRows-1)/segBlockRows)
	for k := range r.blocks {
		var zz, span, n uint64
		if !uv(&zz) || !uv(&span) || !uv(&n) {
			return nil, fmt.Errorf("%w: block %d of %d missing or truncated", ErrCorruptSegment, k, len(r.blocks))
		}
		lo := int64(zz>>1) ^ -int64(zz&1)
		hi := lo + int64(span)
		if span > uint64(math.MaxInt64)-uint64(lo) || lo < r.info.MinTime || hi > r.info.MaxTime {
			return nil, fmt.Errorf("%w: block %d stamped [%d, +%d], the segment [%d, %d]",
				ErrCorruptSegment, k, lo, span, r.info.MinTime, r.info.MaxTime)
		}
		if n > uint64(len(body)-o) {
			return nil, fmt.Errorf("%w: block %d's %d-byte frame past the file", ErrCorruptSegment, k, n)
		}
		r.blocks[k] = segBlock{minT: lo, maxT: hi, frame: body[o : o+int(n)]}
		o += int(n)
	}
	if o != len(body) {
		return nil, fmt.Errorf("%w: %d bytes past the %d blocks of %d rows", ErrCorruptSegment, len(body)-o, len(r.blocks), N)
	}
	return r, nil
}

// Info returns the segment's header fields and file size.
func (r *SegmentReader) Info() SegmentInfo { return r.info }

// blockRows is the number of rows block k holds.
func (r *SegmentReader) blockRows(k int) int {
	return min(segBlockRows, r.info.Rows-k*segBlockRows)
}

// EachBlock decodes the rows whose time_enter_ns lies in [minT, maxT] one
// block at a time, in row order, and hands fn each decoded block's rows in
// the window with their segment-local ids. It decodes only the blocks whose
// zone map meets the window, each into one buffer of a block's rows reused
// for the next block, so the rows and ids are fn's for the call alone and a
// walk holds one block's decode at a time. A frame that does not decode to
// exactly its block's rows, or a row outside its block's stamped range, is
// ErrCorruptSegment: a wrong zone map never silently hides a row of a block
// the walk reads. fn has seen the blocks before a corrupt one; a non-nil
// error from fn ends the walk and is returned. Decoded rows do not alias the
// image.
func (r *SegmentReader) EachBlock(minT, maxT int64, fn func(rows []event.Event, gids []int) error) error {
	var buf []event.Event
	var gids []int
	run := 0
	for k, b := range r.blocks {
		if b.maxT < minT || b.minT > maxT {
			continue
		}
		decoded, err := event.DecodeBatch(b.frame, buf[:0])
		if err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrCorruptSegment, k, err)
		}
		if got, owed := len(decoded), r.blockRows(k); got != owed {
			return fmt.Errorf("%w: block %d decodes to %d rows, owes %d", ErrCorruptSegment, k, got, owed)
		}
		buf = decoded
		// Keep the window's rows, compacting them in place.
		w := 0
		gids = gids[:0]
		for i := range decoded {
			t := decoded[i].TimeEnterNS
			if t < b.minT || t > b.maxT {
				return fmt.Errorf("%w: block %d row %d at %d, outside its stamped [%d, %d]",
					ErrCorruptSegment, k, i, t, b.minT, b.maxT)
			}
			if t < minT || t > maxT {
				continue
			}
			row := k*segBlockRows + i
			for row >= r.runs[run].row+r.runs[run].n {
				run++
			}
			if w != i {
				decoded[w] = decoded[i]
			}
			w++
			gids = append(gids, r.runs[run].gid+row-r.runs[run].row)
		}
		if err := fn(decoded[:w], gids); err != nil {
			return err
		}
	}
	return nil
}

// Rows is EachBlock's rows gathered: every row in [minT, maxT], in row
// order, with its segment-local id.
func (r *SegmentReader) Rows(minT, maxT int64) ([]event.Event, []int, error) {
	var events []event.Event
	var gids []int
	err := r.EachBlock(minT, maxT, func(rows []event.Event, ids []int) error {
		events, gids = append(events, rows...), append(gids, ids...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return events, gids, nil
}

// ReadSegment loads the segment at path and hands every row to fn in
// global-id order: OpenSegment, then EachBlock over every block. The event
// is borrowed for the call, and fn has seen the rows of the blocks before a
// corrupt one. doc is always nil; the parameter is kept because benchmark/
// still passes a callback of this shape.
func ReadSegment(path string, fn func(gid int, ev *event.Event, doc []byte) error) (SegmentInfo, error) {
	r, err := OpenSegment(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	var fnErr error
	err = r.EachBlock(math.MinInt64, math.MaxInt64, func(rows []event.Event, gids []int) error {
		for i := range rows {
			if fnErr = fn(gids[i], &rows[i], nil); fnErr != nil {
				return fnErr
			}
		}
		return nil
	})
	switch {
	case fnErr != nil:
		return r.info, fnErr
	case err != nil:
		return SegmentInfo{}, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return r.info, nil
}
