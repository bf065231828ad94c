package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// refEncodeSegment encodes src's whole run in one pass: the runs from a scan
// of every id, then each block gathered from src and encoded. It is the
// reference the segment writer's images must equal byte for byte.
func refEncodeSegment(shards int, src RowSource) ([]byte, SegmentInfo) {
	n := src.NumRows()
	gid := func(i int) int { return i }
	if gs, ok := src.(GidSource); ok {
		gid = gs.Gid
	}
	buf := make([]byte, segHeaderLen, segHeaderLen+40*n+64)
	copy(buf, segMagic[:])
	buf[segMagicLen] = segVersion
	binary.LittleEndian.PutUint32(buf[segMagicLen+1:], uint32(shards))
	binary.LittleEndian.PutUint64(buf[segMagicLen+5:], uint64(n))

	var runs []byte
	nRuns, end := 0, 0
	for i := 0; i < n; nRuns++ {
		first, j := gid(i), i+1
		for j < n && gid(j) == first+j-i {
			j++
		}
		runs = binary.AppendUvarint(binary.AppendUvarint(runs, uint64(first-end)), uint64(j-i))
		end, i = first+j-i, j
	}
	buf = append(binary.AppendUvarint(buf, uint64(nRuns)), runs...)

	minT, maxT := int64(math.MaxInt64), int64(math.MinInt64)
	batch := make([]event.Event, 0, min(n, segBlockRows))
	var frame []byte
	for lo := 0; lo < n; lo += segBlockRows {
		batch = batch[:0]
		bmin, bmax := int64(math.MaxInt64), int64(math.MinInt64)
		for i := lo; i < min(lo+segBlockRows, n); i++ {
			e := src.Row(i).Event
			batch = append(batch, *e)
			bmin, bmax = min(bmin, e.TimeEnterNS), max(bmax, e.TimeEnterNS)
		}
		frame = event.EncodeBatch(frame[:0], batch)
		buf = binary.AppendVarint(buf, bmin)
		buf = binary.AppendUvarint(buf, uint64(bmax)-uint64(bmin))
		buf = binary.AppendUvarint(buf, uint64(len(frame)))
		buf = append(buf, frame...)
		minT, maxT = min(minT, bmin), max(maxT, bmax)
	}
	binary.LittleEndian.PutUint64(buf[segMagicLen+13:], uint64(minT))
	binary.LittleEndian.PutUint64(buf[segMagicLen+21:], uint64(maxT))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, SegmentInfo{Shards: shards, Rows: n, Bytes: int64(len(buf)), MinTime: minT, MaxTime: maxT}
}

// materializedRun is a merge's whole run as events, with explicit
// segment-local ids (sparse across retention gaps).
type materializedRun struct {
	events []event.Event
	gids   []int
}

func (m *materializedRun) NumRows() int         { return len(m.events) }
func (m *materializedRun) Row(i int) SegmentRow { return SegmentRow{Event: &m.events[i]} }
func (m *materializedRun) Gid(i int) int        { return m.gids[i] }

// refMergeSegments is the materialized merge: every input's rows gathered
// into one growing slice of events, finished in place, then encoded whole by
// refEncodeSegment. It is the reference MergeSegments' output must equal
// byte for byte, meta for meta.
func refMergeSegments(dir string, metas []SegmentMeta, outSeq, shards int, finish func(gid int64, e *event.Event)) (SegmentMeta, error) {
	var src materializedRun
	base, level := metas[0].StartRow, 0
	for _, sm := range metas {
		level = max(level, sm.Level)
		start := int(sm.StartRow - base)
		_, err := ReadSegment(filepath.Join(dir, SegmentName(sm.Seq)), func(gid int, ev *event.Event, _ []byte) error {
			src.events, src.gids = append(src.events, *ev), append(src.gids, start+gid)
			if finish != nil {
				finish(base+int64(start+gid), &src.events[len(src.events)-1])
			}
			return nil
		})
		if err != nil {
			return SegmentMeta{}, fmt.Errorf("reference merge read %s: %w", SegmentName(sm.Seq), err)
		}
	}
	image, info := refEncodeSegment(shards, &src)
	if err := writeFileAtomic(filepath.Join(dir, SegmentName(outSeq)), image); err != nil {
		return SegmentMeta{}, err
	}
	return SegmentMeta{
		Seq: outSeq, Level: level + 1, Rows: int64(len(src.events)),
		StartRow: base, EndRow: metas[len(metas)-1].EndRow,
		MinTime: info.MinTime, MaxTime: info.MaxTime, Bytes: info.Bytes,
	}, nil
}
