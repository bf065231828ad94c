package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// mergedSource adapts the merged rows to WriteSegment, with explicit
// segment-local ids (sparse when the inputs had interior retention gaps).
type mergedSource struct {
	events []event.Event
	gids   []int
}

func (m *mergedSource) NumRows() int         { return len(m.events) }
func (m *mergedSource) Row(i int) SegmentRow { return SegmentRow{Event: &m.events[i]} }
func (m *mergedSource) Gid(i int) int        { return m.gids[i] }

// MergeSegments reads the committed segments described by metas (ascending
// StartRow order, files resolved in dir) and writes their union as one
// segment with sequence outSeq. finish (nil = none) may complete each event
// row in place on its way through — the store names file paths there — so the
// immutable output carries what the inputs were written too early to hold.
// docTime is ignored; the parameter is kept because benchmark/ still passes
// it. It returns the merged segment's metadata at level = max input
// level + 1. The inputs are immutable committed files, so no locks are
// needed; the caller commits the returned meta (replacing the inputs) under
// its manifest lock, or deletes the output file if the commit is abandoned.
func MergeSegments(dir string, metas []SegmentMeta, outSeq, shards int, finish func(gid int64, e *event.Event), docTime func([]byte) (int64, bool)) (SegmentMeta, error) {
	if len(metas) == 0 {
		return SegmentMeta{}, fmt.Errorf("durable: merge of zero segments")
	}
	var src mergedSource
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
			return SegmentMeta{}, fmt.Errorf("durable: merge read %s: %w", SegmentName(sm.Seq), err)
		}
	}
	info, err := WriteSegment(filepath.Join(dir, SegmentName(outSeq)), shards, &src)
	if err != nil {
		return SegmentMeta{}, err
	}
	return SegmentMeta{
		Seq:      outSeq,
		Level:    level + 1,
		Rows:     int64(len(src.events)),
		StartRow: base,
		EndRow:   metas[len(metas)-1].EndRow,
		MinTime:  info.MinTime,
		MaxTime:  info.MaxTime,
		Bytes:    info.Bytes,
	}, nil
}

// RemoveSegment deletes a segment file best-effort (compaction/retention
// cleanup once the manifest no longer references it and all readers have
// released it).
func RemoveSegment(dir string, seq int) {
	_ = os.Remove(filepath.Join(dir, SegmentName(seq)))
}
