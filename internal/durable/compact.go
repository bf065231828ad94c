package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// mergedRow is one surviving row of a compaction: its absolute global row id
// plus the row payload (and, for generic documents, the extracted time so
// the merged segment's pruning range stays tight).
type mergedRow struct {
	gid int64
	row SegmentRow
}

// mergedSource adapts the merged row list to WriteSegment, emitting explicit
// segment-local ids relative to base (sparse when the inputs had interior
// retention gaps).
type mergedSource struct {
	rows []mergedRow
	base int64
}

func (m *mergedSource) NumRows() int         { return len(m.rows) }
func (m *mergedSource) Row(i int) SegmentRow { return m.rows[i].row }
func (m *mergedSource) Gid(i int) int        { return int(m.rows[i].gid - m.base) }

// MergeSegments reads the committed segments described by metas (ascending
// StartRow order, files resolved in dir) and writes their union as one
// segment with sequence outSeq. finish (nil = none) may complete each event
// row in place on its way through — the store names file paths there — so the
// immutable output carries what the inputs were written too early to hold.
// Generic documents are opaque here, so docTime (nil = no generic row is
// timed) extracts their time_enter_ns to keep the merged pruning range
// sound. It returns the merged segment's metadata at level = max input
// level + 1. The inputs are immutable committed files, so no locks are
// needed; the caller commits the returned meta (replacing the inputs) under
// its manifest lock, or deletes the output file if the commit is abandoned.
func MergeSegments(dir string, metas []SegmentMeta, outSeq, shards int, finish func(gid int64, e *event.Event), docTime func([]byte) (int64, bool)) (SegmentMeta, error) {
	if len(metas) == 0 {
		return SegmentMeta{}, fmt.Errorf("durable: merge of zero segments")
	}
	var rows []mergedRow
	level := 0
	for _, sm := range metas {
		if sm.Level > level {
			level = sm.Level
		}
		start := sm.StartRow
		_, err := ReadSegment(filepath.Join(dir, SegmentName(sm.Seq)), func(gid int, ev *event.Event, doc []byte) error {
			abs := start + int64(gid)
			var row SegmentRow
			if ev != nil {
				e := *ev
				if finish != nil {
					finish(abs, &e)
				}
				row = SegmentRow{Event: &e}
			} else {
				row = SegmentRow{Doc: doc}
				if docTime != nil {
					row.DocTime, row.DocTimed = docTime(doc)
				}
			}
			rows = append(rows, mergedRow{gid: abs, row: row})
			return nil
		})
		if err != nil {
			return SegmentMeta{}, fmt.Errorf("durable: merge read %s: %w", SegmentName(sm.Seq), err)
		}
	}
	base := metas[0].StartRow
	src := &mergedSource{rows: rows, base: base}
	info, err := WriteSegment(filepath.Join(dir, SegmentName(outSeq)), shards, src)
	if err != nil {
		return SegmentMeta{}, err
	}
	end := metas[len(metas)-1].EndRow
	return SegmentMeta{
		Seq:      outSeq,
		Level:    level + 1,
		Rows:     int64(len(rows)),
		StartRow: base,
		EndRow:   end,
		MinTime:  info.MinTime,
		MaxTime:  info.MaxTime,
		Bytes:    info.Bytes,
		Generic:  int64(info.Generic),
	}, nil
}

// RemoveSegment deletes a segment file best-effort (compaction/retention
// cleanup once the manifest no longer references it and all readers have
// released it).
func RemoveSegment(dir string, seq int) {
	_ = os.Remove(filepath.Join(dir, SegmentName(seq)))
}
