package durable

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// MergeSegments reads the committed segments described by metas (ascending
// StartRow order, files resolved in dir) and writes their union as one
// segment with sequence outSeq. It streams: the output's gid runs are the
// inputs' runs placed at their StartRow (sparse across retention gaps), and
// each input's rows pass block by block through one segmentWriter, so a merge
// never holds the run as events. Its memory is the input and output images
// and two blocks of rows, one decoded and one the writer fills. finish (nil =
// none) may complete each event row in place on its way through — the store
// names file paths there — so the immutable output carries what the inputs
// were written too early to hold. docTime is ignored; the parameter is kept
// because benchmark/ still passes it. It returns the merged segment's
// metadata at level = max input level + 1. The inputs are immutable committed
// files, so no locks are needed; the caller commits the returned meta
// (replacing the inputs) under its manifest lock, or deletes the output file
// if the commit is abandoned.
func MergeSegments(dir string, metas []SegmentMeta, outSeq, shards int, finish func(gid int64, e *event.Event), docTime func([]byte) (int64, bool)) (SegmentMeta, error) {
	if len(metas) == 0 {
		return SegmentMeta{}, fmt.Errorf("durable: merge of zero segments")
	}
	base, level := metas[0].StartRow, 0
	inputs := make([]*SegmentReader, len(metas))
	var runs []gidRun
	size := 0 // the output is about as long as its inputs together
	for i, sm := range metas {
		level = max(level, sm.Level)
		r, err := OpenSegment(filepath.Join(dir, SegmentName(sm.Seq)))
		if err != nil {
			return SegmentMeta{}, fmt.Errorf("durable: merge read %s: %w", SegmentName(sm.Seq), err)
		}
		start := int(sm.StartRow - base)
		for _, run := range r.runs {
			runs = appendRun(runs, start+run.gid, run.n)
		}
		size += int(r.info.Bytes)
		inputs[i] = r
	}
	w := newSegmentWriter(shards, runs, size)
	for i, r := range inputs {
		start := metas[i].StartRow
		err := r.EachBlock(math.MinInt64, math.MaxInt64, func(rows []event.Event, gids []int) error {
			for j := range rows {
				if finish != nil {
					finish(start+int64(gids[j]), &rows[j])
				}
				w.add(&rows[j])
			}
			return nil
		})
		if err != nil {
			return SegmentMeta{}, fmt.Errorf("durable: merge read %s: %w", SegmentName(metas[i].Seq), err)
		}
		inputs[i] = nil // its image is garbage once read
	}
	image, info := w.finish()
	if err := writeFileAtomic(filepath.Join(dir, SegmentName(outSeq)), image); err != nil {
		return SegmentMeta{}, fmt.Errorf("durable: write segment: %w", err)
	}
	return SegmentMeta{
		Seq:      outSeq,
		Level:    level + 1,
		Rows:     int64(info.Rows),
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
