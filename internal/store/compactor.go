package store

import (
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// compactFanout is the leveled merge trigger: a run of this many adjacent
// same-level segments merges into one segment at the next level, so N
// flushes leave O(log N) segments and recovery/search touch a bounded list.
const compactFanout = 4

// Compact runs one maintenance pass over every durable index: leveled
// segment compaction until no mergeable run remains, then a retention sweep
// dropping cold segments wholly older than the configured horizon. The
// background snapshot loop runs the same pass after each periodic snapshot;
// this export is for operational use (and tests) on stores without a
// snapshot interval. No-op on in-memory stores.
func (s *Store) Compact() error { return s.maintain() }

// maintain serializes maintenance passes: the exported Compact and the
// snapshot loop must not interleave, or a retention sweep could delete input
// files a concurrent merge is still reading (merges read lock-free — their
// inputs stay manifest-listed for the duration only if no other maintainer
// runs).
func (s *Store) maintain() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	var first error
	for _, ix := range s.allIndices() {
		if ix.dur == nil {
			continue
		}
		for {
			merged, err := ix.compactOnce()
			if err != nil {
				if first == nil {
					first = err
				}
				break
			}
			if !merged {
				break
			}
		}
		if err := ix.retainOnce(time.Now()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// planCompaction picks the first run of compactFanout adjacent same-level
// segments, or nil.
func planCompaction(segs []durable.SegmentMeta) []durable.SegmentMeta {
	for i := 0; i+compactFanout <= len(segs); i++ {
		ok := true
		for j := 0; j < compactFanout; j++ {
			if segs[i+j].Level != segs[i].Level {
				ok = false
				break
			}
		}
		if ok {
			run := make([]durable.SegmentMeta, compactFanout)
			copy(run, segs[i:i+compactFanout])
			return run
		}
	}
	return nil
}

// findRun locates run as a contiguous slice of cur (matched by sequence and
// row count), or -1 — the commit-time revalidation that the planned inputs
// are still exactly what the manifest lists.
func findRun(cur, run []durable.SegmentMeta) int {
	for i := 0; i+len(run) <= len(cur); i++ {
		if cur[i].Seq != run[0].Seq {
			continue
		}
		for j := range run {
			if cur[i+j].Seq != run[j].Seq || cur[i+j].Rows != run[j].Rows {
				return -1
			}
		}
		return i
	}
	return -1
}

// compactOnce merges one planned run and commits the replacement, returning
// whether a merge happened. The expensive read+write runs outside all locks
// against immutable committed files; only the output-sequence claim and the
// manifest commit take the exclusive gate. A crash after the segment write
// but before the commit leaves an orphan file recovery's CleanOrphans
// removes; a concurrent layout change (another flush landed mid-merge is
// fine — the run is revalidated, and a vanished run just abandons the
// output).
func (ix *Index) compactOnce() (bool, error) {
	d := ix.dur
	d.gate.RLock()
	run := planCompaction(*d.segs.Load())
	d.gate.RUnlock()
	if run == nil {
		return false, nil
	}
	d.gate.Lock()
	outSeq := d.segSeq
	d.segSeq++
	d.gate.Unlock()
	// Rows of an input written before a correlation pass leave the merge
	// named. The book is not trimmed for it: a record that lands mid-merge is
	// missing from this output, and applying one twice changes nothing.
	var finish func(gid int64, e *event.Event)
	if book := d.paths(); len(book) > 0 {
		finish = func(gid int64, e *event.Event) { resolveFromBook(book, int(gid), e) }
	}
	merged, err := durable.MergeSegments(d.dir, run, outSeq, len(ix.shards), finish, nil)
	if err != nil {
		durable.RemoveSegment(d.dir, outSeq)
		return false, err
	}
	d.gate.Lock()
	cur := *d.segs.Load()
	lo := findRun(cur, run)
	if lo < 0 {
		d.gate.Unlock()
		durable.RemoveSegment(d.dir, outSeq)
		return false, nil
	}
	newSegs := make([]durable.SegmentMeta, 0, len(cur)-len(run)+1)
	newSegs = append(newSegs, cur[:lo]...)
	newSegs = append(newSegs, merged)
	newSegs = append(newSegs, cur[lo+len(run):]...)
	m := d.manifest(ix)
	m.Segments = newSegs
	err = d.commit(ix, m, nil)
	d.gate.Unlock()
	if err != nil {
		durable.RemoveSegment(d.dir, outSeq)
		return false, err
	}
	// Input files are unreferenced by the committed manifest and every reader
	// that could hold the old list has finished (the publication held all
	// shard write locks), so none still reads their resident rows.
	for _, sm := range run {
		d.resident.drop(sm.Seq)
		durable.RemoveSegment(d.dir, sm.Seq)
	}
	d.tm.compactions.Inc()
	return true, nil
}

// retainOnce drops every cold segment whose entire stamped time range is
// older than the retention horizon, advancing the retention floor (which
// expires unsorted paging cursors below it) and dropping the path-book
// records whose every row is now gone. Compaction never changes visible data;
// this does — so the commit brackets an epoch bump, invalidating every
// cached query response that predates the drop.
func (ix *Index) retainOnce(now time.Time) error {
	d := ix.dur
	if d.retention <= 0 {
		return nil
	}
	cutoff := now.UnixNano() - int64(d.retention)
	d.gate.Lock()
	cur := *d.segs.Load()
	base := ix.base.Load()
	var keep, dropped []durable.SegmentMeta
	for _, sm := range cur {
		old := sm.EndRow <= base && sm.MinTime <= sm.MaxTime && sm.MaxTime < cutoff
		if old {
			dropped = append(dropped, sm)
		} else {
			keep = append(keep, sm)
		}
	}
	if len(dropped) == 0 {
		d.gate.Unlock()
		return nil
	}
	floor := ix.retFloor.Load()
	for _, sm := range dropped {
		if sm.EndRow > floor {
			floor = sm.EndRow
		}
	}
	// A paths record stays while a kept segment holds a row below its horizon
	// (keep is in row order, so its first segment starts lowest).
	var book []event.PathsRecord
	for _, rec := range d.paths() {
		if len(keep) > 0 && keep[0].StartRow < rec.H {
			book = append(book, rec)
		}
	}
	m := d.manifest(ix)
	m.Segments, m.RetentionFloor, m.Paths = keep, floor, book
	err := d.commit(ix, m, func() {
		ix.epoch.Add(1)
		ix.retFloor.Store(floor)
		d.book.Store(&book)
	})
	d.gate.Unlock()
	if err != nil {
		return err
	}
	ix.epoch.Add(1)
	for _, sm := range dropped {
		d.resident.drop(sm.Seq)
		durable.RemoveSegment(d.dir, sm.Seq)
	}
	d.tm.retentionDrops.Add(uint64(len(dropped)))
	return nil
}
