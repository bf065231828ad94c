package durable

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// mergeEvent is row i of a merge fixture: a few syscalls and threads, times
// ascending with jitter across block edges, and every fourth row unnamed for
// a finish to name.
func mergeEvent(rng *rand.Rand, i int) event.Event {
	e := testEvent(i)
	e.Syscall = []string{"read", "write", "pwrite64", "fsync"}[rng.Intn(4)]
	e.ThreadName = fmt.Sprintf("w%d", rng.Intn(4))
	e.TimeEnterNS += int64(rng.Intn(5000)) - 2500
	if rng.Intn(4) == 0 {
		e.FilePath, e.KernelPath = "", ""
	}
	return e
}

// writeMergeInputs writes a run of segments of the given row counts to dir
// and returns their metas in StartRow order. With rng's draws an input's ids
// are sparse (a retention gap inside a compacted input), it ends before its
// EndRow, and the next input starts past it (a dropped segment between).
func writeMergeInputs(tb testing.TB, rng *rand.Rand, dir string, counts []int, gaps bool) []SegmentMeta {
	tb.Helper()
	var metas []SegmentMeta
	next, row := int64(rng.Intn(1000)), 0
	for s, n := range counts {
		evs := make([]event.Event, n)
		rows := make([]SegmentRow, n)
		gids := make([]int, n)
		g := 0
		for i := range evs {
			evs[i] = mergeEvent(rng, row+i)
			rows[i] = SegmentRow{Event: &evs[i]}
			if gaps && rng.Intn(64) == 0 {
				g += 1 + rng.Intn(40)
			}
			gids[i], g = g, g+1
		}
		row += n
		span := int64(g)
		if gaps && rng.Intn(3) == 0 {
			span += 1 + int64(rng.Intn(5))
		}
		info, err := WriteSegment(filepath.Join(dir, SegmentName(s)), 4, sparseSource{sliceSource{rows}, gids})
		if err != nil {
			tb.Fatal(err)
		}
		metas = append(metas, SegmentMeta{
			Seq: s, Level: rng.Intn(3), Rows: int64(n), StartRow: next, EndRow: next + span,
			MinTime: info.MinTime, MaxTime: info.MaxTime, Bytes: info.Bytes,
		})
		next += span
		if gaps && rng.Intn(3) == 0 {
			next += 1 + int64(rng.Intn(100))
		}
	}
	return metas
}

// TestSegmentWriterMatchesReference: the segment writer's image and info
// equal the whole-run encoder's for every seed shape.
func TestSegmentWriterMatchesReference(t *testing.T) {
	for name, src := range segmentSeeds() {
		img, info := encodeSegment(4, src)
		want, winfo := refEncodeSegment(4, src)
		if !bytes.Equal(img, want) || info != winfo {
			t.Errorf("%s: writer image of %d bytes (%+v), reference %d (%+v)", name, len(img), info, len(want), winfo)
		}
	}
}

// TestMergeSegmentsMatchesMaterialized: over random runs of one to five
// inputs, with retention gaps inside and between them, short last blocks,
// and a finish that names paths or none, the streamed merge writes the
// materialized merge's image byte for byte and returns its meta.
func TestMergeSegmentsMatchesMaterialized(t *testing.T) {
	sizes := []int{1, 7, segBlockRows - 1, segBlockRows, segBlockRows + 1, 2 * segBlockRows, 1300}
	for c := range 50 {
		rng := rand.New(rand.NewSource(int64(c)))
		counts := make([]int, 1+rng.Intn(5))
		for i := range counts {
			counts[i] = sizes[rng.Intn(len(sizes))]
		}
		dir := t.TempDir()
		metas := writeMergeInputs(t, rng, dir, counts, c%5 != 0)
		var finish func(gid int64, e *event.Event)
		if c%2 == 0 {
			finish = func(gid int64, e *event.Event) {
				if e.FilePath == "" && gid%3 != 0 {
					e.FilePath = fmt.Sprintf("/named/%d", gid%5)
				}
			}
		}
		got, err := MergeSegments(dir, metas, 100, 4, finish, nil)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		want, err := refMergeSegments(dir, metas, 101, 4, finish)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		gotImg, err1 := os.ReadFile(filepath.Join(dir, SegmentName(100)))
		wantImg, err2 := os.ReadFile(filepath.Join(dir, SegmentName(101)))
		if err1 != nil || err2 != nil {
			t.Fatalf("case %d: %v %v", c, err1, err2)
		}
		want.Seq = got.Seq
		if got != want || !bytes.Equal(gotImg, wantImg) {
			t.Fatalf("case %d (inputs %v): merged %+v in %d bytes, materialized %+v in %d",
				c, counts, got, len(gotImg), want, len(wantImg))
		}
	}
}

// mergeFixture writes four 24 000-row segments, a compaction's run on
// cold_history's scale, and returns their metas.
func mergeFixture(tb testing.TB, dir string) ([]SegmentMeta, int) {
	const segs, rows = 4, 24000
	counts := []int{rows, rows, rows, rows}
	return writeMergeInputs(tb, rand.New(rand.NewSource(1)), dir, counts, false), segs * rows
}

// TestMergeSegmentsAllocatesPerBlock: a merge allocates the input and output
// images and a block's buffers, not the run: at most 200 B a row over four
// 24 000-row inputs. Holding the run as events costs about eight times that.
func TestMergeSegmentsAllocatesPerBlock(t *testing.T) {
	dir := t.TempDir()
	metas, rows := mergeFixture(t, dir)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := MergeSegments(dir, metas, 10, 4, nil, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); perRow > 200 {
		t.Fatalf("merge allocated %.0f B/row, want at most 200", perRow)
	}
}

// BenchmarkMergeSegments merges four 24 000-row segments per op and reports
// ns/row and B/row (allocated bytes per merged row).
func BenchmarkMergeSegments(b *testing.B) {
	dir := b.TempDir()
	metas, rows := mergeFixture(b, dir)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeSegments(dir, metas, 10, 4, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
}
