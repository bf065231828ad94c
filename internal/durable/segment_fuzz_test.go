package durable

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// sparseSource is a sliceSource whose rows carry explicit ascending ids, as a
// compaction over a retention gap writes them.
type sparseSource struct {
	sliceSource
	gids []int
}

func (s sparseSource) Gid(i int) int { return s.gids[i] }

// segmentSeeds are the row shapes the reader must round-trip, by name.
func segmentSeeds() map[string]RowSource {
	events := func(n int) []SegmentRow {
		rows := make([]SegmentRow, n)
		for i := range rows {
			e := testEvent(i)
			rows[i] = SegmentRow{Event: &e}
		}
		return rows
	}
	long := testEvent(1)
	long.ArgPath = strings.Repeat("/deep", 40) // a literal length past one varint byte
	long.KernelPath = long.ArgPath
	noOffset := testEvent(2)
	noOffset.HasOffset, noOffset.Offset = false, 0
	return map[string]RowSource{
		"dense":         sliceSource{events(40)},
		"two-blocks":    sliceSource{events(segBlockRows + 1)},
		"sparse-gid":    sparseSource{sliceSource{events(4)}, []int{0, 3, 4, 900}}, // three runs
		"empty":         sliceSource{},
		"one-row":       sliceSource{events(1)},
		"empty-strings": sliceSource{[]SegmentRow{{Event: &event.Event{}}, {Event: &event.Event{TimeEnterNS: -1}}}},
		"long-strings":  sliceSource{[]SegmentRow{{Event: &long}, {Event: &noOffset}, {Event: &long}}},
	}
}

// v2Segment is a three-row segment in the retired columnar version-2 layout,
// byte for byte as the last build that wrote it encoded it: an openat, a
// 4-byte write and a close of /d by pid 7 ("app") in session s1. The same
// image is frozen in internal/store, for TestRetiredV2Segment and
// TestRetiredFormatsRejected.
const v2Segment = "44494f530201000000030000000000000003000000000000000000000000000000e8030000000000" +
	"00b80b00000000000000000000000000000100000000000000020000000000000003000000000000" +
	"00040000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"00e803000000000000d007000000000000b80b000000000000b004000000000000c4090000000000" +
	"001c0c00000000000000000000000000000000000000000000000000000000000000000000000000" +
	"00000000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"00000000000000000000000000000000000000000000000000070000000700000007000000070000" +
	"0007000000070000009cffffff030000000300000000000000040000000000000000000000000000" +
	"00000000000000000000000000000000000000000000000000000000000001000000000002000000" +
	"040000000600000073317331733100000000060000000b000000100000006f70656e617477726974" +
	"65636c6f73650000000004000000080000000c0000006d657461646174616d657461000000000300" +
	"00000600000009000000617070617070617070000000000000000000000000000000000000000002" +
	"00000002000000020000002f64000000000000000000000000000000000000000000000000000000" +
	"00000000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000000000002000000040000002f642f642bccedd4"

func v2Image() []byte {
	img, err := hex.DecodeString(v2Segment)
	if err != nil {
		panic(err)
	}
	return img
}

// restamp returns img with its trailing CRC recomputed, so a mutated body
// reaches the checks behind the checksum.
func restamp(img []byte) []byte {
	if len(img) < 4 {
		return img
	}
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crcTable))
	return out
}

// checkWindow fails t unless r.Rows(lo, hi) is exactly the rows of all, with
// their ids gids, whose time lies in [lo, hi].
func checkWindow(t *testing.T, r *SegmentReader, all []event.Event, gids []int, lo, hi int64) {
	t.Helper()
	got, gotGids, err := r.Rows(lo, hi)
	if err != nil {
		t.Fatalf("window [%d, %d]: %v", lo, hi, err)
	}
	var want []event.Event
	var wantGids []int
	for i := range all {
		if ts := all[i].TimeEnterNS; ts >= lo && ts <= hi {
			want, wantGids = append(want, all[i]), append(wantGids, gids[i])
		}
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) || !slices.Equal(gotGids, wantGids) {
		t.Fatalf("window [%d, %d]: %d rows with ids %v, want %d with %v", lo, hi, len(got), gotGids, len(want), wantGids)
	}
}

// TestSegmentReaderSelectsRows: for every seed shape, Rows over every block
// returns exactly the rows written, with their ids, and Rows over a window
// returns exactly those of them whose time lies in it. The frozen columnar
// image is refused as retired, not as corrupt.
func TestSegmentReaderSelectsRows(t *testing.T) {
	t.Run("retired-v2", func(t *testing.T) {
		if r, err := openSegmentImage(v2Image()); !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("opened %v, err %v; want ErrRetiredFormat alone", r, err)
		}
	})
	for name, src := range segmentSeeds() {
		t.Run(name, func(t *testing.T) {
			img, winfo := encodeSegment(4, src)
			r, err := openSegmentImage(img)
			if err != nil {
				t.Fatal(err)
			}
			if r.Info() != winfo {
				t.Fatalf("info read %+v, written %+v", r.Info(), winfo)
			}
			var want []event.Event
			var wantGids []int
			for i := 0; i < src.NumRows(); i++ {
				want = append(want, *src.Row(i).Event)
				gid := i
				if gs, ok := src.(GidSource); ok {
					gid = gs.Gid(i)
				}
				wantGids = append(wantGids, gid)
			}
			all, gids, err := r.Rows(math.MinInt64, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(want) || (len(want) > 0 && !reflect.DeepEqual(all, want)) || !slices.Equal(gids, wantGids) {
				t.Fatalf("all rows decoded\n %+v %v\nwritten\n %+v %v", all, gids, want, wantGids)
			}
			for i := range all {
				lo, hi := all[i].TimeEnterNS, all[(7*i+3)%len(all)].TimeEnterNS
				checkWindow(t, r, all, gids, min(lo, hi), max(lo, hi))
			}
		})
	}
}

// FuzzSegmentReader feeds arbitrary bytes — seeded with WriteSegment's images
// of every seed shape and with the frozen columnar image, tried both as given
// and with the checksum re-stamped so mutations reach the structural checks —
// to the segment reader. The invariants: an image either fails with
// ErrCorruptSegment or ErrRetiredFormat, or opens; an opened image's row
// count is backed by its bytes (nothing allocates on a number the file made
// up); Rows over every block either fails with ErrCorruptSegment or returns
// exactly that many rows, inside the header's time range, under strictly
// ascending ids; Rows over a window returns exactly the rows of that inside
// it; and re-encoding what was read yields an image that reads the same.
func FuzzSegmentReader(f *testing.F) {
	for _, src := range segmentSeeds() {
		img, _ := encodeSegment(4, src)
		f.Add(img, uint64(0x5555_5555_5555_5555))
		f.Add(img[:len(img)/2], uint64(1))
	}
	v2 := v2Image()
	if _, err := openSegmentImage(v2); !errors.Is(err, ErrRetiredFormat) {
		f.Fatalf("frozen v2 image: %v, want ErrRetiredFormat", err)
	}
	f.Add(v2, uint64(0x5555_5555_5555_5555))
	f.Add(v2[:len(v2)/2], uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, pick uint64) {
		for _, img := range [][]byte{data, restamp(data)} {
			r, err := openSegmentImage(img)
			if err != nil {
				if !errors.Is(err, ErrCorruptSegment) && !errors.Is(err, ErrRetiredFormat) {
					t.Fatalf("error %v is neither ErrCorruptSegment nor ErrRetiredFormat", err)
				}
				continue
			}
			info := r.Info()
			if info.Rows < 0 || info.Rows*segMinRowLen > len(img) {
				t.Fatalf("row count %+v not backed by %d bytes", info, len(img))
			}
			all, gids, err := r.Rows(math.MinInt64, math.MaxInt64)
			if err != nil {
				if !errors.Is(err, ErrCorruptSegment) {
					t.Fatalf("Rows error %v is not ErrCorruptSegment", err)
				}
				continue
			}
			if len(all) != info.Rows || len(gids) != len(all) {
				t.Fatalf("read %d rows and %d ids of %d", len(all), len(gids), info.Rows)
			}
			for i := range all {
				if ts := all[i].TimeEnterNS; ts < info.MinTime || ts > info.MaxTime {
					t.Fatalf("row %d at %d, outside the header's [%d, %d]", i, ts, info.MinTime, info.MaxTime)
				}
				if i > 0 && gids[i] <= gids[i-1] {
					t.Fatalf("row %d has id %d after %d", i, gids[i], gids[i-1])
				}
			}
			if n := uint64(len(all)); n > 0 {
				lo, hi := all[pick%n].TimeEnterNS, all[(pick>>32)%n].TimeEnterNS
				checkWindow(t, r, all, gids, min(lo, hi), max(lo, hi))
			}
			// Write back what was read, under the ids the image gave the
			// rows, and read that.
			back := sparseSource{gids: gids}
			for i := range all {
				back.rows = append(back.rows, SegmentRow{Event: &all[i]})
			}
			img2, _ := encodeSegment(info.Shards, back)
			r2, err := openSegmentImage(img2)
			if err != nil {
				t.Fatalf("re-encoded image does not open: %v", err)
			}
			all2, gids2, err := r2.Rows(math.MinInt64, math.MaxInt64)
			if err != nil || len(all2) != len(all) || (len(all) > 0 && !reflect.DeepEqual(all2, all)) || !slices.Equal(gids2, gids) {
				t.Fatalf("re-encoded image reads differently (%v)", err)
			}
		}
	})
}
