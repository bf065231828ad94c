package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
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
	long.ArgPath = strings.Repeat("/deep", 40) // past the 64-byte intern limit
	long.KernelPath = long.ArgPath
	noOffset := testEvent(2)
	noOffset.HasOffset, noOffset.Offset = false, 0
	mixed := events(3)
	mixed = append(mixed[:1], append([]SegmentRow{{Doc: []byte("generic-one")}}, mixed[1:]...)...)
	mixed = append(mixed, SegmentRow{Doc: nil})
	return map[string]RowSource{
		"dense":         sliceSource{events(40)},
		"sparse-gid":    sparseSource{sliceSource{events(4)}, []int{0, 3, 4, 900}},
		"empty":         sliceSource{},
		"one-row":       sliceSource{events(1)},
		"empty-strings": sliceSource{[]SegmentRow{{Event: &event.Event{}}, {Event: &event.Event{TimeEnterNS: -1}}}},
		"long-strings":  sliceSource{[]SegmentRow{{Event: &long}, {Event: &noOffset}, {Event: &long}}},
		"with-generic":  sliceSource{mixed},
	}
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

func selectAll(r *SegmentReader) []int {
	sel := make([]int, r.Info().Typed)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// TestSegmentReaderSelectsRows: for every seed shape, selecting every row
// returns exactly the typed rows written, with their ids and times readable
// without a decode, and any subset, in any order, decodes to the matching
// rows of that.
func TestSegmentReaderSelectsRows(t *testing.T) {
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
				if ev := src.Row(i).Event; ev != nil {
					want = append(want, *ev)
					gid := i
					if gs, ok := src.(GidSource); ok {
						gid = gs.Gid(i)
					}
					wantGids = append(wantGids, gid)
				}
			}
			all := r.Decode(selectAll(r))
			if len(all) != len(want) || (len(want) > 0 && !reflect.DeepEqual(all, want)) {
				t.Fatalf("select-all decoded\n %+v\nwritten\n %+v", all, want)
			}
			var sel []int
			for i := range all {
				if r.Gid(i) != wantGids[i] || r.Time(i) != want[i].TimeEnterNS {
					t.Fatalf("row %d: gid %d time %d, want %d %d", i, r.Gid(i), r.Time(i), wantGids[i], want[i].TimeEnterNS)
				}
				if i%3 != 1 {
					sel = append([]int{i}, sel...) // descending
				}
			}
			for k, ev := range r.Decode(sel) {
				if !reflect.DeepEqual(ev, want[sel[k]]) {
					t.Fatalf("subset row %d (segment row %d) = %+v, want %+v", k, sel[k], ev, want[sel[k]])
				}
			}
		})
	}
}

// FuzzSegmentReader feeds arbitrary bytes — seeded with WriteSegment's images
// of every seed shape, tried both as given and with the checksum re-stamped
// so mutations reach the structural checks — to the segment reader. The
// invariants: an image either fails with ErrCorruptSegment or opens; an opened
// image's row counts are backed by its bytes (nothing allocates on a number
// the file made up); every accessor and any row selection runs without a
// panic; a subset decodes to exactly the matching rows of select-all; and
// re-encoding what was decoded yields an image that decodes to the same rows.
func FuzzSegmentReader(f *testing.F) {
	for _, src := range segmentSeeds() {
		img, _ := encodeSegment(4, src)
		f.Add(img, uint64(0x5555_5555_5555_5555))
		f.Add(img[:len(img)/2], uint64(1))
	}
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, pick uint64) {
		for _, img := range [][]byte{data, restamp(data)} {
			r, err := openSegmentImage(img)
			if err != nil {
				if !errors.Is(err, ErrCorruptSegment) {
					t.Fatalf("error %v is not ErrCorruptSegment", err)
				}
				continue
			}
			info := r.Info()
			if info.Typed < 0 || info.Generic < 0 || info.Rows != info.Typed+info.Generic ||
				info.Typed*segTypedRowMin+info.Generic*segGenericMin > len(img) {
				t.Fatalf("row counts %+v not backed by %d bytes", info, len(img))
			}
			all := r.Decode(selectAll(r))
			var sel []int
			for i := range all {
				if r.Time(i) != all[i].TimeEnterNS {
					t.Fatalf("row %d: time column %d, decoded %d", i, r.Time(i), all[i].TimeEnterNS)
				}
				if pick>>(uint(i)%64)&1 == 1 {
					sel = append(sel, i)
				}
			}
			if pick&2 != 0 { // and in descending order
				for a, b := 0, len(sel)-1; a < b; a, b = a+1, b-1 {
					sel[a], sel[b] = sel[b], sel[a]
				}
			}
			for k, ev := range r.Decode(sel) {
				if !reflect.DeepEqual(ev, all[sel[k]]) {
					t.Fatalf("subset row %d (segment row %d) = %+v, select-all has %+v", k, sel[k], ev, all[sel[k]])
				}
			}
			// Write back what was read — typed rows, then generic ones, under
			// the ids the image gave them — and read that.
			back := sparseSource{}
			for i := range all {
				back.rows = append(back.rows, SegmentRow{Event: &all[i]})
				back.gids = append(back.gids, r.Gid(i))
			}
			if err := r.eachGeneric(func(gid int, doc []byte) error {
				back.rows = append(back.rows, SegmentRow{Doc: doc})
				back.gids = append(back.gids, gid)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			img2, _ := encodeSegment(info.Shards, back)
			r2, err := openSegmentImage(img2)
			if err != nil {
				t.Fatalf("re-encoded image does not open: %v", err)
			}
			all2 := r2.Decode(selectAll(r2))
			if len(all2) != len(all) || (len(all) > 0 && !reflect.DeepEqual(all2, all)) {
				t.Fatalf("re-encoded image decodes to different rows")
			}
			for i := range all2 {
				if r2.Gid(i) != r.Gid(i) {
					t.Fatalf("re-encoded row %d has gid %d, was %d", i, r2.Gid(i), r.Gid(i))
				}
			}
		}
	})
}
