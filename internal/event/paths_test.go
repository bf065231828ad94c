package event

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func samplePaths() PathsRecord {
	p := PathsRecord{H: 20_023, Session: "fluentbit-buggy", Pairs: []PathPair{
		{Tag: FileTag{Dev: 8, Ino: 42, BirthNS: 1 << 60}, Path: "/var/log/app.log"},
		{Tag: FileTag{Dev: 8, Ino: 40, BirthNS: 1 << 60}, Path: ""},
		{Tag: FileTag{Dev: 7, Ino: 40, BirthNS: -5}, Path: strings.Repeat("/deep", 40)},
	}}
	p.SortPairs()
	return p
}

func TestPathsRecordRoundTripAndLookup(t *testing.T) {
	want := samplePaths()
	got, err := DecodePaths(want.Encode())
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
	}
	for _, pr := range want.Pairs {
		if p, ok := got.Lookup(pr.Tag); !ok || p != pr.Path {
			t.Fatalf("lookup %v = %q, %v; want %q", pr.Tag, p, ok, pr.Path)
		}
	}
	if _, ok := got.Lookup(FileTag{Dev: 8, Ino: 41, BirthNS: 1 << 60}); ok {
		t.Fatal("lookup found a tag the record does not pair")
	}
	empty := PathsRecord{H: 3}
	if back, err := DecodePaths(empty.Encode()); err != nil || !reflect.DeepEqual(back, empty) {
		t.Fatalf("pairless record: %+v, %v", back, err)
	}
	// A pair count the payload cannot hold is refused before anything is
	// allocated for it, and so is a record Lookup could not search.
	huge := binary.LittleEndian.AppendUint32(empty.Encode()[:10], math.MaxUint32)
	if _, err := DecodePaths(huge); !errors.Is(err, ErrBadPathsRecord) {
		t.Fatalf("oversized pair count: %v", err)
	}
	unsorted := want
	unsorted.Pairs = []PathPair{want.Pairs[1], want.Pairs[0]}
	if _, err := DecodePaths(unsorted.Encode()); !errors.Is(err, ErrBadPathsRecord) {
		t.Fatalf("unsorted pairs: %v", err)
	}
}

// FuzzPathsRecord feeds arbitrary bytes to the paths-record decoder: it never
// panics, fails only with ErrBadPathsRecord, and whatever it accepts
// re-encodes to the bytes it came from (the follower's WAL stays the
// primary's suffix because of that).
func FuzzPathsRecord(f *testing.F) {
	valid := samplePaths().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(PathsRecord{}.Encode())
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(valid[:10+len("fluentbit-buggy")], math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodePaths(data)
		if err != nil {
			if !errors.Is(err, ErrBadPathsRecord) {
				t.Fatalf("decode error %v is not ErrBadPathsRecord", err)
			}
			return
		}
		if back := rec.Encode(); string(back) != string(data) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", data, back)
		}
	})
}
