package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/durable/durabletest"
	"github.com/dsrhaslab/dio-go/internal/event"
)

func testEvent(i int) event.Event {
	return event.Event{
		Session:     "sess",
		Syscall:     "pwrite64",
		Class:       "write",
		RetVal:      int64(i),
		FD:          3,
		ArgPath:     "/var/log/app.log",
		Count:       4096,
		ArgOff:      int64(i) * 4096,
		PID:         1234,
		TID:         1234 + i,
		ProcName:    "app",
		ThreadName:  "worker",
		TimeEnterNS: 1700000000000000000 + int64(i)*1000, // > 2^53: must survive exactly
		TimeExitNS:  1700000000000000000 + int64(i)*1000 + 500,
		FileTag:     event.FileTag{Dev: 0x801, Ino: uint64(100 + i), BirthNS: 42},
		FileType:    "regular",
		Offset:      int64(i) * 4096,
		HasOffset:   true,
		KernelPath:  "/var/log/app.log",
		FilePath:    "/var/log/app.log",
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, []byte("gamma")}
	types := []RecordType{RecordEvents, RecordPaths, RecordPaths, RecordEvents}
	total := 0
	for i, p := range payloads {
		n, err := w.Append(types[i], p)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if w.Size() != int64(total) {
		t.Fatalf("size %d != appended %d", w.Size(), total)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(RecordEvents, []byte("x")); err == nil {
		t.Fatal("append after close should fail")
	}
	var gotT []RecordType
	var gotP [][]byte
	stats, err := ReplayWAL(path, func(rt RecordType, payload []byte) error {
		gotT = append(gotT, rt)
		gotP = append(gotP, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Torn || stats.Records != len(payloads) || stats.Bytes != int64(total) {
		t.Fatalf("stats = %+v", stats)
	}
	if !reflect.DeepEqual(gotT, types) {
		t.Fatalf("types %v != %v", gotT, types)
	}
	for i := range payloads {
		if !bytes.Equal(gotP[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	// A torn tail of every flavor: short header, short payload, corrupt CRC.
	cases := []struct {
		name string
		tear func(t *testing.T, path string, goodEnd int64)
	}{
		{"short-header", func(t *testing.T, path string, goodEnd int64) {
			if err := os.Truncate(path, goodEnd+3); err != nil {
				t.Fatal(err)
			}
		}},
		{"short-payload", func(t *testing.T, path string, goodEnd int64) {
			if err := os.Truncate(path, goodEnd+walHeaderLen+2); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-crc", func(t *testing.T, path string, goodEnd int64) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[goodEnd+walHeaderLen] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal-000000.log")
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			n1, err := w.Append(RecordEvents, []byte("keep me"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(RecordPaths, []byte("tear me apart")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(t, path, int64(n1))

			var got [][]byte
			stats, err := ReplayWAL(path, func(rt RecordType, payload []byte) error {
				got = append(got, bytes.Clone(payload))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Torn || stats.Records != 1 || stats.Bytes != int64(n1) {
				t.Fatalf("stats = %+v, want torn with 1 record at %d", stats, n1)
			}
			if len(got) != 1 || string(got[0]) != "keep me" {
				t.Fatalf("replayed %q", got)
			}
			// Truncation repaired the file: a second replay sees a clean log,
			// and appending continues from the intact boundary.
			stats2, err := ReplayWAL(path, func(RecordType, []byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if stats2.Torn || stats2.Records != 1 {
				t.Fatalf("post-repair stats = %+v", stats2)
			}
			w2, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w2.Append(RecordEvents, []byte("after repair")); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			stats3, err := ReplayWAL(path, func(RecordType, []byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if stats3.Torn || stats3.Records != 2 {
				t.Fatalf("post-append stats = %+v", stats3)
			}
		})
	}
}

func TestWALReplayMissingFile(t *testing.T) {
	stats, err := ReplayWAL(filepath.Join(t.TempDir(), "nope.log"), func(RecordType, []byte) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if err != nil || stats.Records != 0 || stats.Torn {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
}

func TestWALReplayCallbackErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	w, _ := OpenWAL(path)
	w.Append(RecordEvents, []byte("a"))
	w.Append(RecordEvents, []byte("b"))
	w.Close()
	boom := errors.New("boom")
	calls := 0
	_, err := ReplayWAL(path, func(RecordType, []byte) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// sliceSource adapts a row slice to RowSource.
type sliceSource struct {
	rows []SegmentRow
}

func (s sliceSource) NumRows() int         { return len(s.rows) }
func (s sliceSource) Row(i int) SegmentRow { return s.rows[i] }

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(1))
	evs := make([]event.Event, 5)
	for i := range evs {
		evs[i] = testEvent(i)
	}
	evs[2].HasOffset = false
	evs[2].Offset = 0
	evs[3].ArgPath2 = "/tmp/renamed"
	rows := make([]SegmentRow, len(evs))
	for i := range evs {
		rows[i] = SegmentRow{Event: &evs[i]}
	}
	winfo, err := WriteSegment(path, 8, sliceSource{rows})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != winfo.Bytes {
		t.Fatalf("size %d on disk vs %d reported (err=%v)", st.Size(), winfo.Bytes, err)
	}
	if winfo.MinTime != evs[0].TimeEnterNS || winfo.MaxTime != evs[4].TimeEnterNS {
		t.Fatalf("time range [%d, %d], want [%d, %d]",
			winfo.MinTime, winfo.MaxTime, evs[0].TimeEnterNS, evs[4].TimeEnterNS)
	}

	var got []event.Event
	info, err := ReadSegment(path, func(gid int, ev *event.Event, doc []byte) error {
		if gid != len(got) || doc != nil {
			t.Fatalf("row %d: gid %d, doc %q", len(got), gid, doc)
		}
		got = append(got, *ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 8 || info.Rows != 5 {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("rows did not round-trip:\n got %+v\nwant %+v", got, evs)
	}
}

// TestSegmentGenericFormRetired: a segment image carrying rows of the retired
// generic block is refused with ErrRetiredFormat — not as corruption — by
// OpenSegment and ReadSegment, and a manifest whose segment entry counts
// generic rows is refused by LoadManifest without opening the file.
func TestSegmentGenericFormRetired(t *testing.T) {
	dir := t.TempDir()
	ev := testEvent(0)
	img, _ := encodeSegment(4, sliceSource{[]SegmentRow{{Event: &ev}}})
	path := filepath.Join(dir, SegmentName(1))
	if err := os.WriteFile(path, durabletest.WithGenericRows(img, []byte("generic-one")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("OpenSegment: %v, want ErrRetiredFormat alone", err)
	}
	if _, err := ReadSegment(path, func(int, *event.Event, []byte) error { return nil }); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("ReadSegment: %v, want ErrRetiredFormat", err)
	}

	counted := `{"version":2,"shards":4,"wal_seq":2,"segment_seq":2,"segments":[` +
		`{"seq":1,"level":0,"rows":2,"start_row":0,"end_row":2,"min_time":0,"max_time":0,"bytes":900,"generic":1}]}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(counted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadManifest(dir); ok || !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), SegmentName(1)) {
		t.Fatalf("LoadManifest: ok=%v err=%v, want ErrRetiredFormat naming %s", ok, err, SegmentName(1))
	}
}

func TestSegmentEmptyAndAllTyped(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, SegmentName(1))
	if _, err := WriteSegment(empty, 4, sliceSource{}); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSegment(empty, func(int, *event.Event, []byte) error {
		t.Fatal("no rows expected")
		return nil
	})
	if err != nil || info.Rows != 0 || info.Shards != 4 {
		t.Fatalf("info=%+v err=%v", info, err)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(1))
	ev := testEvent(0)
	if _, err := WriteSegment(path, 4, sliceSource{[]SegmentRow{{Event: &ev}}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func([]byte) []byte{
		"flip-body-byte": func(d []byte) []byte { d[segHeaderLen+2] ^= 0x55; return d },
		"truncate":       func(d []byte) []byte { return d[:len(d)/2] },
		"too-short":      func(d []byte) []byte { return d[:6] },
		// A well-formed file of another format version: the checksum is
		// recomputed so the version byte alone is what the reader rejects.
		"unknown-version": func(d []byte) []byte {
			d[segMagicLen] = segVersion - 1
			return restamp(d)
		},
		// Likewise re-stamped, so each reaches the structural check it names.
		// Row counts that add up only by wrapping around:
		"row-counts-wrap": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[segMagicLen+1+4+8:], math.MaxUint64) // typed
			binary.LittleEndian.PutUint64(d[segMagicLen+1+4+16:], 2)             // generic
			return restamp(d)
		},
		// Row counts that add up but that the file's bytes cannot hold:
		"row-counts-unbacked": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[segMagicLen+1+4:], 1<<31)
			binary.LittleEndian.PutUint64(d[segMagicLen+1+4+8:], 1<<31)
			return restamp(d)
		},
		"string-offsets-out-of-order": func(d []byte) []byte {
			firstTable := segHeaderLen + segRowMin - 4*segStringCount // one typed row
			binary.LittleEndian.PutUint32(d[firstTable:], 1<<20)
			return restamp(d)
		},
		"trailing-bytes": func(d []byte) []byte {
			return restamp(append(d[:len(d)-4], 0, 0, 0, 0, 0, 0, 0))
		},
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(dir, name+".snap")
			if err := os.WriteFile(bad, mut(bytes.Clone(data)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadSegment(bad, func(int, *event.Event, []byte) error { return nil })
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("err = %v, want ErrCorruptSegment", err)
			}
		})
	}
}

func TestManifestLifecycle(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); ok || err != nil {
		t.Fatalf("fresh dir: ok=%v err=%v", ok, err)
	}
	m := Manifest{
		Version: 2, Shards: 8, WALSeq: 3, SegmentSeq: 3,
		Segments: []SegmentMeta{{Seq: 2, Rows: 5, StartRow: 0, EndRow: 5, MinTime: 10, MaxTime: 20}},
	}
	if err := CommitManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok || !reflect.DeepEqual(got, m) {
		t.Fatalf("got=%+v ok=%v err=%v", got, ok, err)
	}
	// Orphans from an interrupted snapshot: stale wal, stale seg, tmp file.
	for _, name := range []string{WALName(2), SegmentName(1), SegmentName(3) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{WALName(3), SegmentName(2)} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("live"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	CleanOrphans(dir, m)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{ManifestName, SegmentName(2), WALName(3)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after clean: %v, want %v", names, want)
	}
}

func TestManifestUnknownVersionRejected(t *testing.T) {
	for name, body := range map[string]string{
		"v1":      `{"version":1,"shards":8,"wal_seq":3,"segment_seq":2,"has_segment":true}`,
		"future":  `{"version":3,"shards":8,"wal_seq":3,"segment_seq":2}`,
		"missing": `{"shards":8,"wal_seq":3,"segment_seq":2}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := LoadManifest(dir); ok || !errors.Is(err, ErrManifestVersion) {
			t.Errorf("%s: ok=%v err=%v, want ErrManifestVersion", name, ok, err)
		}
	}
}

func TestManifestCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest should be an error, not a fresh start")
	}
}
