package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestReadWALTailCursorWalk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, []byte("gamma"), []byte("delta")}
	types := []RecordType{RecordEvents, RecordPaths, RecordPaths, RecordEvents, RecordPaths}
	for i, p := range payloads {
		if _, err := w.Append(types[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Walk the log two records at a time; the returned offset is the cursor.
	var got []TailRecord
	off := int64(0)
	for {
		recs, next, err := ReadWALTail(path, off, 2, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			if next != off {
				t.Fatalf("empty read moved cursor %d -> %d", off, next)
			}
			break
		}
		got = append(got, recs...)
		off = next
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if got[i].Type != types[i] || !bytes.Equal(got[i].Payload, payloads[i]) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, got[i].Type, got[i].Payload, types[i], payloads[i])
		}
	}
	// The final cursor is the file size: nothing was skipped or re-read.
	st, err := os.Stat(path)
	if err != nil || off != st.Size() {
		t.Fatalf("cursor %d != file size %d (err=%v)", off, st.Size(), err)
	}
}

func TestReadWALTailStopsAtTornTailWithoutTruncating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := w.Append(RecordEvents, []byte("intact"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(RecordPaths, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the second record mid-payload, as a concurrent append would look.
	if err := os.Truncate(path, int64(n1)+walHeaderLen+3); err != nil {
		t.Fatal(err)
	}
	sizeBefore, _ := os.Stat(path)

	recs, off, err := ReadWALTail(path, 0, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "intact" {
		t.Fatalf("recs = %+v", recs)
	}
	if off != int64(n1) {
		t.Fatalf("cursor %d, want %d (end of last intact record)", off, n1)
	}
	// Crucially, the tail reader must NOT repair the file — the torn bytes may
	// be a live append racing this read.
	sizeAfter, _ := os.Stat(path)
	if sizeAfter.Size() != sizeBefore.Size() {
		t.Fatalf("tail read changed file size %d -> %d", sizeBefore.Size(), sizeAfter.Size())
	}

	// Retrying from the cursor after the "append" completes sees the record.
	if err := os.Truncate(path, int64(n1)); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Append(RecordPaths, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, off2, err := ReadWALTail(path, off, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 1 || string(recs2[0].Payload) != "in flight" || off2 <= off {
		t.Fatalf("resume read = %+v off=%d", recs2, off2)
	}
}

func TestReadWALTailMissingFile(t *testing.T) {
	recs, off, err := ReadWALTail(filepath.Join(t.TempDir(), "nope.log"), 42, 10, 1<<20)
	if err != nil || recs != nil || off != 42 {
		t.Fatalf("recs=%v off=%d err=%v", recs, off, err)
	}
}

func TestReadWALTailByteBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(RecordEvents, big); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Budget below one payload still yields one record (progress guarantee),
	// a 1500-byte budget yields two.
	recs, _, err := ReadWALTail(path, 0, 100, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("tiny budget: %d records err=%v", len(recs), err)
	}
	recs, _, err = ReadWALTail(path, 0, 100, 1500)
	if err != nil || len(recs) != 2 {
		t.Fatalf("1500B budget: %d records err=%v", len(recs), err)
	}
}
