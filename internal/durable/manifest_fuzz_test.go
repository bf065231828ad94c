package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// FuzzManifest feeds arbitrary bytes to LoadManifest, seeded with a committed
// manifest carrying a path book and with one of the parent format carrying a
// pending-rewrite blob. It never panics; the retired form fails typed;
// whatever loads commits and loads back equal.
func FuzzManifest(f *testing.F) {
	book, err := json.Marshal(Manifest{
		Version: manifestVersion, Shards: 4, WALSeq: 2, SegmentSeq: 3, BaseSeq: 9, RetentionFloor: 5,
		Segments: []SegmentMeta{{Seq: 2, Level: 1, Rows: 12, StartRow: 5, EndRow: 17, MinTime: 10, MaxTime: 20, Bytes: 900}},
		Paths: []event.PathsRecord{
			{H: 20_023, Session: "fluentbit-buggy", Pairs: []event.PathPair{
				{Tag: event.FileTag{Dev: 7, Ino: 40, BirthNS: -5}, Path: "/var/log/\xffapp.log"}, // not UTF-8: kept byte for byte
				{Tag: event.FileTag{Dev: 8, Ino: 42, BirthNS: 1 << 60}},
			}},
			{H: 30_000},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	retired := []byte(`{"version":2,"shards":4,"wal_seq":1,"segment_seq":1,"rewrites":"AgAAAAEAAAAAAAAA"}`)
	f.Add(book)
	f.Add(retired)
	f.Add([]byte(`{"version":2,"paths":["//////////8AAAAAAAA="]}`)) // a negative horizon
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{not json`))
	load := func(t testing.TB, data []byte) (Manifest, bool, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadManifest(dir)
	}
	if _, ok, err := load(f, retired); ok || !errors.Is(err, ErrRetiredFormat) {
		f.Fatalf("manifest with a rewrites blob: %v, %v; want ErrRetiredFormat", ok, err)
	}
	if m, ok, err := load(f, book); !ok || err != nil || len(m.Paths) != 2 || m.Paths[0].Pairs[0].Path != "/var/log/\xffapp.log" {
		f.Fatalf("manifest with a path book: %+v, %v, %v", m.Paths, ok, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok, err := load(t, data)
		if !ok || err != nil {
			if ok || err == nil {
				t.Fatalf("load answered ok=%v with error %v", ok, err)
			}
			return
		}
		dir := t.TempDir()
		if err := CommitManifest(dir, m); err != nil {
			t.Fatalf("commit of a parsed manifest: %v", err)
		}
		back, ok, err := LoadManifest(dir)
		if err != nil || !ok {
			t.Fatalf("parsed manifest did not load back after commit: %v, %v", ok, err)
		}
		// Compared as committed bytes: an empty list parses non-nil and loads
		// back nil.
		m.Version = manifestVersion
		want, _ := json.Marshal(m)
		if got, _ := json.Marshal(back); string(got) != string(want) {
			t.Fatalf("manifest changed across commit and load:\n got %s\nwant %s", got, want)
		}
	})
}
