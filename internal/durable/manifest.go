package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// ManifestName is the per-index manifest file, the single commit point for
// the snapshot protocol: whichever (segments, WAL) set it names is the
// recovery source; everything else in the directory is an orphan from an
// interrupted snapshot or compaction and is ignored, then cleaned.
const ManifestName = "MANIFEST"

// manifestVersion is the manifest schema this build reads and writes (the
// leveled segment list). LoadManifest rejects any other version.
const manifestVersion = 2

// ErrManifestVersion reports a manifest whose schema version this build does
// not read. Recovery fails rather than guess at the layout it names.
var ErrManifestVersion = errors.New("durable: unsupported manifest version")

// SegmentMeta describes one committed immutable segment in the leveled
// layout. Segments are listed in ascending row order; StartRow is the global
// row id of the segment's first row, and EndRow is one past its last.
// Rows may be less than EndRow-StartRow when retention or compaction left
// interior gaps (the file encodes explicit per-row ids, so sparse segments
// are first-class).
type SegmentMeta struct {
	Seq      int   `json:"seq"`
	Level    int   `json:"level"`
	Rows     int64 `json:"rows"`
	StartRow int64 `json:"start_row"`
	EndRow   int64 `json:"end_row"`
	// MinTime/MaxTime bound time_enter_ns over the segment's timed rows,
	// the basis for query-time segment pruning. An empty range
	// (MinTime > MaxTime) means no row carries a numeric time.
	MinTime int64 `json:"min_time"`
	MaxTime int64 `json:"max_time"`
	Bytes   int64 `json:"bytes"`
}

// Manifest names the committed recovery sources of one index directory.
type Manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	WALSeq  int `json:"wal_seq"`
	// SegmentSeq is the next unused segment sequence number: every committed
	// segment's Seq is below it, and new segments (flush or compaction
	// output) claim it and increment.
	SegmentSeq int `json:"segment_seq"`
	// Segments is the leveled segment list in ascending StartRow order.
	// Committing a manifest with a changed list is the atomic multi-segment
	// commit point: flushes append one entry, compactions replace a run with
	// its merged output, retention deletes a prefix.
	Segments []SegmentMeta `json:"segments,omitempty"`
	// BaseSeq is the replication sequence number of the live WAL's first
	// record: every record folded into committed segments has a sequence
	// below it. The index head sequence is BaseSeq plus the live WAL's record
	// count, which is how recovery re-derives it without a full history.
	// Manifests written before replication existed carry 0, which is exactly
	// right — their WAL has held every record since sequence zero. A
	// follower numbers its records as its primary does.
	BaseSeq int64 `json:"base_seq,omitempty"`
	// RetentionFloor is one past the highest row id ever dropped by the
	// retention horizon. Rows at or above it are never dropped out from under
	// a paging cursor, which is what lets an unsorted search_after cursor
	// below the floor fail loudly (expired) instead of silently skipping.
	RetentionFloor int64 `json:"retention_floor,omitempty"`
	// Paths is the index's path book: the correlation records journaled so
	// far, oldest first, from which rows materialised out of a segment
	// written before a record's pass take their paths. It rides in the
	// manifest because a snapshot supersedes the WAL that held the records.
	Paths []event.PathsRecord `json:"paths,omitempty"`
}

// SegmentRows sums the row counts of every listed segment (the Σsegments
// term of the recovery conservation invariant).
func (m Manifest) SegmentRows() int64 {
	var n int64
	for _, s := range m.Segments {
		n += s.Rows
	}
	return n
}

// WALName formats the WAL filename for sequence number seq.
func WALName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// SegmentName formats the segment filename for sequence number seq.
func SegmentName(seq int) string { return fmt.Sprintf("seg-%06d.snap", seq) }

// LoadManifest reads the manifest in dir. A missing manifest returns
// (zero manifest, false, nil): the directory is fresh (or a crash happened
// before the first commit) and recovery starts empty with WAL seq 0.
// A manifest of any other schema version fails with ErrManifestVersion. One
// still carrying the pending-rewrite blob of a build that updated rows by
// query, or listing a segment that counts rows of the retired generic block,
// fails with ErrRetiredFormat. The repl_offset of a follower that numbered
// its records from zero is added to BaseSeq: the primary sequence it last
// reported. CommitManifest never writes the key.
func LoadManifest(dir string) (Manifest, bool, error) {
	var m Manifest
	// retired reads the keys of the forms nothing writes any more.
	var retired struct {
		Rewrites   []byte `json:"rewrites"`
		ReplOffset int64  `json:"repl_offset"`
		Segments   []struct {
			Seq     int   `json:"seq"`
			Generic int64 `json:"generic"`
		} `json:"segments"`
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return m, false, nil
		}
		return m, false, fmt.Errorf("durable: read manifest: %w", err)
	}
	for _, v := range []any{&m, &retired} {
		if err := json.Unmarshal(data, v); err != nil {
			return m, false, fmt.Errorf("durable: parse manifest: %w", err)
		}
	}
	if m.Version != manifestVersion {
		return m, false, fmt.Errorf("%w: %d (want %d)", ErrManifestVersion, m.Version, manifestVersion)
	}
	if len(retired.Rewrites) > 0 {
		return m, false, fmt.Errorf("durable: manifest pending rewrites (%d bytes): %w", len(retired.Rewrites), ErrRetiredFormat)
	}
	for _, sm := range retired.Segments {
		if sm.Generic != 0 {
			return m, false, fmt.Errorf("durable: manifest segment %s holds %d generic rows: %w",
				SegmentName(sm.Seq), sm.Generic, ErrRetiredFormat)
		}
	}
	m.BaseSeq += retired.ReplOffset
	return m, true, nil
}

// CommitManifest atomically publishes m as dir's manifest. After it returns,
// a crash at any point recovers from exactly the state m names.
func CommitManifest(dir string, m Manifest) error {
	m.Version = manifestVersion
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("durable: encode manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, ManifestName), data); err != nil {
		return fmt.Errorf("durable: commit manifest: %w", err)
	}
	return nil
}

// CleanOrphans removes files in dir left behind by an interrupted snapshot
// or compaction: segment temporaries, any wal-* whose sequence number is
// neither the committed one nor keepWALSeq (the retired WAL a replicating
// snapshot keeps; -1 keeps none), and any seg-* the manifest's leveled list does not
// reference (e.g. a compaction output written but never committed). Removal
// is best-effort — recovery correctness never depends on it, only disk
// hygiene does. CleanOrphans only ever runs against the committed manifest,
// which lists every live segment; the store's locking protocol makes that
// sufficient: segment-list changes commit while holding the index's snapshot
// gate plus every shard write lock, obsolete files are deleted only after
// those locks are released (so in-flight readers of the old list have
// finished), and replication bootstrap reads segment files while holding
// the gate exclusively, which excludes any concurrent commit or cleanup.
func CleanOrphans(dir string, m Manifest, keepWALSeq int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepWAL, keepRetired := WALName(m.WALSeq), WALName(keepWALSeq) // -1 names no file
	keepSegs := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		keepSegs[SegmentName(s.Seq)] = true
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasPrefix(name, "wal-") && name != keepWAL && name != keepRetired:
		case strings.HasPrefix(name, "seg-") && !keepSegs[name]:
		default:
			continue
		}
		_ = os.Remove(filepath.Join(dir, name))
	}
}
