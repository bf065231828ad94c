// Package durable is the store's persistence layer: a per-index append-only
// write-ahead log for event batches and correlation's path dictionaries, plus
// segment snapshots and the manifest that makes snapshot→WAL
// handoff crash-atomic. The store (internal/store) owns placement and
// locking; this package owns bytes on disk and their integrity.
//
// The durability contract mirrors the role Elasticsearch's translog +
// Lucene segments play in the paper's deployment (§II-F): every acknowledged
// write is re-derivable after a crash from (segment, WAL suffix), torn WAL
// tails are detected by per-record CRCs and truncated, and partially written
// segments are never trusted because the manifest — renamed into place
// atomically — is the only commit point.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// RecordType tags one WAL record's payload encoding.
type RecordType uint8

const (
	// RecordRetiredEventsV1 is an event batch in the fixed-layout version-1
	// frame, and RecordRetiredDocs and RecordRetiredRewrite the gob-encoded
	// document batch and rewrite batch written before the store held one row
	// form. RecordRetiredRows is the (gid, final event) rewrite batch written
	// while rows could be updated by query. Nothing writes them any more; the
	// numbers stay reserved so an old payload is rejected by type and never
	// parsed as a newer record.
	RecordRetiredEventsV1 RecordType = 1
	RecordRetiredDocs     RecordType = 2
	RecordRetiredRewrite  RecordType = 3
	RecordRetiredRows     RecordType = 4
	// RecordPaths is one correlation pass's tag→path dictionary with its row
	// horizon (event.PathsRecord), applied to rows in the log's prefix.
	RecordPaths RecordType = 5
	// RecordEvents is an event batch as one event.EncodeBatch frame: the
	// frame a client posted, journaled as received.
	RecordEvents RecordType = 6
)

// Retired reports whether t is a reserved number nothing writes any more.
func (t RecordType) Retired() bool {
	return t >= RecordRetiredEventsV1 && t <= RecordRetiredRows
}

// ErrRetiredFormat reports on-disk state in a form nothing writes any more: a
// version-1 event frame, a gob or row-rewrite WAL record, a manifest carrying
// pending rewrites or counting a segment's generic rows, a columnar
// (version 2) segment. Open, or the first read of a segment, fails with it,
// naming the offender.
var ErrRetiredFormat = errors.New("durable: data dir holds a retired on-disk format")

// walHeaderLen is the per-record frame overhead: type byte, payload length,
// payload CRC.
const walHeaderLen = 1 + 4 + 4

// walMaxPayload bounds a single record so a corrupt length field cannot
// trigger a gigabyte allocation during replay.
const walMaxPayload = 1 << 30

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the backend runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSegment reports a segment file whose checksum or structure is
// invalid. Unlike a torn WAL tail — an expected crash artifact that replay
// repairs by truncation — a committed segment must be intact, so recovery
// surfaces this instead of guessing.
var ErrCorruptSegment = errors.New("durable: corrupt segment")

// WAL is one append-only log file. Appends are serialized by an internal
// mutex; Sync flushes written records to stable storage according to the
// caller's fsync policy (per-append, interval timer, or never).
type WAL struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	size  int64
	buf   []byte // frame scratch, reused across appends
	dirty bool   // bytes written since the last Sync
}

// OpenWAL opens (creating if needed) the log at path for appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: stat wal: %w", err)
	}
	return &WAL{f: f, path: path, size: st.Size()}, nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Size returns the log's current length in bytes (header bytes included).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append writes one record and returns the number of bytes appended. The
// frame is assembled in a reused scratch buffer and written with a single
// write call, so a crash can tear at most the record being written — which
// replay detects by length or CRC and truncates.
func (w *WAL) Append(t RecordType, payload []byte) (int, error) {
	if len(payload) > walMaxPayload {
		return 0, fmt.Errorf("durable: wal record of %d bytes exceeds limit", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errors.New("durable: wal is closed")
	}
	need := walHeaderLen + len(payload)
	if cap(w.buf) < need {
		w.buf = make([]byte, 0, need)
	}
	b := w.buf[:0]
	b = append(b, byte(t))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	b = append(b, payload...)
	w.buf = b[:0]
	if _, err := w.f.Write(b); err != nil {
		return 0, fmt.Errorf("durable: wal append: %w", err)
	}
	w.size += int64(need)
	w.dirty = true
	return need, nil
}

// Sync flushes appended records to stable storage. It is a no-op when
// nothing was written since the last call, so interval-policy timers are
// free on idle indices. The fsync itself runs outside the append mutex:
// flushing the page cache needs no exclusion from concurrent appends (their
// bytes either ride this flush or the next), and holding the lock across a
// multi-millisecond fsync would stall every writer behind the interval
// timer. The dirty flag is claimed before the flush, so appends landing
// mid-fsync re-arm it.
func (w *WAL) Sync() error {
	w.mu.Lock()
	f := w.f
	if f == nil || !w.dirty {
		w.mu.Unlock()
		return nil
	}
	w.dirty = false
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		w.dirty = true
		w.mu.Unlock()
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	return nil
}

// Close syncs and closes the log. A closed WAL rejects further appends.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return fmt.Errorf("durable: wal close sync: %w", syncErr)
	}
	return closeErr
}

// WALReplayStats summarizes one replay pass.
type WALReplayStats struct {
	// Records is the number of intact records handed to the callback.
	Records int
	// Bytes is the number of intact bytes (the offset the file was kept to).
	Bytes int64
	// Torn reports that the file ended in a partial or corrupt record — the
	// expected artifact of a crash mid-append — which was truncated away.
	Torn bool
}

// ReplayWAL reads the log at path from the start, handing each intact
// record's type and payload to fn in append order. A torn tail (short
// header, short payload, or CRC mismatch) stops the scan and truncates the
// file back to the last intact record, so the next OpenWAL appends from a
// clean boundary. A missing file replays zero records. fn errors abort the
// replay unchanged.
func ReplayWAL(path string, fn func(t RecordType, payload []byte) error) (WALReplayStats, error) {
	var stats WALReplayStats
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, fmt.Errorf("durable: read wal: %w", err)
	}
	o := 0
	for {
		if o == len(data) {
			break
		}
		if o+walHeaderLen > len(data) {
			stats.Torn = true
			break
		}
		t := RecordType(data[o])
		plen := int(binary.LittleEndian.Uint32(data[o+1:]))
		sum := binary.LittleEndian.Uint32(data[o+5:])
		if plen > walMaxPayload || o+walHeaderLen+plen > len(data) {
			stats.Torn = true
			break
		}
		payload := data[o+walHeaderLen : o+walHeaderLen+plen]
		if crc32.Checksum(payload, crcTable) != sum {
			stats.Torn = true
			break
		}
		if err := fn(t, payload); err != nil {
			return stats, err
		}
		o += walHeaderLen + plen
		stats.Records++
		stats.Bytes = int64(o)
	}
	if stats.Torn {
		if err := os.Truncate(path, stats.Bytes); err != nil {
			return stats, fmt.Errorf("durable: truncate torn wal tail: %w", err)
		}
	}
	return stats, nil
}

// TailRecord is one intact WAL record handed back by ReadWALTail. Payload is
// freshly allocated and safe to retain.
type TailRecord struct {
	Type    RecordType
	Payload []byte
}

// ReadWALTail reads complete records from the log at path starting at byte
// offset off, stopping after maxRecords records or once more than maxBytes of
// payload have been collected (at least one record is returned if any is
// intact). It returns the records, the byte offset just past the last one —
// the cursor for the next call — and an error only for real I/O failures.
//
// Unlike ReplayWAL it never truncates: a short or CRC-failing record at the
// tail may simply be an append in flight on the live file (Append completes
// its single write before the head sequence advances, so any record the
// caller knows exists is fully visible), so the scan stops silently and the
// caller retries from the returned offset. A missing file returns
// (nil, off, nil) — the log was superseded by a snapshot.
func ReadWALTail(path string, off int64, maxRecords, maxBytes int) ([]TailRecord, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, off, nil
		}
		return nil, off, fmt.Errorf("durable: open wal tail: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, off, fmt.Errorf("durable: stat wal tail: %w", err)
	}
	end := st.Size()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, off, fmt.Errorf("durable: seek wal tail: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var (
		recs  []TailRecord
		bytes int
		hdr   [walHeaderLen]byte
	)
	for len(recs) < maxRecords && bytes <= maxBytes {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			return recs, off, fmt.Errorf("durable: read wal tail: %w", err)
		}
		t := RecordType(hdr[0])
		plen := int(binary.LittleEndian.Uint32(hdr[1:]))
		sum := binary.LittleEndian.Uint32(hdr[5:])
		// A length past the statted end is a torn or in-flight record (or a
		// corrupt field); checking before allocating also keeps a garbage
		// length from provoking a giant allocation.
		if plen > walMaxPayload || off+int64(walHeaderLen)+int64(plen) > end {
			break
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			return recs, off, fmt.Errorf("durable: read wal tail: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		recs = append(recs, TailRecord{Type: t, Payload: payload})
		off += int64(walHeaderLen + plen)
		bytes += plen
	}
	return recs, off, nil
}

// syncParent fsyncs the directory containing path so renames and creates in
// it are durable (best-effort on filesystems that reject directory fsync).
func syncParent(path string) {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	_ = dir.Sync()
	dir.Close()
}

// writeFileAtomic writes data to path via a temporary sibling, fsyncs it,
// and renames it into place — the standard crash-atomic publish.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncParent(path)
	return nil
}
