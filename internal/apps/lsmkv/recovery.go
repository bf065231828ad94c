package lsmkv

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/kernel"
)

// manifestName is the database's table-inventory file, rewritten after
// every flush and compaction so that Open can rebuild the level hierarchy
// after a crash (RocksDB's MANIFEST).
const manifestName = "MANIFEST"

// writeManifest persists the current level layout. It runs on the
// background task that just changed the layout, so the write is part of the
// traced I/O stream like RocksDB's own manifest updates. db.mu must NOT be
// held; the method snapshots the layout itself, under manifestMu, so two
// writers install their snapshots in the order they took them: a layout
// taken earlier but written later would name tables the later writer has
// already unlinked, and omit the ones it added.
func (db *DB) writeManifest(task *kernel.Task) error {
	db.manifestMu.Lock()
	defer db.manifestMu.Unlock()
	db.mu.Lock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "next_file %d\n", atomic.LoadUint64(&db.nextFile))
	for lvl, tables := range db.levels {
		for _, t := range tables {
			// compacting tables still belong to their level.
			fmt.Fprintf(&sb, "table %d %d %s\n", lvl, t.fileNum, t.path)
		}
	}
	db.mu.Unlock()

	tmp := db.cfg.Dir + "/" + manifestName + ".tmp"
	fd, err := task.Openat(kernel.AtFDCWD, tmp, kernel.OWronly|kernel.OCreat|kernel.OTrunc, 0o644)
	if err != nil {
		return fmt.Errorf("create manifest: %w", err)
	}
	if _, err := task.Write(fd, []byte(sb.String())); err != nil {
		task.Close(fd)
		return fmt.Errorf("write manifest: %w", err)
	}
	if err := task.Fsync(fd); err != nil {
		task.Close(fd)
		return fmt.Errorf("fsync manifest: %w", err)
	}
	if err := task.Close(fd); err != nil {
		return fmt.Errorf("close manifest: %w", err)
	}
	// Atomic replace, the standard crash-safe manifest swap.
	if err := task.Rename(tmp, db.cfg.Dir+"/"+manifestName); err != nil {
		return fmt.Errorf("install manifest: %w", err)
	}
	return nil
}

// manifestEntry is one parsed table line.
type manifestEntry struct {
	level   int
	fileNum uint64
	path    string
}

// readManifest parses the manifest, returning the recorded next-file
// counter and table inventory. A missing manifest is not an error (fresh
// database).
func readManifest(k *kernel.Kernel, task *kernel.Task, dir string) (uint64, []manifestEntry, error) {
	path := dir + "/" + manifestName
	if _, err := task.Stat(path); err == kernel.ENOENT {
		return 0, nil, nil
	} else if err != nil {
		return 0, nil, fmt.Errorf("stat manifest: %w", err)
	}
	data, err := k.ReadFileContents(path)
	if err != nil {
		return 0, nil, fmt.Errorf("read manifest: %w", err)
	}
	var (
		nextFile uint64
		entries  []manifestEntry
	)
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "next_file":
			if len(fields) != 2 {
				return 0, nil, fmt.Errorf("manifest line %d: malformed next_file", lineNo+1)
			}
			nextFile, err = strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("manifest line %d: %w", lineNo+1, err)
			}
		case "table":
			if len(fields) != 4 {
				return 0, nil, fmt.Errorf("manifest line %d: malformed table", lineNo+1)
			}
			lvl, err := strconv.Atoi(fields[1])
			if err != nil {
				return 0, nil, fmt.Errorf("manifest line %d: %w", lineNo+1, err)
			}
			num, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("manifest line %d: %w", lineNo+1, err)
			}
			entries = append(entries, manifestEntry{level: lvl, fileNum: num, path: fields[3]})
		default:
			return 0, nil, fmt.Errorf("manifest line %d: unknown record %q", lineNo+1, fields[0])
		}
	}
	return nextFile, entries, nil
}

// openSSTable re-opens an existing table file, scanning it once to rebuild
// the in-memory index (the moral equivalent of reading index blocks).
func openSSTable(task *kernel.Task, path string, fileNum uint64) (*SSTable, error) {
	st, err := task.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("stat sstable %s: %w", path, err)
	}
	t := &SSTable{
		path:    path,
		fileNum: fileNum,
		size:    st.Size,
		fd:      -1,
		owner:   task.Process(),
	}
	entries, err := t.loadAll(task)
	if err != nil {
		return nil, err
	}
	var off int64
	for _, e := range entries {
		off += 6 + int64(len(e.Key))
		t.index = append(t.index, indexEntry{key: e.Key, valOff: off, valLen: int32(len(e.Value))})
		off += int64(len(e.Value))
	}
	if len(entries) > 0 {
		t.minKey = entries[0].Key
		t.maxKey = entries[len(entries)-1].Key
	}
	return t, nil
}

// recover rebuilds the level hierarchy from the manifest and replays
// write-ahead logs into the fresh memtable. It runs during Open, before
// background threads start.
func (db *DB) recover(task *kernel.Task) error {
	nextFile, entries, err := readManifest(db.kern, task, db.cfg.Dir)
	if err != nil {
		return err
	}
	maxNum := nextFile
	for _, e := range entries {
		if e.level < 0 || e.level >= len(db.levels) {
			return fmt.Errorf("manifest table %s: bad level %d", e.path, e.level)
		}
		t, oerr := openSSTable(task, e.path, e.fileNum)
		if oerr != nil {
			// A table referenced by the manifest but missing on disk means
			// the crash interleaved badly; skip it rather than refusing to
			// open (its data survives in older levels).
			continue
		}
		db.levels[e.level] = append(db.levels[e.level], t)
		if e.fileNum > maxNum {
			maxNum = e.fileNum
		}
	}
	// Keep L0 newest-first and deeper levels sorted by key.
	sort.Slice(db.levels[0], func(i, j int) bool {
		return db.levels[0][i].fileNum > db.levels[0][j].fileNum
	})
	for lvl := 1; lvl < len(db.levels); lvl++ {
		tables := db.levels[lvl]
		sort.Slice(tables, func(i, j int) bool { return tables[i].minKey < tables[j].minKey })
	}

	// Replay WALs (oldest first) into the memtable, then delete them: their
	// contents will reach an SSTable through the normal flush path.
	names, err := db.kern.ListDir(db.cfg.Dir)
	if err != nil {
		return fmt.Errorf("list db dir: %w", err)
	}
	var wals []string
	for _, n := range names {
		if strings.HasSuffix(n, ".wal") {
			wals = append(wals, n)
			if num, perr := strconv.ParseUint(strings.TrimSuffix(n, ".wal"), 10, 64); perr == nil && num > maxNum {
				maxNum = num
			}
		}
	}
	sort.Strings(wals) // zero-padded names sort by file number
	for _, name := range wals {
		path := db.cfg.Dir + "/" + name
		if rerr := db.replayWAL(task, path); rerr != nil {
			return fmt.Errorf("replay %s: %w", name, rerr)
		}
		task.Unlink(path)
	}
	atomic.StoreUint64(&db.nextFile, maxNum)
	return nil
}

// replayWAL feeds one log's records into the memtable.
func (db *DB) replayWAL(task *kernel.Task, path string) error {
	data, err := db.kern.ReadFileContents(path)
	if err != nil {
		return err
	}
	for pos := 0; pos+6 <= len(data); {
		kl := int(binary.LittleEndian.Uint16(data[pos:]))
		vl := int(binary.LittleEndian.Uint32(data[pos+2:]))
		pos += 6
		if pos+kl+vl > len(data) {
			// Torn tail write: everything before it is valid, as in a real
			// WAL recovery.
			return nil
		}
		key := string(data[pos : pos+kl])
		val := make([]byte, vl)
		copy(val, data[pos+kl:pos+kl+vl])
		db.mem.put(key, val)
		pos += kl + vl
	}
	return nil
}

// CloseAbrupt simulates a crash: background threads stop without flushing
// the memtable or deleting WALs, leaving recovery work for the next Open.
func (db *DB) CloseAbrupt() {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	db.wg.Wait()
}
