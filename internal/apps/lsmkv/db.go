package lsmkv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/kernel"
)

// Config parametrizes the store. Zero values select defaults scaled for
// simulation (small memtables so that flushes and compactions happen within
// seconds instead of hours).
type Config struct {
	// Dir is the database directory on the simulated filesystem.
	Dir string
	// MemtableBytes triggers a flush when the active memtable exceeds it.
	MemtableBytes int
	// L0CompactTrigger schedules an L0→L1 compaction at this many L0 files.
	L0CompactTrigger int
	// L0StallTrigger blocks writers at this many L0 files (RocksDB's
	// level0_stop_writes_trigger), the paper's stall mechanism.
	L0StallTrigger int
	// LevelBaseBytes is the target size of L1; level n targets
	// LevelBaseBytes * LevelMultiplier^(n-1).
	LevelBaseBytes int64
	// LevelMultiplier is the per-level size ratio.
	LevelMultiplier int
	// MaxLevels bounds the level hierarchy.
	MaxLevels int
	// TargetFileBytes splits compaction outputs into files of this size.
	TargetFileBytes int64
	// CompactionThreads is the number of background compaction threads
	// (the paper's RocksDB setup used 7, plus 1 flush thread).
	CompactionThreads int
	// ProcessName names the database process (default "db_bench", since
	// RocksDB runs embedded inside the benchmark binary: client threads and
	// background threads share one process, as in the paper's Fig. 4).
	ProcessName string
}

func (c Config) withDefaults() Config {
	if c.Dir == "" {
		c.Dir = "/db"
	}
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 256 << 10
	}
	if c.L0CompactTrigger <= 0 {
		c.L0CompactTrigger = 4
	}
	if c.L0StallTrigger <= 0 {
		c.L0StallTrigger = 8
	}
	if c.LevelBaseBytes <= 0 {
		c.LevelBaseBytes = 1 << 20
	}
	if c.LevelMultiplier <= 0 {
		c.LevelMultiplier = 4
	}
	if c.MaxLevels <= 0 {
		c.MaxLevels = 5
	}
	if c.TargetFileBytes <= 0 {
		c.TargetFileBytes = 512 << 10
	}
	if c.CompactionThreads <= 0 {
		c.CompactionThreads = 7
	}
	if c.ProcessName == "" {
		c.ProcessName = "db_bench"
	}
	return c
}

// Stats are cumulative DB counters.
type Stats struct {
	Puts          uint64
	Gets          uint64
	Flushes       uint64
	Compactions   uint64
	L0Compactions uint64
	Stalls        uint64
	StallNS       int64
}

// DB is the LSM store.
type DB struct {
	cfg  Config
	kern *kernel.Kernel
	proc *kernel.Process

	mu       sync.Mutex
	cond     *sync.Cond
	mem      *memtable
	imm      *memtable
	levels   [][]*SSTable
	l0Busy   bool
	closed   bool
	nextFile uint64

	walMu      sync.Mutex
	manifestMu sync.Mutex

	wg sync.WaitGroup

	puts, gets, flushes, compactions, l0comps, stalls atomic.Uint64
	stallNS                                           atomic.Int64
	manifestErrs                                      atomic.Uint64
}

// ErrClosed reports an operation on a closed DB.
var ErrClosed = errors.New("lsmkv: database closed")

// Open creates (or re-creates) a database under cfg.Dir and starts the
// background flush and compaction threads.
func Open(k *kernel.Kernel, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if err := k.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("mkdir %s: %w", cfg.Dir, err)
	}
	db := &DB{
		cfg:    cfg,
		kern:   k,
		proc:   k.NewProcess(cfg.ProcessName),
		levels: make([][]*SSTable, cfg.MaxLevels),
	}
	db.cond = sync.NewCond(&db.mu)

	mainTask := db.proc.NewTask(cfg.ProcessName)

	// Crash recovery (before any background work): rebuild the level
	// hierarchy from the manifest and replay leftover WALs into a staging
	// memtable, which is flushed synchronously so its data is durable again
	// before new writes arrive.
	db.mem = newMemtable("", -1)
	if err := db.recover(mainTask); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	recovered := db.mem

	// The first WAL is created by the DB's main task; its file number is
	// allocated after recovery so it cannot collide with pre-crash files.
	wal, walFD, err := db.newWAL(mainTask)
	if err != nil {
		return nil, err
	}
	db.mem = newMemtable(wal, walFD)
	if recovered.bytes > 0 {
		num := atomic.AddUint64(&db.nextFile, 1)
		path := fmt.Sprintf("%s/%06d.sst", cfg.Dir, num)
		t, berr := buildSSTable(mainTask, path, num, recovered.sorted())
		if berr != nil {
			return nil, fmt.Errorf("flush recovered wal data: %w", berr)
		}
		db.levels[0] = append([]*SSTable{t}, db.levels[0]...)
		db.flushes.Add(1)
		if merr := db.writeManifest(mainTask); merr != nil {
			return nil, merr
		}
	}

	flushTask := db.proc.NewTask("rocksdb:high0")
	db.wg.Add(1)
	go db.flushLoop(flushTask)
	for i := 0; i < cfg.CompactionThreads; i++ {
		compTask := db.proc.NewTask("rocksdb:low" + strconv.Itoa(i))
		db.wg.Add(1)
		go db.compactionLoop(compTask)
	}
	return db, nil
}

// Process returns the database's kernel process (e.g. to filter tracing).
func (db *DB) Process() *kernel.Process { return db.proc }

// NewClientTask creates a foreground client thread inside the database
// process. Clients must issue Put/Get on such tasks: RocksDB is an embedded
// store, so client threads share the process (and its file-descriptor
// table) with the background flush and compaction threads.
func (db *DB) NewClientTask(name string) *kernel.Task {
	return db.proc.NewTask(name)
}

// ErrForeignTask reports a Put/Get issued from a task outside the database
// process, which could not share the store's file descriptors.
var ErrForeignTask = errors.New("lsmkv: task does not belong to the database process")

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	return Stats{
		Puts:          db.puts.Load(),
		Gets:          db.gets.Load(),
		Flushes:       db.flushes.Load(),
		Compactions:   db.compactions.Load(),
		L0Compactions: db.l0comps.Load(),
		Stalls:        db.stalls.Load(),
		StallNS:       db.stallNS.Load(),
	}
}

func (db *DB) newWAL(task *kernel.Task) (string, int, error) {
	num := atomic.AddUint64(&db.nextFile, 1)
	path := fmt.Sprintf("%s/%06d.wal", db.cfg.Dir, num)
	fd, err := task.Openat(kernel.AtFDCWD, path, kernel.OWronly|kernel.OCreat|kernel.OAppend, 0o644)
	if err != nil {
		return "", -1, fmt.Errorf("create wal %s: %w", path, err)
	}
	return path, fd, nil
}

// Put inserts key→value, performing the WAL write on the calling task (as
// RocksDB foreground threads do) and stalling when L0 is full.
func (db *DB) Put(task *kernel.Task, key string, value []byte) error {
	if task.Process() != db.proc {
		return ErrForeignTask
	}
	db.puts.Add(1)

	db.mu.Lock()
	// Write stall: too many L0 files, or a flush is already pending while
	// the active memtable is full again.
	stallStart := int64(-1)
	for !db.closed && (len(db.levels[0]) >= db.cfg.L0StallTrigger ||
		(db.imm != nil && db.mem.bytes >= db.cfg.MemtableBytes)) {
		if stallStart < 0 {
			stallStart = db.kern.Clock().NowNS()
			db.stalls.Add(1)
		}
		db.cond.Wait()
	}
	if stallStart >= 0 {
		db.stallNS.Add(db.kern.Clock().NowNS() - stallStart)
	}
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.mu.Unlock()

	// WAL append outside db.mu so that Gets are not blocked by disk time.
	// walMu covers both the append and WAL retirement in flushLoop, so the
	// descriptor cannot be closed mid-write.
	rec := walRecord(key, value)
	db.walMu.Lock()
	db.mu.Lock()
	walFD := db.mem.walFD
	db.mu.Unlock()
	_, werr := task.Write(walFD, rec)
	db.walMu.Unlock()
	if werr != nil {
		return fmt.Errorf("wal append: %w", werr)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.mem.put(key, value)
	if db.mem.bytes >= db.cfg.MemtableBytes && db.imm == nil {
		// Rotate: the full memtable becomes immutable and a fresh WAL backs
		// the new one.
		wal, walFD, err := db.newWAL(task)
		if err != nil {
			return err
		}
		db.imm = db.mem
		db.mem = newMemtable(wal, walFD)
		db.cond.Broadcast() // wake the flush thread
	}
	return nil
}

// Get returns the value for key.
func (db *DB) Get(task *kernel.Task, key string) ([]byte, bool, error) {
	if task.Process() != db.proc {
		return nil, false, ErrForeignTask
	}
	db.gets.Add(1)

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, false, ErrClosed
	}
	if v, ok := db.mem.get(key); ok {
		out := append([]byte(nil), v...)
		db.mu.Unlock()
		return out, true, nil
	}
	if db.imm != nil {
		if v, ok := db.imm.get(key); ok {
			out := append([]byte(nil), v...)
			db.mu.Unlock()
			return out, true, nil
		}
	}
	// Collect candidate tables: search levels top-down; within a level,
	// newer files (higher file numbers) take precedence. References are
	// acquired under the lock so compactions cannot close descriptors
	// under an in-flight read.
	var candidates []*SSTable
	for li, lvl := range db.levels {
		start := len(candidates)
		for _, t := range lvl {
			if t.mayContain(key) {
				t.acquire()
				candidates = append(candidates, t)
			}
		}
		// Within a level, newer files (higher numbers) take precedence; L0
		// is already held newest-first, deeper levels may transiently
		// overlap while compactions swap tables in.
		if li > 0 && len(candidates)-start > 1 {
			sub := candidates[start:]
			sort.Slice(sub, func(i, j int) bool { return sub[i].fileNum > sub[j].fileNum })
		}
	}
	db.mu.Unlock()

	var (
		val   []byte
		found bool
		gerr  error
	)
	for _, t := range candidates {
		if !found && gerr == nil {
			v, ok, err := t.get(task, key)
			if err != nil {
				gerr = err
			} else if ok {
				val, found = v, true
			}
		}
		t.release(task)
	}
	return val, found, gerr
}

// walRecord encodes one WAL entry.
func walRecord(key string, value []byte) []byte {
	rec := make([]byte, 6+len(key)+len(value))
	binary.LittleEndian.PutUint16(rec[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(rec[2:], uint32(len(value)))
	copy(rec[6:], key)
	copy(rec[6+len(key):], value)
	return rec
}

// flushLoop is the "rocksdb:high0" thread: it persists immutable memtables
// as L0 SSTables.
func (db *DB) flushLoop(task *kernel.Task) {
	defer db.wg.Done()
	for {
		db.mu.Lock()
		for db.imm == nil && !db.closed {
			db.cond.Wait()
		}
		if db.imm == nil && db.closed {
			db.mu.Unlock()
			return
		}
		imm := db.imm
		num := atomic.AddUint64(&db.nextFile, 1)
		db.mu.Unlock()

		entries := imm.sorted()
		path := fmt.Sprintf("%s/%06d.sst", db.cfg.Dir, num)
		t, err := buildSSTable(task, path, num, entries)

		db.mu.Lock()
		if err == nil {
			// L0 is ordered newest-first.
			db.levels[0] = append([]*SSTable{t}, db.levels[0]...)
			db.flushes.Add(1)
		}
		db.imm = nil
		db.cond.Broadcast()
		db.mu.Unlock()

		if err == nil {
			// Persist the new layout before retiring the WAL, so a crash
			// in between replays at most already-flushed data.
			if merr := db.writeManifest(task); merr != nil {
				db.manifestErrs.Add(1)
			}
		}

		// Retire the WAL that backed the flushed memtable. walMu keeps the
		// close from racing a WAL append still using the descriptor.
		db.walMu.Lock()
		task.Close(imm.walFD)
		db.walMu.Unlock()
		task.Unlink(imm.walPath)
	}
}

// Close stops background work and waits for it to finish. In-flight
// memtable contents are flushed before shutdown.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	// Flush the active memtable if it holds data and no flush is pending.
	for db.imm != nil {
		db.cond.Wait()
	}
	if db.mem.bytes > 0 {
		db.imm = db.mem
		wal, walFD, err := db.newWAL(db.proc.NewTask(db.cfg.ProcessName))
		if err == nil {
			db.mem = newMemtable(wal, walFD)
		}
		db.cond.Broadcast()
		for db.imm != nil {
			db.cond.Wait()
		}
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()

	db.wg.Wait()
	return nil
}
