package diagnose

// The custom analyses (the paper's flexibility claim, §IV): context-first,
// and reading rows through the streaming cursor instead of materializing
// a whole session per query.

import (
	"context"
	"fmt"
	"sort"

	"github.com/dsrhaslab/dio-go/internal/store"
)

// OffsetPattern summarizes the file-offset access pattern of one file in
// one session — the paper's f_offset enrichment makes this possible even
// for read/write, which carry no offset argument.
type OffsetPattern struct {
	FilePath string
	// Reads/Writes counts and total bytes (successful data syscalls only).
	Reads      int
	Writes     int
	BytesRead  int64
	BytesWrite int64
	// Sequential accesses start exactly where the previous access by the
	// same thread on the same file ended.
	SequentialReads  int
	SequentialWrites int
	RandomReads      int
	RandomWrites     int
	// SmallIOs counts data syscalls moving fewer than SmallIOThreshold
	// bytes (the paper's "small-sized I/O requests" inefficiency).
	SmallIOs int
}

// SmallIOThreshold classifies an I/O as small (bytes).
const SmallIOThreshold = 4096

// SequentialFraction returns the share of data accesses that were
// sequential.
func (p OffsetPattern) SequentialFraction() float64 {
	total := p.SequentialReads + p.SequentialWrites + p.RandomReads + p.RandomWrites
	if total == 0 {
		return 0
	}
	return float64(p.SequentialReads+p.SequentialWrites) / float64(total)
}

// Classification labels the dominant pattern.
func (p OffsetPattern) Classification() string {
	switch f := p.SequentialFraction(); {
	case p.Reads+p.Writes == 0:
		return "no data I/O"
	case f >= 0.9:
		return "sequential"
	case f <= 0.5:
		return "random"
	default:
		return "mixed"
	}
}

var dataSyscalls = []any{"read", "pread64", "readv", "write", "pwrite64", "writev"}

// dataSyscall reports whether name is one of dataSyscalls, and whether it
// is one of the three that read.
func dataSyscall(name string) (isRead, ok bool) {
	switch name {
	case "read", "pread64", "readv":
		return true, true
	case "write", "pwrite64", "writev":
		return false, true
	}
	return false, false
}

// FileLoad summarizes the I/O volume attracted by one file.
type FileLoad struct {
	FilePath string
	Events   int
	Bytes    int64
}

// fileAccess accumulates one file's load and offset pattern from the
// session's successful data syscalls.
type fileAccess struct {
	load    FileLoad
	pattern OffsetPattern
	// nextByTID is the expected next offset per thread, as concurrent
	// streams can interleave while each remains sequential.
	nextByTID map[int]*int64
}

// fileAccesses is the per-file accumulator HotFiles, FileOffsetPattern and
// the costly-patterns rule share, keyed by correlated path. Events must
// have been path-correlated first: rows with no file_path are not counted.
type fileAccesses map[string]*fileAccess

func (fa fileAccesses) observe(r store.Row) {
	isRead, ok := dataSyscall(r.Syscall())
	if !ok || r.RetVal() < 0 {
		return
	}
	path := r.FilePath()
	if path == "" {
		return
	}
	a := fa[path]
	if a == nil {
		a = &fileAccess{
			load:      FileLoad{FilePath: path},
			pattern:   OffsetPattern{FilePath: path},
			nextByTID: make(map[int]*int64),
		}
		fa[path] = a
	}
	moved := r.RetVal()
	if !isRead {
		moved = int64(r.Count())
	}
	a.load.Events++
	a.load.Bytes += moved
	if !r.HasOffset() {
		return
	}
	p := &a.pattern
	if moved < SmallIOThreshold {
		p.SmallIOs++
	}
	off, next := r.Offset(), a.nextByTID[r.TID()]
	sequential := next == nil || off == *next
	if next == nil {
		next = new(int64)
		a.nextByTID[r.TID()] = next
	}
	*next = off + moved
	switch {
	case isRead && sequential:
		p.SequentialReads++
	case isRead:
		p.RandomReads++
	case sequential:
		p.SequentialWrites++
	default:
		p.RandomWrites++
	}
	if isRead {
		p.Reads++
		p.BytesRead += moved
	} else {
		p.Writes++
		p.BytesWrite += moved
	}
}

// ranked orders the files by data volume, ties by path.
func (fa fileAccesses) ranked() []*fileAccess {
	out := make([]*fileAccess, 0, len(fa))
	for _, a := range fa {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].load.Bytes != out[j].load.Bytes {
			return out[i].load.Bytes > out[j].load.Bytes
		}
		return out[i].load.FilePath < out[j].load.FilePath
	})
	return out
}

// FileOffsetPattern analyzes the offset pattern of filePath within a
// session. Events must have been path-correlated first (file_path set).
func FileOffsetPattern(ctx context.Context, b store.Backend, index, session, filePath string) (OffsetPattern, error) {
	files := fileAccesses{}
	err := eachRow(ctx, b, index, store.Must(
		store.Term(store.FieldSession, session),
		store.Term(store.FieldFilePath, filePath),
		store.Terms(store.FieldSyscall, dataSyscalls...),
	), 0, files.observe)
	if err != nil {
		return OffsetPattern{}, fmt.Errorf("offset pattern query: %w", err)
	}
	if a := files[filePath]; a != nil {
		return a.pattern, nil
	}
	return OffsetPattern{FilePath: filePath}, nil
}

// HotFiles ranks the session's files by data volume — the skew view that
// turns "the disk is busy" into "these files are busy".
func HotFiles(ctx context.Context, b store.Backend, index, session string, topN int) ([]FileLoad, error) {
	files := fileAccesses{}
	err := eachRow(ctx, b, index, store.Must(
		store.Term(store.FieldSession, session),
		store.Exists(store.FieldFilePath),
		store.Terms(store.FieldSyscall, dataSyscalls...),
	), 0, files.observe)
	if err != nil {
		return nil, fmt.Errorf("hot files query: %w", err)
	}
	ranked := files.ranked()
	if topN > 0 && len(ranked) > topN {
		ranked = ranked[:topN]
	}
	out := make([]FileLoad, len(ranked))
	for i, a := range ranked {
		out[i] = a.load
	}
	return out, nil
}

// SessionDelta is one row of a session comparison.
type SessionDelta struct {
	Syscall string
	CountA  int
	CountB  int
	ErrsA   int
	ErrsB   int
}

// CompareSessions contrasts two tracing executions stored in the same
// backend — the post-mortem analysis workflow of §II (the paper compares
// Fluent Bit v1.4.0 against v2.0.5 this way).
func CompareSessions(ctx context.Context, b store.Backend, index, sessionA, sessionB string) ([]SessionDelta, error) {
	lt := int64(0)
	counts := func(session string) (map[string]int, map[string]int, error) {
		resp, err := b.SearchEvents(ctx, index, store.SearchRequest{
			Query: store.Term(store.FieldSession, session),
			Size:  1,
			Aggs: map[string]store.Agg{
				"all": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
			},
		})
		if err != nil {
			return nil, nil, err
		}
		all := make(map[string]int)
		for _, bkt := range resp.Aggs["all"].Buckets {
			all[bkt.Key] = bkt.Count
		}
		respErr, err := b.SearchEvents(ctx, index, store.SearchRequest{
			Query: store.Must(
				store.Term(store.FieldSession, session),
				store.Query{Range: &store.RangeQuery{Field: store.FieldRetVal, LT: &lt}},
			),
			Size: 1,
			Aggs: map[string]store.Agg{"errs": {Terms: &store.TermsAgg{Field: store.FieldSyscall}}},
		})
		if err != nil {
			return nil, nil, err
		}
		errs := make(map[string]int)
		for _, bkt := range respErr.Aggs["errs"].Buckets {
			errs[bkt.Key] = bkt.Count
		}
		return all, errs, nil
	}
	allA, errsA, err := counts(sessionA)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", sessionA, err)
	}
	allB, errsB, err := counts(sessionB)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", sessionB, err)
	}
	names := make(map[string]bool)
	for n := range allA {
		names[n] = true
	}
	for n := range allB {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	out := make([]SessionDelta, 0, len(sorted))
	for _, n := range sorted {
		out = append(out, SessionDelta{
			Syscall: n,
			CountA:  allA[n], CountB: allB[n],
			ErrsA: errsA[n], ErrsB: errsB[n],
		})
	}
	return out, nil
}
