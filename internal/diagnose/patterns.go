package diagnose

// The custom analyses (the paper's flexibility claim, §IV): context-first,
// and reading events through the streaming cursor instead of materializing
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

// FileOffsetPattern analyzes the offset pattern of filePath within a
// session. Events must have been path-correlated first (file_path set).
func FileOffsetPattern(ctx context.Context, b store.Backend, index, session, filePath string) (OffsetPattern, error) {
	return fileOffsetPattern(ctx, b, index, session, filePath, 0)
}

func fileOffsetPattern(ctx context.Context, b store.Backend, index, session, filePath string, pageSize int) (OffsetPattern, error) {
	p := OffsetPattern{FilePath: filePath}
	// Track the expected next offset per thread, as concurrent streams can
	// interleave while each remains sequential.
	nextByTID := make(map[int]int64)
	req := store.SearchRequest{
		Query: store.Must(
			store.Term(store.FieldSession, session),
			store.Term(store.FieldFilePath, filePath),
			store.Terms(store.FieldSyscall, dataSyscalls...),
		),
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	}
	err := store.EachEventPage(ctx, b, index, req, pageSize, func(page store.EventsResult) error {
		for i := range page.Hits {
			e := &page.Hits[i]
			if e.RetVal < 0 || !e.HasOffset {
				continue
			}
			isRead := e.Syscall == "read" || e.Syscall == "pread64" || e.Syscall == "readv"
			moved := e.RetVal
			if !isRead {
				moved = int64(e.Count)
			}
			if moved < SmallIOThreshold {
				p.SmallIOs++
			}
			expected, seen := nextByTID[e.TID]
			sequential := !seen || e.Offset == expected
			nextByTID[e.TID] = e.Offset + moved
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
				p.BytesRead += e.RetVal
			} else {
				p.Writes++
				p.BytesWrite += moved
			}
		}
		return nil
	})
	if err != nil {
		return OffsetPattern{}, fmt.Errorf("offset pattern query: %w", err)
	}
	return p, nil
}

// FileLoad summarizes the I/O volume attracted by one file.
type FileLoad struct {
	FilePath string
	Events   int
	Bytes    int64
}

// HotFiles ranks the session's files by data volume — the skew view that
// turns "the disk is busy" into "these files are busy".
func HotFiles(ctx context.Context, b store.Backend, index, session string, topN int) ([]FileLoad, error) {
	return hotFiles(ctx, b, index, session, topN, 0)
}

func hotFiles(ctx context.Context, b store.Backend, index, session string, topN, pageSize int) ([]FileLoad, error) {
	agg := make(map[string]*FileLoad)
	req := store.SearchRequest{
		Query: store.Must(
			store.Term(store.FieldSession, session),
			store.Exists(store.FieldFilePath),
			store.Terms(store.FieldSyscall, dataSyscalls...),
		),
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	}
	err := store.EachEventPage(ctx, b, index, req, pageSize, func(page store.EventsResult) error {
		for i := range page.Hits {
			e := &page.Hits[i]
			if e.RetVal < 0 {
				continue
			}
			fl, ok := agg[e.FilePath]
			if !ok {
				fl = &FileLoad{FilePath: e.FilePath}
				agg[e.FilePath] = fl
			}
			fl.Events++
			moved := e.RetVal
			if e.Syscall == "write" || e.Syscall == "pwrite64" || e.Syscall == "writev" {
				moved = int64(e.Count)
			}
			fl.Bytes += moved
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("hot files query: %w", err)
	}
	out := make([]FileLoad, 0, len(agg))
	for _, fl := range agg {
		out = append(out, *fl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].FilePath < out[j].FilePath
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
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
	lt := 0.0
	counts := func(session string) (map[string]int, map[string]int, error) {
		resp, err := b.Search(ctx, index, store.SearchRequest{
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
		respErr, err := b.Search(ctx, index, store.SearchRequest{
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
