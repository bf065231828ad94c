package store

import (
	"context"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Document field names for trace events, aliased from the event package —
// the schema's single source of truth — so queries, correlation, and
// visualizations keep their store.Field* spelling. What a stored row holds
// for each of them is the schema table (fieldTable), held to EventToDoc's
// document view by TestPackedRowMatchesEvent.
const (
	FieldSession    = event.FieldSession
	FieldSyscall    = event.FieldSyscall
	FieldClass      = event.FieldClass
	FieldRetVal     = event.FieldRetVal
	FieldFD         = event.FieldFD
	FieldArgPath    = event.FieldArgPath
	FieldArgPath2   = event.FieldArgPath2
	FieldCount      = event.FieldCount
	FieldArgOffset  = event.FieldArgOffset
	FieldWhence     = event.FieldWhence
	FieldFlags      = event.FieldFlags
	FieldMode       = event.FieldMode
	FieldAttrName   = event.FieldAttrName
	FieldPID        = event.FieldPID
	FieldTID        = event.FieldTID
	FieldProcName   = event.FieldProcName
	FieldThreadName = event.FieldThreadName
	FieldTimeEnter  = event.FieldTimeEnter
	FieldTimeExit   = event.FieldTimeExit
	FieldDuration   = event.FieldDuration
	FieldFileTag    = event.FieldFileTag
	FieldDevNo      = event.FieldDevNo
	FieldInodeNo    = event.FieldInodeNo
	FieldTagTS      = event.FieldTagTS
	FieldFileType   = event.FieldFileType
	FieldOffset     = event.FieldOffset
	FieldHasOffset  = event.FieldHasOffset
	FieldKernelPath = event.FieldKernelPath
	FieldFilePath   = event.FieldFilePath
)

// EventBackend is the ingest half of Backend: both the in-process *Store and
// the *Client (binary frame) implement it. Implementations
// must not retain the events slice after returning: the tracer's drain
// workers recycle batch buffers through a pool.
type EventBackend interface {
	BulkEvents(ctx context.Context, index string, events []event.Event) error
}

// SearchEvents is b.SearchEvents: the free-function spelling from when typed
// search was an optional extension of Backend.
func SearchEvents(ctx context.Context, b Backend, index string, req SearchRequest) (EventsResult, error) {
	return b.SearchEvents(ctx, index, req)
}

// EachEventPage walks every hit of req in pageSize-bounded pages using the
// streaming cursor, calling fn once per page. The request's From/Size/
// SearchAfter are overwritten by the pager; Sort and Query are honored. A
// non-nil error from fn stops the walk and is returned. The page is
// borrowed: a cached page is shared read-only with every reader the query
// cache answers, so fn may neither keep its events past the call nor modify
// them. EachRow reads a *Store's pages in place, with no copy.
func EachEventPage(ctx context.Context, b Backend, index string, req SearchRequest, pageSize int, fn func(EventsResult) error) error {
	req.From, req.Size, req.SearchAfter = 0, walkPage(pageSize), nil
	for {
		page, err := b.SearchEvents(ctx, index, req)
		if err != nil {
			return err
		}
		if err := fn(page); err != nil {
			return err
		}
		if len(page.Hits) < req.Size || page.NextAfter == nil {
			return nil
		}
		req.SearchAfter = page.NextAfter
	}
}

// walkPage is a walk's page size: pageSize, or 1000 when it is not positive.
func walkPage(pageSize int) int {
	if pageSize <= 0 {
		return 1000
	}
	return pageSize
}

// EachRow walks every hit of req as EachEventPage does, calling fn once per
// row. On the in-process *Store itself each page is one search whose merged
// rows fn reads in place, under the page's read locks, before the next
// page's cursor is placed at the page's last row: no page is copied or
// cached, req's aggregations are not computed, each page counts as one
// search, and ctx is checked between pages. The walk's buffers are its own,
// not a page's: it compiles req once, and allocates its read view, merge
// sources, loser tree and window for its first page and reuses them on
// every later one, so its allocations do not grow with its page count or
// its stripe count. Any other backend, a type embedding a *Store
// included, pages through EachEventPage, and each page's hits are packed, as
// MergeScatters packs a partition's, into one shard the walk empties and
// reuses page after page: fn reads one row form whatever the backend. The
// row is borrowed for the call: fn may not keep it, nor call back into the
// store, whose writers may be queued on the locks the page holds.
func EachRow(ctx context.Context, b Backend, index string, req SearchRequest, pageSize int, fn func(Row)) error {
	if s, ok := b.(*Store); ok {
		return s.eachRow(ctx, index, req, pageSize, fn)
	}
	sh := newShard()
	return EachEventPage(ctx, b, index, req, pageSize, func(page EventsResult) error {
		sh.reuse()
		for i := range page.Hits {
			fn(sh.row(sh.addEventLocked(&page.Hits[i])))
		}
		return nil
	})
}

// eachRow is EachRow on the store itself: one searchShards pass a page, all
// on one searchExec, so the walk compiles its query once and allocates its
// page memory (read view, sources, merge tree and window) for its first page
// and no other. Each page places the next one's cursor at its last row, in
// place.
func (s *Store) eachRow(ctx context.Context, index string, req SearchRequest, pageSize int, fn func(Row)) error {
	ix, err := s.lookup(index)
	if err != nil {
		return err
	}
	req.From, req.Size, req.SearchAfter, req.Aggs = 0, walkPage(pageSize), nil, nil
	exec := &searchExec{req: req}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		more := false
		start := time.Now()
		err := ix.searchShards(ctx, exec, nil, func(refs []hitRef, _ int, _ map[string]*AggPartial) {
			for i := range refs {
				fn(refs[i].sh.row(refs[i].id))
			}
			if more = len(refs) == req.Size; more {
				exec.cursor.at(&refs[len(refs)-1], exec.sorts)
			}
		})
		s.tm.searchNS.Observe(float64(time.Since(start)))
		if err != nil {
			return err
		}
		s.tm.searches.Inc()
		if !more {
			return nil
		}
		exec.cur = &exec.cursor
	}
}

// Documents renders the result for JSON — the /_search body of a node and of
// a coordinator alike. Each call builds fresh documents, so a result shared
// through the query cache cannot be edited through them.
func (r EventsResult) Documents() SearchResponse {
	hits := make([]Document, len(r.Hits))
	for i := range r.Hits {
		hits[i] = EventToDoc(&r.Hits[i])
	}
	return SearchResponse{Total: r.Total, Hits: hits, Aggs: r.Aggs, NextAfter: r.NextAfter}
}

// EventToDoc renders an event's Document view: what a JSON search response
// carries per hit and — as NDJSON — what DecodeBulkNDJSON parses back into
// the same event.
func EventToDoc(e *event.Event) Document {
	d := Document{
		FieldSession:    e.Session,
		FieldSyscall:    e.Syscall,
		FieldClass:      e.Class,
		FieldRetVal:     e.RetVal,
		FieldPID:        int64(e.PID),
		FieldTID:        int64(e.TID),
		FieldProcName:   e.ProcName,
		FieldThreadName: e.ThreadName,
		FieldTimeEnter:  e.TimeEnterNS,
		FieldTimeExit:   e.TimeExitNS,
		FieldDuration:   e.DurationNS(),
		FieldHasOffset:  e.HasOffset,
	}
	if e.FD != 0 {
		d[FieldFD] = int64(e.FD)
	}
	if e.ArgPath != "" {
		d[FieldArgPath] = e.ArgPath
	}
	if e.ArgPath2 != "" {
		d[FieldArgPath2] = e.ArgPath2
	}
	if e.Count != 0 {
		d[FieldCount] = int64(e.Count)
	}
	if e.ArgOff != 0 {
		d[FieldArgOffset] = e.ArgOff
	}
	if e.Whence != 0 {
		d[FieldWhence] = int64(e.Whence)
	}
	if e.Flags != 0 {
		d[FieldFlags] = int64(e.Flags)
	}
	if e.Mode != 0 {
		d[FieldMode] = int64(e.Mode)
	}
	if e.AttrName != "" {
		d[FieldAttrName] = e.AttrName
	}
	if !e.FileTag.Zero() {
		d[FieldFileTag] = e.FileTag.String()
		d[FieldDevNo] = int64(e.FileTag.Dev)
		d[FieldInodeNo] = int64(e.FileTag.Ino)
		d[FieldTagTS] = e.FileTag.BirthNS
	}
	if e.FileType != "" {
		d[FieldFileType] = e.FileType
	}
	if e.HasOffset {
		d[FieldOffset] = e.Offset
	}
	if e.KernelPath != "" {
		d[FieldKernelPath] = e.KernelPath
	}
	if e.FilePath != "" {
		d[FieldFilePath] = e.FilePath
	}
	return d
}
