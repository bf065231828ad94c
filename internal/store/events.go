package store

import (
	"context"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Document field names for trace events, aliased from the event package —
// the schema's single source of truth — so queries, correlation, and
// visualizations keep their store.Field* spelling while the typed accessors
// (event.Event.Field/Visit) and this document view cannot drift apart.
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
// the *Client (binary frame, NDJSON downgrade) implement it. Implementations
// must not retain the events slice after returning: the tracer's drain
// workers recycle batch buffers through a pool.
type EventBackend interface {
	BulkEvents(ctx context.Context, index string, events []event.Event) error
}

// EventSearcher is the optional typed-search extension of Backend.
type EventSearcher interface {
	SearchEvents(ctx context.Context, index string, req SearchRequest) (EventsResult, error)
}

var (
	_ EventSearcher = (*Store)(nil)
	_ EventSearcher = (*Client)(nil)
)

// SearchEvents runs req through b's typed search when it has one; otherwise
// the document hits convert best-effort through the schema. Consumers
// (analysis, visualizations, replay) use this instead of hand-rolling
// DocToEvent loops over SearchResponse hits.
func SearchEvents(ctx context.Context, b Backend, index string, req SearchRequest) (EventsResult, error) {
	if es, ok := b.(EventSearcher); ok {
		return es.SearchEvents(ctx, index, req)
	}
	resp, err := b.Search(ctx, index, req)
	if err != nil {
		return EventsResult{}, err
	}
	hits := make([]event.Event, len(resp.Hits))
	for i, d := range resp.Hits {
		hits[i] = DocToEvent(d)
	}
	return EventsResult{Total: resp.Total, Hits: hits, Aggs: resp.Aggs, NextAfter: resp.NextAfter}, nil
}

// EachEventPage walks every hit of req in pageSize-bounded pages using the
// streaming cursor, calling fn once per page. The request's From/Size/
// SearchAfter are overwritten by the pager; Sort and Query are honored. A
// non-nil error from fn stops the walk and is returned.
func EachEventPage(ctx context.Context, b Backend, index string, req SearchRequest, pageSize int, fn func(EventsResult) error) error {
	if pageSize <= 0 {
		pageSize = 1000
	}
	req.From, req.Size, req.SearchAfter = 0, pageSize, nil
	for {
		page, err := SearchEvents(ctx, b, index, req)
		if err != nil {
			return err
		}
		if err := fn(page); err != nil {
			return err
		}
		if len(page.Hits) < pageSize || page.NextAfter == nil {
			return nil
		}
		req.SearchAfter = page.NextAfter
	}
}

// EventToDoc renders an event's Document view: what SearchResponse.Hits
// carries, what an UpdateByQuery script edits, and — as NDJSON — what
// DecodeBulkNDJSON parses back into the same event.
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

// DocToEvent reconstructs a trace event from a document (best-effort: the
// schema above is lossless for all fields the tracer emits).
func DocToEvent(d Document) event.Event {
	e := event.Event{
		Session:    str(d[FieldSession]),
		Syscall:    str(d[FieldSyscall]),
		Class:      str(d[FieldClass]),
		RetVal:     i64(d[FieldRetVal]),
		FD:         int(i64(d[FieldFD])),
		ArgPath:    str(d[FieldArgPath]),
		ArgPath2:   str(d[FieldArgPath2]),
		Count:      int(i64(d[FieldCount])),
		ArgOff:     i64(d[FieldArgOffset]),
		Whence:     int(i64(d[FieldWhence])),
		Flags:      int(i64(d[FieldFlags])),
		Mode:       uint32(i64(d[FieldMode])),
		AttrName:   str(d[FieldAttrName]),
		PID:        int(i64(d[FieldPID])),
		TID:        int(i64(d[FieldTID])),
		ProcName:   str(d[FieldProcName]),
		ThreadName: str(d[FieldThreadName]),

		TimeEnterNS: i64(d[FieldTimeEnter]),
		TimeExitNS:  i64(d[FieldTimeExit]),
		FileType:    str(d[FieldFileType]),
		KernelPath:  str(d[FieldKernelPath]),
		FilePath:    str(d[FieldFilePath]),
	}
	if tag := str(d[FieldFileTag]); tag != "" {
		if ft, err := event.ParseFileTag(tag); err == nil {
			e.FileTag = ft
		}
	}
	if b, ok := d[FieldHasOffset].(bool); ok && b {
		e.HasOffset = true
		e.Offset = i64(d[FieldOffset])
	}
	return e
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

func i64(v any) int64 {
	// Integer-typed values convert exactly: nanosecond timestamps exceed
	// 2^53, so a float64 round-trip would corrupt them.
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case uint64:
		return int64(x)
	}
	f, ok := numeric(v)
	if !ok {
		return 0
	}
	return int64(f)
}
