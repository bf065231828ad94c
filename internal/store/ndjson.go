package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// bulkDoc is the NDJSON wire form of one event: the keys of the document
// view (what EventToDoc renders), each with its schema type. Decoding
// straight into sized integer fields is what makes the edge exact and strict
// — encoding/json parses the digits with no float64 in between (a
// time_enter_ns of 1687859999123456789 survives), and a string, a fraction,
// or an out-of-range value in an integer field fails naming the field.
type bulkDoc struct {
	Session    string `json:"session"`
	Syscall    string `json:"syscall"`
	Class      string `json:"class"`
	RetVal     int64  `json:"ret_val"`
	FD         int32  `json:"fd"`
	ArgPath    string `json:"arg_path"`
	ArgPath2   string `json:"arg_path2"`
	Count      int32  `json:"count"`
	ArgOff     int64  `json:"arg_offset"`
	Whence     int32  `json:"whence"`
	Flags      int32  `json:"flags"`
	Mode       uint32 `json:"mode"`
	AttrName   string `json:"xattr_name"`
	PID        int32  `json:"pid"`
	TID        int32  `json:"tid"`
	ProcName   string `json:"proc_name"`
	ThreadName string `json:"thread_name"`
	TimeEnter  int64  `json:"time_enter_ns"`
	TimeExit   *int64 `json:"time_exit_ns"`
	FileTag    string `json:"file_tag"`
	FileType   string `json:"file_type"`
	Offset     int64  `json:"offset"`
	HasOffset  bool   `json:"has_offset"`
	KernelPath string `json:"kernel_path"`
	FilePath   string `json:"file_path"`
	// The view's derived keys are type-checked and otherwise ignored — the
	// event computes them — except that a duration stands in for a missing
	// exit time.
	Duration *int64 `json:"duration_ns"`
	DevNo    int64  `json:"dev_no"`
	InodeNo  int64  `json:"inode_no"`
	TagTS    int64  `json:"tag_timestamp"`
}

// checkEventStrings rejects an event holding a string the binary frame — the
// journal's encoding — cannot carry whole, naming the field. The NDJSON edge
// runs it: the one door a caller-made string comes in by (correlation only
// copies a stored kernel path into file_path).
func checkEventStrings(e *event.Event) error {
	for f, s := range slotsOf(e) {
		if len(*s) <= math.MaxUint16 {
			continue
		}
		for name, d := range fieldTable {
			if d.kind == slotKind && d.slot == f {
				return fmt.Errorf("field %s: %d bytes exceed the %d-byte string limit", name, len(*s), math.MaxUint16)
			}
		}
	}
	return nil
}

// toEvent converts the decoded line, finishing the checks the field types
// cannot express: a parseable file tag, and strings the journal can hold.
func (d *bulkDoc) toEvent() (event.Event, error) {
	e := event.Event{
		Session: d.Session, Syscall: d.Syscall, Class: d.Class, RetVal: d.RetVal,
		FD: int(d.FD), ArgPath: d.ArgPath, ArgPath2: d.ArgPath2, Count: int(d.Count),
		ArgOff: d.ArgOff, Whence: int(d.Whence), Flags: int(d.Flags), Mode: d.Mode,
		AttrName: d.AttrName, PID: int(d.PID), TID: int(d.TID),
		ProcName: d.ProcName, ThreadName: d.ThreadName,
		TimeEnterNS: d.TimeEnter, FileType: d.FileType, HasOffset: d.HasOffset,
		KernelPath: d.KernelPath, FilePath: d.FilePath,
	}
	switch {
	case d.TimeExit != nil:
		e.TimeExitNS = *d.TimeExit
	case d.Duration != nil:
		e.TimeExitNS = d.TimeEnter + *d.Duration
	}
	if d.HasOffset {
		e.Offset = d.Offset
	}
	if d.FileTag != "" {
		ft, err := event.ParseFileTag(d.FileTag)
		if err != nil {
			return e, fmt.Errorf("field %s: %w", FieldFileTag, err)
		}
		e.FileTag = ft
	}
	return e, checkEventStrings(&e)
}

// DecodeBulkNDJSON parses the NDJSON encoding of POST /{index}/_bulk — the
// Elasticsearch bulk shape: an action line, then a document line, repeated —
// into events. It is the one place a JSON document becomes a row, shared by
// the node and coordinator servers, and it is strict: a document may hold
// schema fields only, each of its schema type, and every action line must be
// followed by its document. Any violation fails the whole body with an error
// naming the line and field, which both servers answer as 400.
func DecodeBulkNDJSON(r io.Reader) ([]event.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
	var events []event.Event
	line, expectDoc := 0, false
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		if b[0] != '{' || !json.Valid(b) {
			return nil, fmt.Errorf("line %d: not a JSON object", line)
		}
		if !expectDoc {
			// The action line, e.g. {"index":{}}: the index comes from the URL.
			expectDoc = true
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var d bulkDoc
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("line %d: bad document: %w", line, err)
		}
		e, err := d.toEvent()
		if err != nil {
			return nil, fmt.Errorf("line %d: bad document: %w", line, err)
		}
		events = append(events, e)
		expectDoc = false
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if expectDoc {
		return nil, fmt.Errorf("line %d: action line without a document", line)
	}
	return events, nil
}
