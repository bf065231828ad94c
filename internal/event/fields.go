package event

// Canonical field names of the trace-event schema. The store's documents,
// the query DSL, the correlation algorithm, and the visualizations all agree
// on these names; they are defined here (rather than in the store) so that
// typed accessors and the map-based document view cannot drift apart.
const (
	FieldSession    = "session"
	FieldSyscall    = "syscall"
	FieldClass      = "class"
	FieldRetVal     = "ret_val"
	FieldFD         = "fd"
	FieldArgPath    = "arg_path"
	FieldArgPath2   = "arg_path2"
	FieldCount      = "count"
	FieldArgOffset  = "arg_offset"
	FieldWhence     = "whence"
	FieldFlags      = "flags"
	FieldMode       = "mode"
	FieldAttrName   = "xattr_name"
	FieldPID        = "pid"
	FieldTID        = "tid"
	FieldProcName   = "proc_name"
	FieldThreadName = "thread_name"
	FieldTimeEnter  = "time_enter_ns"
	FieldTimeExit   = "time_exit_ns"
	FieldDuration   = "duration_ns"
	FieldFileTag    = "file_tag"
	FieldDevNo      = "dev_no"
	FieldInodeNo    = "inode_no"
	FieldTagTS      = "tag_timestamp"
	FieldFileType   = "file_type"
	FieldOffset     = "offset"
	FieldHasOffset  = "has_offset"
	FieldKernelPath = "kernel_path"
	FieldFilePath   = "file_path"
)

// Fields lists every schema field name, in the order Visit walks them.
func Fields() []string {
	return []string{
		FieldSession, FieldSyscall, FieldClass, FieldRetVal, FieldFD,
		FieldArgPath, FieldArgPath2, FieldCount, FieldArgOffset, FieldWhence,
		FieldFlags, FieldMode, FieldAttrName, FieldPID, FieldTID,
		FieldProcName, FieldThreadName, FieldTimeEnter, FieldTimeExit,
		FieldDuration, FieldFileTag, FieldDevNo, FieldInodeNo, FieldTagTS,
		FieldFileType, FieldOffset, FieldHasOffset, FieldKernelPath,
		FieldFilePath,
	}
}

// StringField returns the named string-typed field. ok is false for
// non-string fields and for absent values, with presence mirroring the
// document view exactly: session, syscall, class, proc_name, and thread_name
// are stored unconditionally by EventToDoc (even when empty) and so are
// always present, while the remaining string fields are present only when
// non-empty, matching the document view's omission of empty values.
func (e *Event) StringField(name string) (string, bool) {
	switch name {
	case FieldSession:
		return e.Session, true
	case FieldSyscall:
		return e.Syscall, true
	case FieldClass:
		return e.Class, true
	case FieldProcName:
		return e.ProcName, true
	case FieldThreadName:
		return e.ThreadName, true
	}
	var s string
	switch name {
	case FieldArgPath:
		s = e.ArgPath
	case FieldArgPath2:
		s = e.ArgPath2
	case FieldAttrName:
		s = e.AttrName
	case FieldFileTag:
		s = e.FileTag.String()
	case FieldFileType:
		s = e.FileType
	case FieldKernelPath:
		s = e.KernelPath
	case FieldFilePath:
		s = e.FilePath
	default:
		return "", false
	}
	return s, s != ""
}

// IntField returns the named field as an exact int64 (no float64 round-trip,
// which would corrupt nanosecond timestamps past 2^53), without boxing; a
// bool field reads as 0/1. Presence (ok) mirrors the document view exactly:
// optional fields that the document omits when zero (fd, count, arg_offset,
// whence, flags, mode, offset without has_offset, and the tag components
// without a tag) report ok=false, so range queries and aggregations evaluate
// identically through either representation.
func (e *Event) IntField(name string) (int64, bool) {
	switch name {
	case FieldHasOffset:
		if e.HasOffset {
			return 1, true
		}
		return 0, true
	case FieldRetVal:
		return e.RetVal, true
	case FieldPID:
		return int64(e.PID), true
	case FieldTID:
		return int64(e.TID), true
	case FieldTimeEnter:
		return e.TimeEnterNS, true
	case FieldTimeExit:
		return e.TimeExitNS, true
	case FieldDuration:
		return e.DurationNS(), true
	case FieldFD:
		return int64(e.FD), e.FD != 0
	case FieldCount:
		return int64(e.Count), e.Count != 0
	case FieldArgOffset:
		return e.ArgOff, e.ArgOff != 0
	case FieldWhence:
		return int64(e.Whence), e.Whence != 0
	case FieldFlags:
		return int64(e.Flags), e.Flags != 0
	case FieldMode:
		return int64(e.Mode), e.Mode != 0
	case FieldOffset:
		return e.Offset, e.HasOffset
	case FieldDevNo:
		return int64(e.FileTag.Dev), !e.FileTag.Zero()
	case FieldInodeNo:
		return int64(e.FileTag.Ino), !e.FileTag.Zero()
	case FieldTagTS:
		return e.FileTag.BirthNS, !e.FileTag.Zero()
	default:
		return 0, false
	}
}

// Field returns the named field as the document view represents it (string,
// int64, or bool), and whether the field is present under the document
// view's omission rules. Callers that know the field's kind should prefer
// StringField/IntField, which avoid boxing.
func (e *Event) Field(name string) (any, bool) {
	switch name {
	case FieldSession, FieldSyscall, FieldClass, FieldArgPath, FieldArgPath2,
		FieldAttrName, FieldProcName, FieldThreadName, FieldFileTag,
		FieldFileType, FieldKernelPath, FieldFilePath:
		s, ok := e.StringField(name)
		if !ok {
			return nil, false
		}
		return s, true
	case FieldHasOffset:
		return e.HasOffset, true
	default:
		n, ok := e.IntField(name)
		if !ok {
			return nil, false
		}
		return n, true
	}
}

// Visit calls fn for every present field in schema order, using the same
// value representation as Field. It lets downstream layers walk an event's
// fields without materializing a map.
func (e *Event) Visit(fn func(name string, value any)) {
	for _, name := range Fields() {
		if v, ok := e.Field(name); ok {
			fn(name, v)
		}
	}
}
