package event

// Canonical field names of the trace-event schema. The store's documents,
// the query DSL, the correlation algorithm, and the visualizations all agree
// on these names; they are defined here, beside the Event they name, so that
// every layer spells them one way. What a stored row holds for each of them
// is the store's concern (its schema table), not the event's.
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

// Fields lists every schema field name.
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
