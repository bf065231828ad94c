// Package kernel implements a simulated POSIX storage kernel: a VFS with
// inode allocation and reuse, per-process file-descriptor tables, processes
// and named threads, a shared-bandwidth disk model, and a syscall layer that
// fires sys_enter/sys_exit tracepoints exactly like the Linux tracing
// infrastructure that DIO's eBPF programs attach to.
//
// The package substitutes for the real Linux kernel in this reproduction:
// all application workloads (the Fluent Bit forwarder, the LSM key-value
// store, the db_bench clients) issue their I/O through this kernel, and all
// tracers (DIO, the strace-style and sysdig-style comparators) observe it
// through the tracepoint registry.
package kernel

// Syscall identifies one of the storage-related system calls supported by
// the simulated kernel. The set matches Table I of the paper: 42 syscalls
// covering data, metadata, extended-attribute, and directory management
// requests.
type Syscall int

// The 42 storage-related syscalls of Table I.
const (
	// Data syscalls.
	SysRead Syscall = iota + 1
	SysPread64
	SysReadv
	SysWrite
	SysPwrite64
	SysWritev
	SysFsync
	SysFdatasync
	SysReadahead
	SysLseek

	// Open/close and file metadata syscalls.
	SysOpen
	SysOpenat
	SysCreat
	SysClose
	SysTruncate
	SysFtruncate
	SysRename
	SysRenameat
	SysRenameat2
	SysUnlink
	SysUnlinkat
	SysStat
	SysLstat
	SysFstat
	SysFstatfs

	// Extended attribute syscalls.
	SysGetxattr
	SysLgetxattr
	SysFgetxattr
	SysSetxattr
	SysLsetxattr
	SysFsetxattr
	SysListxattr
	SysLlistxattr
	SysFlistxattr
	SysRemovexattr
	SysLremovexattr
	SysFremovexattr

	// Directory management syscalls.
	SysMknod
	SysMknodat
	SysMkdir
	SysMkdirat
	SysRmdir

	syscallSentinel // keep last
)

// NumSyscalls is the number of syscalls the kernel exposes tracepoints for.
const NumSyscalls = int(syscallSentinel) - 1

// Class groups syscalls the way Table I does.
type Class int

// Syscall classes from Table I.
const (
	ClassData Class = iota + 1
	ClassMetadata
	ClassExtendedAttr
	ClassDirectory
)

// String returns the class label used in Table I.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassMetadata:
		return "metadata"
	case ClassExtendedAttr:
		return "extended attributes"
	case ClassDirectory:
		return "directory management"
	default:
		return "unknown"
	}
}

var syscallNames = [...]string{
	SysRead:         "read",
	SysPread64:      "pread64",
	SysReadv:        "readv",
	SysWrite:        "write",
	SysPwrite64:     "pwrite64",
	SysWritev:       "writev",
	SysFsync:        "fsync",
	SysFdatasync:    "fdatasync",
	SysReadahead:    "readahead",
	SysLseek:        "lseek",
	SysOpen:         "open",
	SysOpenat:       "openat",
	SysCreat:        "creat",
	SysClose:        "close",
	SysTruncate:     "truncate",
	SysFtruncate:    "ftruncate",
	SysRename:       "rename",
	SysRenameat:     "renameat",
	SysRenameat2:    "renameat2",
	SysUnlink:       "unlink",
	SysUnlinkat:     "unlinkat",
	SysStat:         "stat",
	SysLstat:        "lstat",
	SysFstat:        "fstat",
	SysFstatfs:      "fstatfs",
	SysGetxattr:     "getxattr",
	SysLgetxattr:    "lgetxattr",
	SysFgetxattr:    "fgetxattr",
	SysSetxattr:     "setxattr",
	SysLsetxattr:    "lsetxattr",
	SysFsetxattr:    "fsetxattr",
	SysListxattr:    "listxattr",
	SysLlistxattr:   "llistxattr",
	SysFlistxattr:   "flistxattr",
	SysRemovexattr:  "removexattr",
	SysLremovexattr: "lremovexattr",
	SysFremovexattr: "fremovexattr",
	SysMknod:        "mknod",
	SysMknodat:      "mknodat",
	SysMkdir:        "mkdir",
	SysMkdirat:      "mkdirat",
	SysRmdir:        "rmdir",
	syscallSentinel: "",
}

var syscallClasses = [...]Class{
	SysRead:         ClassData,
	SysPread64:      ClassData,
	SysReadv:        ClassData,
	SysWrite:        ClassData,
	SysPwrite64:     ClassData,
	SysWritev:       ClassData,
	SysFsync:        ClassData,
	SysFdatasync:    ClassData,
	SysReadahead:    ClassData,
	SysLseek:        ClassData,
	SysOpen:         ClassMetadata,
	SysOpenat:       ClassMetadata,
	SysCreat:        ClassMetadata,
	SysClose:        ClassMetadata,
	SysTruncate:     ClassMetadata,
	SysFtruncate:    ClassMetadata,
	SysRename:       ClassMetadata,
	SysRenameat:     ClassMetadata,
	SysRenameat2:    ClassMetadata,
	SysUnlink:       ClassMetadata,
	SysUnlinkat:     ClassMetadata,
	SysStat:         ClassMetadata,
	SysLstat:        ClassMetadata,
	SysFstat:        ClassMetadata,
	SysFstatfs:      ClassMetadata,
	SysGetxattr:     ClassExtendedAttr,
	SysLgetxattr:    ClassExtendedAttr,
	SysFgetxattr:    ClassExtendedAttr,
	SysSetxattr:     ClassExtendedAttr,
	SysLsetxattr:    ClassExtendedAttr,
	SysFsetxattr:    ClassExtendedAttr,
	SysListxattr:    ClassExtendedAttr,
	SysLlistxattr:   ClassExtendedAttr,
	SysFlistxattr:   ClassExtendedAttr,
	SysRemovexattr:  ClassExtendedAttr,
	SysLremovexattr: ClassExtendedAttr,
	SysFremovexattr: ClassExtendedAttr,
	SysMknod:        ClassDirectory,
	SysMknodat:      ClassDirectory,
	SysMkdir:        ClassDirectory,
	SysMkdirat:      ClassDirectory,
	SysRmdir:        ClassDirectory,
	syscallSentinel: 0,
}

// String returns the syscall name, e.g. "openat".
func (s Syscall) String() string {
	if s <= 0 || int(s) >= len(syscallNames) {
		return "unknown"
	}
	return syscallNames[s]
}

// Valid reports whether s is one of the supported syscalls.
func (s Syscall) Valid() bool {
	return s > 0 && s < syscallSentinel
}

// Class returns the Table I class of the syscall.
func (s Syscall) Class() Class {
	if !s.Valid() {
		return 0
	}
	return syscallClasses[s]
}

// AllSyscalls returns the full ordered list of supported syscalls.
func AllSyscalls() []Syscall {
	out := make([]Syscall, 0, NumSyscalls)
	for s := Syscall(1); s < syscallSentinel; s++ {
		out = append(out, s)
	}
	return out
}

// SyscallByName resolves a syscall name to its identifier. It returns false
// for names outside the supported set.
func SyscallByName(name string) (Syscall, bool) {
	for s := Syscall(1); s < syscallSentinel; s++ {
		if syscallNames[s] == name {
			return s, true
		}
	}
	return 0, false
}

// UsesFD reports whether the syscall's primary argument is a file
// descriptor (rather than a path). These are the syscalls that require the
// file-tag mechanism for path correlation.
func (s Syscall) UsesFD() bool {
	switch s {
	case SysRead, SysPread64, SysReadv, SysWrite, SysPwrite64, SysWritev,
		SysFsync, SysFdatasync, SysReadahead, SysLseek, SysClose,
		SysFtruncate, SysFstat, SysFstatfs,
		SysFgetxattr, SysFsetxattr, SysFlistxattr, SysFremovexattr:
		return true
	}
	return false
}
