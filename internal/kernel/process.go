package kernel

import "sync"

// OpenFlags are the open(2) flags supported by the simulated kernel.
type OpenFlags int

// Open flags (Linux x86-64 values where it matters for trace readability).
const (
	ORdonly    OpenFlags = 0x0
	OWronly    OpenFlags = 0x1
	ORdwr      OpenFlags = 0x2
	OCreat     OpenFlags = 0x40
	OExcl      OpenFlags = 0x80
	OTrunc     OpenFlags = 0x200
	OAppend    OpenFlags = 0x400
	ODirectory OpenFlags = 0x10000
)

func (f OpenFlags) readable() bool { return f&0x3 == ORdonly || f&0x3 == ORdwr }
func (f OpenFlags) writable() bool { return f&0x3 == OWronly || f&0x3 == ORdwr }

// openFile is an open file description: the object an fd points at. It owns
// the file offset, which is how the tracer can report offsets for read and
// write even though those syscalls do not carry one (paper §II-B).
type openFile struct {
	nd     *inode
	path   string // path used at open time
	flags  OpenFlags
	offset int64
}

// AT_FDCWD mirrors the Linux special dirfd value accepted by *at syscalls.
const AtFDCWD = -100

// DefaultMaxFDs mirrors RLIMIT_NOFILE: a process cannot hold more than
// this many open descriptors; opens beyond it fail with EMFILE.
const DefaultMaxFDs = 1024

// Process is a traced application process. Threads of a process share its
// file-descriptor table, as on Linux.
type Process struct {
	pid  int
	name string

	mu     sync.Mutex
	nextFD int
	maxFDs int
	fds    map[int]*openFile
	tasks  []*Task
	kern   *Kernel
}

// PID returns the process identifier.
func (p *Process) PID() int { return p.pid }

// Name returns the process name (comm).
func (p *Process) Name() string { return p.name }

// Task is a kernel thread of execution: the unit that issues syscalls. The
// paper's Fig. 4 aggregates events by thread name (db_bench, rocksdb:low0,
// ...), so tasks carry their own comm, distinct from the process name.
type Task struct {
	tid  int
	name string
	proc *Process
	k    *Kernel
}

// TID returns the thread identifier.
func (t *Task) TID() int { return t.tid }

// PID returns the owning process identifier.
func (t *Task) PID() int { return t.proc.pid }

// Name returns the thread name (thread comm).
func (t *Task) Name() string { return t.name }

// ProcessName returns the owning process name.
func (t *Task) ProcessName() string { return t.proc.name }

// Process returns the owning process.
func (t *Task) Process() *Process { return t.proc }

// NewTask adds a named thread to the process and returns it.
func (p *Process) NewTask(name string) *Task {
	p.kern.mu.Lock()
	tid := p.kern.nextID
	p.kern.nextID++
	p.kern.mu.Unlock()

	t := &Task{tid: tid, name: name, proc: p, k: p.kern}
	p.mu.Lock()
	p.tasks = append(p.tasks, t)
	p.mu.Unlock()
	p.kern.registerTask(t)
	return t
}

// reservedFD marks a descriptor number claimed by an in-flight open, the
// moral equivalent of Linux's get_unused_fd before fd_install.
var reservedFD = &openFile{}

// reserveFD claims the lowest free descriptor, enforcing the per-process
// limit (EMFILE is checked before any path resolution, as on Linux). It
// returns -1 when the table is full.
func (p *Process) reserveFD() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.fds) >= p.maxFDs {
		return -1
	}
	fd := p.nextFD
	for {
		if _, used := p.fds[fd]; !used {
			break
		}
		fd++
	}
	p.fds[fd] = reservedFD
	if fd == p.nextFD {
		p.nextFD = fd + 1
	}
	return fd
}

// fillFD installs the open file description into a reserved slot.
func (p *Process) fillFD(fd int, of *openFile) {
	p.mu.Lock()
	p.fds[fd] = of
	p.mu.Unlock()
}

// releaseFD returns a reserved slot after a failed open.
func (p *Process) releaseFD(fd int) {
	p.mu.Lock()
	delete(p.fds, fd)
	if fd < p.nextFD {
		p.nextFD = fd
	}
	p.mu.Unlock()
}

// SetMaxFDs adjusts the process descriptor limit (setrlimit-style); values
// below the current open count only affect future opens.
func (p *Process) SetMaxFDs(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > 0 {
		p.maxFDs = n
	}
}

// lookupFD returns the open file description for fd. Reserved slots from
// in-flight opens are invisible.
func (p *Process) lookupFD(fd int) (*openFile, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	of, ok := p.fds[fd]
	if of == reservedFD {
		return nil, false
	}
	return of, ok
}

// removeFD deletes fd from the table and returns its description.
func (p *Process) removeFD(fd int) (*openFile, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	of, ok := p.fds[fd]
	if ok && of == reservedFD {
		return nil, false
	}
	if ok {
		delete(p.fds, fd)
		if fd < p.nextFD {
			p.nextFD = fd
		}
	}
	return of, ok
}
