// Package replay re-executes a traced session against a fresh simulated
// kernel — the capability Re-Animator provides on real systems (Table III).
// It demonstrates that DIO's events carry everything needed to reproduce an
// application's storage behaviour: syscall types, arguments, descriptor
// lifetimes, offsets, and per-thread ordering.
//
// Data payloads are not recorded in traces (only sizes), so replay writes
// synthetic bytes of the original lengths; return values are checked
// against the trace, and divergences are reported.
package replay

import (
	"context"

	"fmt"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// Result summarizes a replay.
type Result struct {
	// Replayed counts re-executed events.
	Replayed int
	// Skipped counts events that could not be replayed (descriptor opened
	// before the trace started, unsupported syscall, missing path).
	Skipped int
	// Mismatches lists events whose replayed return value differed from
	// the traced one (bounded at 32 entries).
	Mismatches []string
}

// fdKey maps original (pid, fd) pairs to replayed descriptors.
type fdKey struct {
	pid int
	fd  int
}

// replayer carries the replay state.
type replayer struct {
	k     *kernel.Kernel
	procs map[int]*kernel.Process // original pid -> replay process
	tasks map[int]*kernel.Task    // original tid -> replay task
	fds   map[fdKey]int           // original (pid, fd) -> replay fd
	res   Result
}

// Session replays every event of the session (ordered by entry timestamp)
// against k. The backend may be in-process or remote.
func Session(b store.Backend, index, session string, k *kernel.Kernel) (Result, error) {
	resp, err := b.SearchEvents(context.Background(), index, store.SearchRequest{
		Query: store.Term(store.FieldSession, session),
		Sort:  []store.SortField{{Field: store.FieldTimeEnter}},
	})
	if err != nil {
		return Result{}, fmt.Errorf("replay query: %w", err)
	}
	r := &replayer{
		k:     k,
		procs: make(map[int]*kernel.Process),
		tasks: make(map[int]*kernel.Task),
		fds:   make(map[fdKey]int),
	}
	for i := range resp.Hits {
		r.replayEvent(&resp.Hits[i])
	}
	return r.res, nil
}

func (r *replayer) task(pid int, tid int, procName, threadName string) *kernel.Task {
	if t, ok := r.tasks[tid]; ok {
		return t
	}
	p, ok := r.procs[pid]
	if !ok {
		p = r.k.NewProcess(procName)
		r.procs[pid] = p
	}
	t := p.NewTask(threadName)
	r.tasks[tid] = t
	return t
}

func (r *replayer) mismatch(e *event.Event, got int64) {
	if len(r.res.Mismatches) >= 32 {
		return
	}
	r.res.Mismatches = append(r.res.Mismatches, fmt.Sprintf(
		"%s at t=%d: traced ret %d, replayed ret %d", e.Syscall, e.TimeEnterNS, e.RetVal, got))
}

func (r *replayer) replayEvent(e *event.Event) {
	t := r.task(e.PID, e.TID, e.ProcName, e.ThreadName)
	key := fdKey{e.PID, e.FD}
	lookupFD := func() (int, bool) {
		fd, ok := r.fds[key]
		return fd, ok
	}

	var (
		got     int64
		skipped bool
	)
	switch e.Syscall {
	case "open", "openat", "creat":
		// Ensure the parent directory exists in the replay environment.
		if i := lastSlash(e.ArgPath); i > 0 {
			r.k.MkdirAll(e.ArgPath[:i])
		}
		flags := kernel.OpenFlags(e.Flags)
		if e.Syscall == "creat" {
			flags = kernel.OWronly | kernel.OCreat | kernel.OTrunc
		}
		fd, err := t.Openat(kernel.AtFDCWD, e.ArgPath, flags, e.Mode)
		got = kernel.Ret(int64(fd), err)
		if err == nil && e.RetVal >= 0 {
			r.fds[fdKey{e.PID, int(e.RetVal)}] = fd
		}
	case "close":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		err := t.Close(fd)
		got = kernel.Ret(0, err)
		delete(r.fds, key)
	case "read", "readv":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		n, err := t.Read(fd, make([]byte, e.Count))
		got = kernel.Ret(int64(n), err)
	case "pread64":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		n, err := t.Pread64(fd, make([]byte, e.Count), e.ArgOff)
		got = kernel.Ret(int64(n), err)
	case "write", "writev":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		n, err := t.Write(fd, make([]byte, e.Count))
		got = kernel.Ret(int64(n), err)
	case "pwrite64":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		n, err := t.Pwrite64(fd, make([]byte, e.Count), e.ArgOff)
		got = kernel.Ret(int64(n), err)
	case "lseek":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		off, err := t.Lseek(fd, e.ArgOff, e.Whence)
		got = kernel.Ret(off, err)
	case "fsync":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		got = kernel.Ret(0, t.Fsync(fd))
	case "fdatasync":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		got = kernel.Ret(0, t.Fdatasync(fd))
	case "ftruncate":
		fd, ok := lookupFD()
		if !ok {
			skipped = true
			break
		}
		got = kernel.Ret(0, t.Ftruncate(fd, e.ArgOff))
	case "stat":
		_, err := t.Stat(e.ArgPath)
		got = kernel.Ret(0, err)
	case "lstat":
		_, err := t.Lstat(e.ArgPath)
		got = kernel.Ret(0, err)
	case "unlink":
		got = kernel.Ret(0, t.Unlink(e.ArgPath))
	case "unlinkat":
		got = kernel.Ret(0, t.Unlinkat(kernel.AtFDCWD, e.ArgPath, false))
	case "mkdir":
		got = kernel.Ret(0, t.Mkdir(e.ArgPath, e.Mode))
	case "mkdirat":
		got = kernel.Ret(0, t.Mkdirat(kernel.AtFDCWD, e.ArgPath, e.Mode))
	case "rmdir":
		got = kernel.Ret(0, t.Rmdir(e.ArgPath))
	case "rename":
		got = kernel.Ret(0, t.Rename(e.ArgPath, e.ArgPath2))
	case "renameat":
		got = kernel.Ret(0, t.Renameat(kernel.AtFDCWD, e.ArgPath, kernel.AtFDCWD, e.ArgPath2))
	case "renameat2":
		got = kernel.Ret(0, t.Renameat2(kernel.AtFDCWD, e.ArgPath, kernel.AtFDCWD, e.ArgPath2, 0))
	case "truncate":
		got = kernel.Ret(0, t.Truncate(e.ArgPath, e.ArgOff))
	case "setxattr":
		got = kernel.Ret(0, t.Setxattr(e.ArgPath, e.AttrName, make([]byte, e.Count)))
	case "getxattr":
		v, err := t.Getxattr(e.ArgPath, e.AttrName)
		got = kernel.Ret(int64(len(v)), err)
	default:
		skipped = true
	}

	if skipped {
		r.res.Skipped++
		return
	}
	r.res.Replayed++
	if got != e.RetVal {
		r.mismatch(e, got)
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
