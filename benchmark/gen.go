package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
)

// hashPrefix is how many syscalls of a generator's sequence fold into its
// printed hash. An open-loop run issues a timing-dependent number of
// syscalls, so only a fixed prefix is comparable between runs.
const hashPrefix = 50000

// The shared op mix's syscalls, in tally order.
const (
	opOpenat = iota
	opWrite
	opPread
	opLseek
	opRead
	opClose
	numOps
)

var opNames = [numOps]string{"openat", "write", "pread64", "lseek", "read", "close"}

// opGen issues the shared op mix on one traced task: per file visit one
// openat, opsPerVisit ops drawn by the seeded RNG from {write 512 B, pread64
// 4 KiB at a random block, lseek, read}, one close, over liveFiles files.
// Every syscall succeeds by construction; one that does not is a failed op.
type opGen struct {
	rng    *rand.Rand
	task   *kernel.Task
	fd     int
	left   int
	wbuf   [512]byte
	rbuf   [4096]byte
	issued int
	failed int
	counts [numOps]int
	hash   uint64
}

func newOpGen(task *kernel.Task, seed int64) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed)), task: task, fd: -1, hash: 14695981039346656037}
}

func liveFile(i int) string { return fmt.Sprintf("/bench/f%02d.dat", i) }

// fold mixes one syscall (its kind and argument) into the sequence hash.
func (g *opGen) fold(op int, arg int64) {
	g.counts[op]++
	g.issued++
	if g.issued > hashPrefix {
		return
	}
	for _, b := range [9]byte{byte(op), byte(arg), byte(arg >> 8), byte(arg >> 16), byte(arg >> 24),
		byte(arg >> 32), byte(arg >> 40), byte(arg >> 48), byte(arg >> 56)} {
		g.hash = (g.hash ^ uint64(b)) * 1099511628211
	}
}

// step issues exactly one syscall.
func (g *opGen) step() {
	var err error
	switch {
	case g.fd < 0:
		f := g.rng.Intn(liveFiles)
		g.fold(opOpenat, int64(f))
		g.fd, err = g.task.Openat(kernel.AtFDCWD, liveFile(f), kernel.ORdwr|kernel.OCreat, 0o644)
		g.left = opsPerVisit
	case g.left == 0:
		g.fold(opClose, 0)
		err = g.task.Close(g.fd)
		g.fd = -1
	default:
		g.left--
		switch g.rng.Intn(4) {
		case 0:
			g.fold(opWrite, 512)
			_, err = g.task.Write(g.fd, g.wbuf[:])
		case 1:
			off := int64(g.rng.Intn(16)) * 4096
			g.fold(opPread, off)
			_, err = g.task.Pread64(g.fd, g.rbuf[:], off)
		case 2:
			off := int64(g.rng.Intn(16)) * 512
			g.fold(opLseek, off)
			_, err = g.task.Lseek(g.fd, off, kernel.SeekSet)
		default:
			g.fold(opRead, 4096)
			_, err = g.task.Read(g.fd, g.rbuf[:])
		}
	}
	if err != nil {
		g.failed++
	}
}

// finish closes a visit left open, so every openat has its close.
func (g *opGen) finish() {
	for g.fd >= 0 {
		g.step()
	}
}

// runOpenLoop issues g's syscalls on a fixed schedule of rate per second for
// dur, whether or not the pipeline behind the tracer keeps up. Each burst
// records how late its oldest due syscall was issued.
func runOpenLoop(g *opGen, rate float64, dur time.Duration, rec *recorder, late *samples) {
	start := time.Now()
	issued := 0
	for {
		el := time.Since(start)
		if el >= dur {
			return
		}
		if due := int(el.Seconds() * rate); due > issued {
			late.add(ms(el) - float64(issued)/rate*1000)
			id := rec.begin("gen.burst", 0)
			for ; issued < due; issued++ {
				g.step()
			}
			rec.end(id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// seqHash folds several generators' prefix hashes into the printed one.
func seqHash(gens []*opGen) string {
	h := fnv.New64a()
	for _, g := range gens {
		fmt.Fprintf(h, "%016x", g.hash)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Cold history: coldChunks trace-minutes of deterministic events, one event
// every coldStride ns. Base and stride are multiples of 256 so every stamp
// survives the query DSL's float64 range bounds exactly (the ulp at 1.6e18
// is 256), which is what makes the closed-form expectations exact.
const (
	coldBase    = kernel.BaseTimestampNS &^ (1<<20 - 1)
	coldMinute  = int64(60e9)
	coldSession = "cold"
)

var coldSyscalls = []string{"read", "write", "pread64", "openat", "close"}

type coldHistory struct {
	rows   int
	stride int64
	// prefix[s][g] is how many of the first g events (global order) are
	// syscall s; the closed-form answer to any window's terms(syscall).
	prefix [][]int32
	kinds  []uint8
}

func newColdHistory(seed int64, chunks, rows int) *coldHistory {
	h := &coldHistory{rows: rows, stride: (coldMinute / int64(rows)) &^ 255}
	rng := rand.New(rand.NewSource(seed))
	n := chunks * rows
	h.kinds = make([]uint8, n)
	h.prefix = make([][]int32, len(coldSyscalls))
	for s := range h.prefix {
		h.prefix[s] = make([]int32, n+1)
	}
	for g := 0; g < n; g++ {
		k := uint8(rng.Intn(len(coldSyscalls)))
		h.kinds[g] = k
		for s := range h.prefix {
			h.prefix[s][g+1] = h.prefix[s][g]
		}
		h.prefix[k][g+1]++
	}
	return h
}

// timeOf is the time_enter_ns of global event g.
func (h *coldHistory) timeOf(g int) int64 {
	return coldBase + int64(g/h.rows)*coldMinute + int64(g%h.rows)*h.stride
}

// chunk materializes trace-minute c.
func (h *coldHistory) chunk(c int) []event.Event {
	evs := make([]event.Event, h.rows)
	for i := range evs {
		g := c*h.rows + i
		enter := h.timeOf(g)
		name := coldSyscalls[h.kinds[g]]
		evs[i] = event.Event{
			Session: coldSession, Syscall: name, Class: "file",
			ProcName: "app", ThreadName: fmt.Sprintf("w%d", g%4),
			PID: 100, TID: 101 + g%4, RetVal: 4096, FD: 5, Count: 4096,
			TimeEnterNS: enter, TimeExitNS: enter + 700,
		}
	}
	return evs
}

// expect returns the total and per-syscall counts of global events [g0, g1).
func (h *coldHistory) expect(g0, g1 int) (int, map[string]int) {
	buckets := map[string]int{}
	for s, name := range coldSyscalls {
		if n := int(h.prefix[s][g1] - h.prefix[s][g0]); n > 0 {
			buckets[name] = n
		}
	}
	return g1 - g0, buckets
}

// Diagnosis sessions: four tasks of one process, round-robined by a single
// goroutine on a virtual ticking clock, so the same seed yields the same
// event bytes. A clean visit is openat, k sequential 4 KiB writes, lseek to
// 0, k sequential 4 KiB reads, close: no detector fires on it. The buggy
// session swaps some visits for the anti-patterns the engine exists to find.
type sessionGen struct {
	rng    *rand.Rand
	buggy  bool
	tasks  []*kernel.Task
	script [][]func(*sessionGen, int) error // per task: the rest of its visit
	fds    []int
	visits []int
	failed int
	issued int
	buf    [4096]byte
}

func sessionFile(task, i int) string { return fmt.Sprintf("/bench/t%d-f%02d.dat", task, i) }

func newSessionGen(k *kernel.Kernel, seed int64, buggy bool) *sessionGen {
	g := &sessionGen{rng: rand.New(rand.NewSource(seed)), buggy: buggy}
	proc := k.NewProcess("app")
	for i := 0; i < 4; i++ {
		g.tasks = append(g.tasks, proc.NewTask(fmt.Sprintf("w%d", i)))
	}
	g.script = make([][]func(*sessionGen, int) error, 4)
	g.fds = make([]int, 4)
	g.visits = make([]int, 4)
	return g
}

func opOpen(path string, flags kernel.OpenFlags) func(*sessionGen, int) error {
	return func(g *sessionGen, t int) (err error) {
		g.fds[t], err = g.tasks[t].Openat(kernel.AtFDCWD, path, flags, 0o644)
		return err
	}
}

func opCloseFD(g *sessionGen, t int) error { return g.tasks[t].Close(g.fds[t]) }

func opWrite4K(g *sessionGen, t int) error {
	_, err := g.tasks[t].Write(g.fds[t], g.buf[:])
	return err
}

func opRead4K(g *sessionGen, t int) error {
	_, err := g.tasks[t].Read(g.fds[t], g.buf[:])
	return err
}

func opSeek(off int64, whence int) func(*sessionGen, int) error {
	return func(g *sessionGen, t int) error {
		_, err := g.tasks[t].Lseek(g.fds[t], off, whence)
		return err
	}
}

// nextVisit plans task t's next visit. Files are private to a task (16 each)
// so one task's unlink never races another's open descriptor.
func (g *sessionGen) nextVisit(t int) []func(*sessionGen, int) error {
	v := g.visits[t]
	g.visits[t]++
	path := sessionFile(t, g.rng.Intn(liveFiles/4))
	k := 4 + g.rng.Intn(5)
	if g.buggy {
		switch {
		case t == 0 && v%8 == 3:
			// read↔lseek ping-pong: reposition between consecutive reads.
			ops := []func(*sessionGen, int) error{opOpen(path, kernel.ORdwr|kernel.OCreat)}
			for i := 0; i < 8; i++ {
				ops = append(ops, opRead4K, opSeek(0, kernel.SeekCur))
			}
			return append(ops, opCloseFD)
		case t == 1 && v%40 == 7:
			// Stale-offset read: the file is unlinked and recreated, and the
			// reader resumes at its remembered offset past the new EOF.
			tail := fmt.Sprintf("/bench/t1-tail-%d.log", v)
			return []func(*sessionGen, int) error{
				opOpen(tail, kernel.ORdwr|kernel.OCreat), opWrite4K, opWrite4K, opCloseFD,
				func(g *sessionGen, t int) error { return g.tasks[t].Unlink(tail) },
				opOpen(tail, kernel.ORdwr|kernel.OCreat), opSeek(8192, kernel.SeekSet), opRead4K, opCloseFD,
			}
		case t == 2 && v%10 == 5:
			// A failing openat (ENOENT), on purpose: the traced application's
			// error, not a failed benchmark operation.
			missing := fmt.Sprintf("/bench/missing-%d", v)
			return []func(*sessionGen, int) error{func(g *sessionGen, t int) error {
				if _, err := g.tasks[t].Openat(kernel.AtFDCWD, missing, kernel.ORdonly, 0); err != kernel.ENOENT {
					return fmt.Errorf("openat %s: want ENOENT, got %v", missing, err)
				}
				return nil
			}}
		}
	}
	ops := []func(*sessionGen, int) error{opOpen(path, kernel.ORdwr|kernel.OCreat)}
	for i := 0; i < k; i++ {
		ops = append(ops, opWrite4K)
	}
	ops = append(ops, opSeek(0, kernel.SeekSet))
	for i := 0; i < k; i++ {
		ops = append(ops, opRead4K)
	}
	return append(ops, opCloseFD)
}

// step issues one syscall on task t, planning a new visit when the last one
// is done; more=false stops planning so open visits can run out.
func (g *sessionGen) step(t int, more bool) {
	if len(g.script[t]) == 0 {
		if !more {
			return
		}
		g.script[t] = g.nextVisit(t)
	}
	op := g.script[t][0]
	g.script[t] = g.script[t][1:]
	g.issued++
	if err := op(g, t); err != nil {
		g.failed++
	}
}

// run issues about n syscalls round-robin, then lets every open visit end.
// pace is called between rounds so the caller can keep the rings lossless.
func (g *sessionGen) run(n int, pace func()) {
	for g.issued < n {
		for t := range g.tasks {
			g.step(t, true)
		}
		if g.issued%1024 < len(g.tasks) {
			pace()
		}
	}
	for open := true; open; {
		open = false
		for t := range g.tasks {
			if len(g.script[t]) > 0 {
				g.step(t, false)
				open = true
			}
		}
	}
}
