package ebpf

import (
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// ProgramConfig parametrizes the kernel-side tracing program.
type ProgramConfig struct {
	// Filter is applied in kernel space before records reach the rings.
	Filter Filter
	// NumCPU is the number of per-CPU ring buffers.
	NumCPU int
	// RingBytes is the capacity of each per-CPU ring, in bytes. The paper's
	// deployment used 256 MiB per core; benchmarks shrink it to provoke the
	// event-loss behaviour of §III-D.
	RingBytes int
	// PerEventCost optionally charges a synthetic cost (in spins of the
	// simulated clock) per traced event; used by the overhead experiments.
	// Nil means no extra cost.
	PerEventCost func()
	// EmitUnpaired disables the kernel-space entry/exit aggregation that
	// DIO, CaT, and Tracee perform: the program publishes one record at
	// sys_enter and another at sys_exit, doubling ring traffic and leaving
	// pairing to user space. Exists for the ablation benchmark of the
	// paper's design choice.
	EmitUnpaired bool
	// Telemetry, when non-nil, exposes the kernel-stage self-accounting
	// (capture/filter counters, ring produce/drop, ring occupancy). The
	// series read the counts the program and its rings keep anyway, so
	// recording costs the capture path nothing.
	Telemetry *telemetry.Registry
}

// DefaultRingBytes is the per-CPU ring capacity used when unset (scaled down
// from the paper's 256 MiB to suit in-memory simulation scales).
const DefaultRingBytes = 4 << 20

// Program is the kernel-side half of the tracer: one logical eBPF program
// pair (sys_enter + sys_exit) shared across all enabled tracepoints. It
// pairs entries with exits per thread in "kernel space", applies filters,
// and publishes binary records to per-CPU ring buffers.
type Program struct {
	cfg    ProgramConfig
	filter compiledFilter
	rings  *PerCPU
	fdMap  *fdInterestMap

	// pending pairs sys_enter with sys_exit per thread, as a real
	// implementation does with a BPF hash map keyed by thread ID.
	mu      sync.Mutex
	pending map[int]int64 // tid -> enter timestamp (args travel on Exit)

	captured atomic.Uint64 // records offered to a ring (pre-drop)
	filtered atomic.Uint64 // events rejected by kernel-side filters

	detaches []func()
}

// NewProgram creates a tracing program with its per-CPU rings.
func NewProgram(cfg ProgramConfig) *Program {
	if cfg.NumCPU < 1 {
		cfg.NumCPU = 1
	}
	if cfg.RingBytes <= 0 {
		cfg.RingBytes = DefaultRingBytes
	}
	p := &Program{
		cfg:     cfg,
		filter:  cfg.Filter.compile(),
		rings:   NewPerCPU(cfg.NumCPU, cfg.RingBytes),
		fdMap:   newFDInterestMap(),
		pending: make(map[int]int64),
	}
	if tm := cfg.Telemetry; tm != nil {
		// The series read the program's and the rings' own counts, so every
		// captured record lands in exactly one of produced or dropped and
		// Captured == Produced + RingDropped holds by construction.
		rings := p.rings
		tm.CounterFunc(telemetry.MetricCaptured, "events accepted by kernel-side filters", p.captured.Load)
		tm.CounterFunc(telemetry.MetricFiltered, "events rejected in kernel space", p.filtered.Load)
		tm.CounterFunc(telemetry.MetricRingProduced, "records written to per-CPU rings", rings.Writes)
		tm.CounterFunc(telemetry.MetricRingDropped, "records lost to full rings", rings.Drops)
		tm.GaugeFunc(telemetry.MetricRingPending, "records currently queued in rings",
			func() float64 { return float64(rings.Pending()) })
	}
	return p
}

// Rings exposes the per-CPU buffers to the user-space consumer.
func (p *Program) Rings() *PerCPU { return p.rings }

// Captured returns the number of events accepted by the filters (written or
// attempted against the rings).
func (p *Program) Captured() uint64 { return p.captured.Load() }

// Filtered returns the number of events rejected in kernel space.
func (p *Program) Filtered() uint64 { return p.filtered.Load() }

// Drops returns the number of events lost to full ring buffers.
func (p *Program) Drops() uint64 { return p.rings.Drops() }

// Attach enables the program on the filter's syscall set against k's
// tracepoints. Call Detach to remove it.
func (p *Program) Attach(k *kernel.Kernel) {
	tps := k.Tracepoints()
	for _, nr := range p.cfg.Filter.EnabledSyscalls() {
		p.detaches = append(p.detaches,
			tps.AttachEnter(nr, p.handleEnter),
			tps.AttachExit(nr, p.handleExit),
		)
	}
}

// Detach removes the program from all tracepoints and closes the rings.
func (p *Program) Detach() {
	for _, d := range p.detaches {
		d()
	}
	p.detaches = nil
	p.rings.Close()
}

func (p *Program) handleEnter(e *kernel.Enter) {
	if !p.filter.matchTask(e.PID, e.TID) {
		return
	}
	if p.cfg.EmitUnpaired {
		// Ablation mode: ship the raw entry record instead of stashing it
		// in the kernel map (user space must pair it with the exit).
		rec := Record{
			NR:       uint16(e.NR),
			PID:      int32(e.PID),
			TID:      int32(e.TID),
			EnterNS:  e.TimeNS,
			FD:       int32(e.Args.FD),
			Count:    int32(e.Args.Count),
			ArgOff:   e.Args.Offset,
			Whence:   int32(e.Args.Whence),
			Flags:    int32(e.Args.Flags),
			Mode:     e.Args.Mode,
			Comm:     truncate(e.ProcName, CommLen),
			TaskComm: truncate(e.TaskName, CommLen),
			Path:     truncate(e.Args.Path, MaxPathLen),
			Path2:    truncate(e.Args.Path2, MaxPathLen),
			AttrName: truncate(e.Args.AttrName, MaxPathLen),
		}
		p.captured.Add(1)
		p.rings.Write(e.TID, rec.Marshal())
	} else {
		p.mu.Lock()
		p.pending[e.TID] = e.TimeNS
		p.mu.Unlock()
	}
	if p.cfg.PerEventCost != nil {
		p.cfg.PerEventCost()
	}
}

func (p *Program) handleExit(e *kernel.Exit) {
	if !p.filter.matchTask(e.PID, e.TID) {
		return
	}
	var enterNS int64
	if p.cfg.EmitUnpaired {
		enterNS = e.TimeNS
	} else {
		p.mu.Lock()
		ns, ok := p.pending[e.TID]
		if ok {
			delete(p.pending, e.TID)
		}
		p.mu.Unlock()
		if !ok {
			// Exit without a matching entry (attached mid-syscall); keep
			// the exit timestamp as the best available approximation.
			ns = e.TimeNS
		}
		enterNS = ns
	}

	if !p.passPathFilter(e) {
		p.filtered.Add(1)
		return
	}

	rec := RecordFromExit(e)
	rec.EnterNS = enterNS
	p.captured.Add(1)
	p.rings.Write(e.TID, rec.Marshal()) // a full ring counts the drop
	if p.cfg.PerEventCost != nil {
		p.cfg.PerEventCost()
	}
}

// passPathFilter applies the path-prefix filter. Path-based syscalls match
// on their argument path; fd-based syscalls consult the fd-interest map,
// which successful opens of matching paths populate.
func (p *Program) passPathFilter(e *kernel.Exit) bool {
	if !p.filter.hasPathFilter() {
		return true
	}
	nr := e.NR
	switch {
	case nr == kernel.SysOpen || nr == kernel.SysOpenat || nr == kernel.SysCreat:
		if !p.filter.matchPath(e.Args.Path) {
			return false
		}
		if e.Ret >= 0 {
			p.fdMap.add(e.PID, int(e.Ret))
		}
		return true
	case nr == kernel.SysClose:
		ok := p.fdMap.has(e.PID, e.Args.FD)
		if ok {
			p.fdMap.remove(e.PID, e.Args.FD)
		}
		return ok
	case nr.UsesFD():
		return p.fdMap.has(e.PID, e.Args.FD)
	case nr == kernel.SysRename || nr == kernel.SysRenameat || nr == kernel.SysRenameat2:
		return p.filter.matchPath(e.Args.Path) || p.filter.matchPath(e.Args.Path2)
	default:
		return p.filter.matchPath(e.Args.Path)
	}
}
