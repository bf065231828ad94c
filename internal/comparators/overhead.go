package comparators

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// OverheadResult is one row of Table II.
type OverheadResult struct {
	Mode     Mode
	Syscalls uint64
	// ExecTime is the workload's execution time in simulated (virtual)
	// time, where tracer costs are charged synchronously like the real
	// mechanisms would.
	ExecTime time.Duration
	// Overhead is ExecTime divided by the vanilla ExecTime.
	Overhead float64
}

// OverheadConfig parametrizes the Table II experiment.
type OverheadConfig struct {
	// Cycles is the number of workload cycles (each ≈20 syscalls).
	Cycles int
	// Costs is the per-syscall tracer cost model.
	Costs CostModel
	// Workload shapes the synthetic I/O stream.
	Workload WorkloadConfig
	// Disk configures the simulated device (zero = default).
	Disk kernel.DiskConfig
}

// RunOverheadExperiment reproduces Table II: it executes the same workload
// under the vanilla, Sysdig, DIO, and strace configurations on a virtual
// clock, charging each tracer's synchronous costs, and reports execution
// times and slowdowns. The simulation runs single-threaded so that the
// virtual clock advances only with the workload's own operations.
func RunOverheadExperiment(cfg OverheadConfig) ([]OverheadResult, error) {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 500
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCostModel()
	}

	out := make([]OverheadResult, 0, 4)
	var vanillaNS int64
	for _, mode := range AllModes() {
		execNS, syscalls, err := runMode(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", mode, err)
		}
		res := OverheadResult{Mode: mode, Syscalls: syscalls, ExecTime: time.Duration(execNS)}
		if mode == ModeVanilla {
			vanillaNS = execNS
		}
		if vanillaNS > 0 {
			res.Overhead = float64(execNS) / float64(vanillaNS)
		}
		out = append(out, res)
	}
	return out, nil
}

func runMode(mode Mode, cfg OverheadConfig) (execNS int64, syscalls uint64, err error) {
	clk := clock.NewVirtual(0)
	k := kernel.New(kernel.Config{Clock: clk, Disk: cfg.Disk})
	task := k.NewProcess("db_bench").NewTask("db_bench")

	var finish func() error
	switch mode {
	case ModeVanilla:
		finish = func() error { return nil }
	case ModeStrace:
		tr := NewStraceTracer(clk, cfg.Costs.StracePerSyscall)
		tr.Attach(k)
		finish = func() error { tr.Detach(); return nil }
	case ModeSysdig:
		tr := NewSysdigTracer(SysdigConfig{
			Clock:        clk,
			PerEventCost: cfg.Costs.SysdigPerSyscall,
			RingBytes:    1 << 30, // ample: this experiment measures cost, not drops
		})
		tr.Attach(k)
		finish = func() error { tr.Detach(); tr.Consume(); return nil }
	case ModeDIO:
		half := cfg.Costs.DIOPerSyscall / 2
		backend, oerr := store.Open()
		if oerr != nil {
			return 0, 0, oerr
		}
		tracer, terr := core.NewTracer(core.Config{
			SessionName: "table2-dio",
			Backend:     backend,
			RingBytes:   1 << 30,
			// The program charges this at both entry and exit.
			PerEventCost: func() { clk.Sleep(half) },
		})
		if terr != nil {
			return 0, 0, terr
		}
		if serr := tracer.Start(k); serr != nil {
			return 0, 0, serr
		}
		finish = func() error { _, e := tracer.Stop(); return e }
	default:
		return 0, 0, fmt.Errorf("unknown mode %v", mode)
	}

	start := clk.NowNS()
	if werr := RunWorkload(k, task, cfg.Workload, cfg.Cycles); werr != nil {
		finish()
		return 0, 0, werr
	}
	end := clk.NowNS()
	if ferr := finish(); ferr != nil {
		return 0, 0, ferr
	}
	return end - start, k.SyscallCount(), nil
}
