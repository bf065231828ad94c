package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/comparators"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// PathsConfig parametrizes the §III-D path-coverage comparison.
type PathsConfig struct {
	// HotFiles is the number of long-lived files opened before tracing
	// starts (like RocksDB's WAL and already-open SSTables).
	HotFiles int
	// Ops is the number of traced I/O operations.
	Ops int
	// HotFraction is the share of operations against the pre-opened files.
	HotFraction float64
	// SysdigRingBytes is the Sysdig ring size (its small default loses
	// more events, poisoning its fd-table reconstruction).
	SysdigRingBytes int
	// Seed fixes the operation mix.
	Seed int64
}

func (c PathsConfig) withDefaults() PathsConfig {
	if c.HotFiles <= 0 {
		c.HotFiles = 8
	}
	if c.Ops <= 0 {
		c.Ops = 5_000
	}
	if c.HotFraction <= 0 {
		// Cold operations emit three events each (open, write, close), so a
		// 0.71 op-level hot share puts ≈45% of *events* on the pre-opened
		// descriptors — the paper's Sysdig blind spot.
		c.HotFraction = 0.71
	}
	if c.SysdigRingBytes <= 0 {
		c.SysdigRingBytes = comparators.SysdigDefaultRingBytes
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PathsResult compares path-resolution coverage between DIO and Sysdig.
type PathsResult struct {
	// DIOUnresolved is the fraction of DIO's tagged events without a path
	// after correlation (paper: up to 5%).
	DIOUnresolved float64
	// SysdigUnresolved is the fraction of Sysdig's consumed events without
	// a path (paper: 45%).
	SysdigUnresolved float64
	DIOStats         core.Stats
	SysdigStats      comparators.SysdigStats
	Table            *viz.Table
}

// RunPathResolution reproduces §III-D's coverage comparison. Both tracers
// watch the same workload: a set of hot files opened before tracing
// started receives ≈45% of the I/O, while the rest goes to files opened
// and closed within the session.
//
// DIO resolves the hot files' events because its kernel-side file tags are
// anchored by any in-session path-carrying syscall on the same file
// (periodic stat calls here; re-opens in RocksDB). Sysdig reconstructs
// fd→path mappings purely from the open events it consumed, so descriptors
// opened before attach — and descriptors whose open event was dropped —
// stay unresolved forever.
func RunPathResolution(cfg PathsConfig) (PathsResult, error) {
	cfg = cfg.withDefaults()
	k := kernel.New(kernel.Config{
		Clock: clock.NewReal(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	if err := k.MkdirAll("/data"); err != nil {
		return PathsResult{}, err
	}
	task := k.NewProcess("app").NewTask("app")

	// Phase 0 (untraced): open the hot files.
	hotFDs := make([]int, cfg.HotFiles)
	hotPaths := make([]string, cfg.HotFiles)
	for i := range hotFDs {
		hotPaths[i] = fmt.Sprintf("/data/hot%02d.dat", i)
		fd, err := task.Openat(kernel.AtFDCWD, hotPaths[i], kernel.ORdwr|kernel.OCreat, 0o644)
		if err != nil {
			return PathsResult{}, err
		}
		hotFDs[i] = fd
	}

	// Attach both tracers.
	backend, err := store.Open()
	if err != nil {
		return PathsResult{}, err
	}
	dio, err := core.NewTracer(core.Config{
		SessionName:   "paths-dio",
		Index:         "dio-events",
		Backend:       backend,
		RingBytes:     16 << 20, // the paper gives DIO a generous buffer
		FlushInterval: 2 * time.Millisecond,
		AutoCorrelate: true,
	})
	if err != nil {
		return PathsResult{}, err
	}
	if err := dio.Start(k); err != nil {
		return PathsResult{}, err
	}
	sysdig := comparators.NewSysdigTracer(comparators.SysdigConfig{
		Clock:     k.Clock(),
		RingBytes: cfg.SysdigRingBytes,
	})
	sysdig.Attach(k)

	// Phase 1 (traced): mixed I/O.
	rng := rand.New(rand.NewSource(cfg.Seed))
	buf := make([]byte, 512)
	for i := 0; i < cfg.Ops; i++ {
		if rng.Float64() < cfg.HotFraction {
			j := rng.Intn(len(hotFDs))
			if _, err := task.Write(hotFDs[j], buf); err != nil {
				return PathsResult{}, err
			}
			// Periodic stats anchor the hot files' tags for DIO; cycling
			// round-robin guarantees every hot file gets an anchor.
			if i%64 == 0 {
				task.Stat(hotPaths[(i/64)%len(hotPaths)])
			}
		} else {
			p := fmt.Sprintf("/data/cold%04d.dat", i)
			fd, oerr := task.Openat(kernel.AtFDCWD, p, kernel.OWronly|kernel.OCreat, 0o644)
			if oerr != nil {
				return PathsResult{}, oerr
			}
			task.Write(fd, buf)
			task.Close(fd)
		}
		// Sysdig's consumer keeps pace only partially: it drains every few
		// hundred operations, so bursts overflow its small ring.
		if i%512 == 0 {
			sysdig.Consume()
		}
	}

	sysdig.Detach()
	sysdig.Consume()
	dioStats, serr := dio.Stop()
	if serr != nil {
		return PathsResult{}, serr
	}
	sysStats := sysdig.Stats()

	res := PathsResult{
		DIOUnresolved:    dioStats.Correlation.UnresolvedFraction(),
		SysdigUnresolved: sysStats.UnresolvedFraction(),
		DIOStats:         dioStats,
		SysdigStats:      sysStats,
	}
	res.Table = &viz.Table{
		Title:   "§III-D: events without resolvable file paths",
		Columns: []string{"tracer", "events", "unresolved", "unresolved %"},
		Rows: [][]string{
			{
				"DIO",
				fmt.Sprintf("%d", dioStats.Correlation.EventsWithTag),
				fmt.Sprintf("%d", dioStats.Correlation.EventsUnresolved),
				fmt.Sprintf("%.1f%%", res.DIOUnresolved*100),
			},
			{
				"Sysdig",
				fmt.Sprintf("%d", sysStats.Consumed),
				fmt.Sprintf("%d", sysStats.Unresolved),
				fmt.Sprintf("%.1f%%", res.SysdigUnresolved*100),
			},
		},
	}
	return res, nil
}
