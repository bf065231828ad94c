package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/dbbench"
	"github.com/dsrhaslab/dio-go/internal/apps/lsmkv"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/metrics"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// RocksDBConfig parametrizes the §III-C reproduction. The defaults shrink
// the paper's 5-hour run to a few wall-clock seconds while preserving the
// mechanism: a shared disk, 8 closed-loop clients, 1 flush thread, and 7
// compaction threads whose bursts of I/O inflate client tail latency.
type RocksDBConfig struct {
	// Duration is the timed benchmark phase.
	Duration time.Duration
	// Clients is the number of db_bench threads.
	Clients int
	// CompactionThreads is the number of rocksdb:lowX threads.
	CompactionThreads int
	// KeyCount / ValueBytes shape the YCSB-A workload.
	KeyCount   int
	ValueBytes int
	// WindowNS is the latency/timeline window width.
	WindowNS int64
	// Trace enables DIO tracing of the run (Fig. 4 needs it; a vanilla
	// latency-only run for Fig. 3 can disable it).
	Trace bool
	// RingBytes overrides the tracer's per-CPU ring capacity.
	RingBytes int
}

func (c RocksDBConfig) withDefaults() RocksDBConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.CompactionThreads <= 0 {
		c.CompactionThreads = 7
	}
	if c.KeyCount <= 0 {
		c.KeyCount = 5_000
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 512
	}
	if c.WindowNS <= 0 {
		c.WindowNS = int64(100 * time.Millisecond)
	}
	return c
}

// WindowActivity summarizes one time window of the RocksDB run, joining
// the client-side latency view (Fig. 3) with the thread-level syscall view
// (Fig. 4).
type WindowActivity struct {
	StartNS int64
	// P99NS is the 99th percentile client latency in the window.
	P99NS float64
	// ClientOps is the number of client operations completed.
	ClientOps int
	// ClientSyscalls is the number of db_bench syscalls traced (Fig. 4's
	// db_bench series).
	ClientSyscalls int
	// CompactionThreadsActive is how many distinct rocksdb:lowX threads
	// issued syscalls in the window (the red-box indicator of Fig. 4).
	CompactionThreadsActive int
	// CompactionSyscalls counts their syscalls.
	CompactionSyscalls int
	// FlushSyscalls counts rocksdb:high0 syscalls.
	FlushSyscalls int
}

// RocksDBResult is the output of the §III-C reproduction.
type RocksDBResult struct {
	// Latency is the Fig. 3 series (p99 per window).
	Latency []metrics.WindowPoint
	// Timeline is the Fig. 4 view (syscalls per window per thread).
	Timeline *viz.TimeSeries
	// Windows joins both views for analysis.
	Windows []WindowActivity
	// Bench summarizes the client workload.
	Bench dbbench.Result
	// Tracer summarizes the DIO session (zero when tracing is disabled).
	Tracer core.Stats
	// Backend retains the store for further queries (nil when untraced).
	Backend *store.Store
	Session string
	Index   string
}

// ContentionCorrelation returns the mean p99 latency of windows where at
// least minBusy compaction threads were active versus windows with at most
// maxQuiet active — the quantified version of the paper's Fig. 3/4
// contrast between intervals with ≥5 compacting threads and intervals with
// only 1–2. Windows in between are ignored.
func (r *RocksDBResult) ContentionCorrelation(minBusy, maxQuiet int) (busyP99, quietP99 float64, busyN, quietN int) {
	var busySum, quietSum float64
	for _, w := range r.Windows {
		if w.ClientOps == 0 {
			continue
		}
		switch {
		case w.CompactionThreadsActive >= minBusy:
			busySum += w.P99NS
			busyN++
		case w.CompactionThreadsActive <= maxQuiet:
			quietSum += w.P99NS
			quietN++
		}
	}
	if busyN > 0 {
		busyP99 = busySum / float64(busyN)
	}
	if quietN > 0 {
		quietP99 = quietSum / float64(quietN)
	}
	return busyP99, quietP99, busyN, quietN
}

// RunRocksDB reproduces Figures 3 and 4: it runs db_bench (YCSB-A) against
// the LSM store on a shared disk while DIO traces the open/read/write/close
// syscalls of the database process, then builds the latency series and the
// per-thread syscall timeline.
func RunRocksDB(cfg RocksDBConfig) (RocksDBResult, error) {
	cfg = cfg.withDefaults()
	// A modest disk makes background compaction I/O contend visibly with
	// foreground requests, as in the paper's testbed.
	k := kernel.New(kernel.Config{
		Clock: clock.NewReal(0),
		// A modest device: foreground requests are cheap (hundreds of
		// bytes), while compaction jobs stream hundreds of kilobytes and
		// occupy the queue for milliseconds at a time.
		Disk: kernel.DiskConfig{
			BytesPerSecond: 50 << 20,
			PerOpLatency:   20 * time.Microsecond,
		},
	})

	db, err := lsmkv.Open(k, lsmkv.Config{
		Dir:               "/db",
		MemtableBytes:     96 << 10,
		L0CompactTrigger:  4,
		L0StallTrigger:    10,
		LevelBaseBytes:    256 << 10,
		LevelMultiplier:   4,
		MaxLevels:         5,
		TargetFileBytes:   128 << 10,
		CompactionThreads: cfg.CompactionThreads,
	})
	if err != nil {
		return RocksDBResult{}, fmt.Errorf("open db: %w", err)
	}
	defer db.Close()

	benchCfg := dbbench.Config{
		Clients:     cfg.Clients,
		Duration:    cfg.Duration,
		KeyCount:    cfg.KeyCount,
		ValueBytes:  cfg.ValueBytes,
		PreloadKeys: cfg.KeyCount,
		WindowNS:    cfg.WindowNS,
	}
	if err := dbbench.Preload(db, benchCfg); err != nil {
		return RocksDBResult{}, fmt.Errorf("preload: %w", err)
	}

	res := RocksDBResult{Index: "dio-events", Session: "rocksdb-ycsb-a"}
	var tracer *core.Tracer
	if cfg.Trace {
		if res.Backend, err = store.Open(); err != nil {
			return RocksDBResult{}, err
		}
		tracer, err = core.NewTracer(core.Config{
			SessionName: res.Session,
			Index:       res.Index,
			Backend:     res.Backend,
			// The paper configures DIO to capture exclusively open, read,
			// write, and close; the simulated store also uses the *at and
			// p* variants, which the paper's tracer treats as the same
			// operations.
			Filter: ebpf.Filter{
				Syscalls: []kernel.Syscall{
					kernel.SysOpen, kernel.SysOpenat,
					kernel.SysRead, kernel.SysPread64,
					kernel.SysWrite, kernel.SysPwrite64,
					kernel.SysClose,
				},
				PIDs: []int{db.Process().PID()},
			},
			NumCPU:        4,
			RingBytes:     cfg.RingBytes,
			FlushInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return RocksDBResult{}, fmt.Errorf("new tracer: %w", err)
		}
		if err := tracer.Start(k); err != nil {
			return RocksDBResult{}, fmt.Errorf("start tracer: %w", err)
		}
	}

	bench, berr := dbbench.Run(k, db, benchCfg)
	if tracer != nil {
		stats, terr := tracer.Stop()
		if terr != nil {
			return RocksDBResult{}, fmt.Errorf("stop tracer: %w", terr)
		}
		res.Tracer = stats
	}
	if berr != nil {
		return RocksDBResult{}, fmt.Errorf("bench: %w", berr)
	}
	res.Bench = bench
	res.Latency = bench.Recorder.Series()

	if tracer != nil {
		timeline, verr := viz.SyscallTimeline(res.Backend, res.Index, res.Session, cfg.WindowNS)
		if verr != nil {
			return RocksDBResult{}, fmt.Errorf("timeline: %w", verr)
		}
		res.Timeline = timeline
		res.Windows = joinWindows(res.Latency, res.Backend, res.Index, res.Session, cfg.WindowNS)
	}
	return res, nil
}

// joinWindows merges the latency series with per-thread syscall activity.
func joinWindows(lat []metrics.WindowPoint, b store.Backend, index, session string, windowNS int64) []WindowActivity {
	byStart := make(map[int64]*WindowActivity, len(lat))
	var starts []int64
	for _, p := range lat {
		byStart[p.StartNS] = &WindowActivity{
			StartNS:   p.StartNS,
			P99NS:     p.P99,
			ClientOps: p.Count,
		}
		starts = append(starts, p.StartNS)
	}

	// The syscall half comes from the Fig. 4 timeline, whose bucket starts
	// are the same exact ts/w*w keys the latency half is keyed by.
	if tl, err := viz.SyscallTimeline(b, index, session, windowNS); err == nil {
		for thread, counts := range tl.Series {
			for i, c := range counts {
				if c == 0 {
					continue
				}
				w, ok := byStart[tl.BucketStartNS[i]]
				if !ok {
					w = &WindowActivity{StartNS: tl.BucketStartNS[i]}
					byStart[w.StartNS] = w
					starts = append(starts, w.StartNS)
				}
				switch {
				case thread == "db_bench":
					w.ClientSyscalls += int(c)
				case thread == "rocksdb:high0":
					w.FlushSyscalls += int(c)
				case len(thread) > 11 && thread[:11] == "rocksdb:low":
					w.CompactionThreadsActive++
					w.CompactionSyscalls += int(c)
				}
			}
		}
	}

	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]WindowActivity, 0, len(starts))
	seen := make(map[int64]bool, len(starts))
	for _, s := range starts {
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, *byStart[s])
	}
	return out
}
