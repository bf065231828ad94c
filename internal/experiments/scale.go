package experiments

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// ScaleConfig parametrizes the backend/tracer scalability experiment.
type ScaleConfig struct {
	// Docs is the index size for the query measurements (default 120k — the
	// order of magnitude of one short tracing session).
	Docs int
	// Reps is how many times each query is repeated per strategy.
	Reps int
	// Writes is the syscall count for the drain-throughput measurement.
	Writes int
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Docs <= 0 {
		c.Docs = 120_000
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Writes <= 0 {
		c.Writes = 30_000
	}
	return c
}

// ScalePoint is one measurement: the same operation on a one-shard index
// (no fan-out, no merge) against the default shard count.
type ScalePoint struct {
	Name       string
	OneShardNS int64
	ShardedNS  int64
}

// Speedup is one-shard time over sharded time.
func (p ScalePoint) Speedup() float64 {
	if p.ShardedNS == 0 {
		return 0
	}
	return float64(p.OneShardNS) / float64(p.ShardedNS)
}

// ScaleResult is the output of the scalability experiment.
type ScaleResult struct {
	Points []ScalePoint
	// DrainSingleEPS and DrainMultiEPS are tracer drain throughputs
	// (shipped events per second) with one drain worker versus one worker
	// per CPU ring.
	DrainSingleEPS float64
	DrainMultiEPS  float64
	Table          *viz.Table
}

// RunScale measures what shard fan-out buys at session scale: filtered+sorted
// search, dashboard-style aggregation fan-out, and count over a 100k+
// document index built once with a single shard and once with the default
// shard count, plus tracer drain throughput with one consumer versus one
// consumer per CPU ring. The paper's pipeline stands or falls on this path: DIO
// ingests hundreds of millions of events per run and serves interactive
// queries over them (§II-F, §III-D).
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	cfg = cfg.withDefaults()
	one, sharded := buildScaleIndex(cfg.Docs, 1), buildScaleIndex(cfg.Docs, 0)

	searchReq := store.SearchRequest{
		Query: store.Query{Bool: &store.BoolQuery{Must: []store.Query{
			store.Term(store.FieldSyscall, "write"),
			store.RangeGTE(store.FieldDuration, 500),
		}}},
		Sort: []store.SortField{{Field: store.FieldTimeEnter, Desc: true}},
		Size: 50,
	}
	aggReq := store.SearchRequest{
		Query: store.MatchAll(),
		Size:  1,
		Aggs: map[string]store.Agg{
			"timeline": {DateHistogram: &store.DateHistogramAgg{
				Field: store.FieldTimeEnter, IntervalNS: 10_000_000,
			}},
			"by_sys": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
			"lat":    {Percentiles: &store.PercentilesAgg{Field: store.FieldDuration}},
			"stats":  {Stats: &store.StatsAgg{Field: store.FieldDuration}},
		},
	}
	countQ := store.RangeBetween(store.FieldDuration, 100, 900)

	res := ScaleResult{}
	res.Points = append(res.Points,
		measure(one, sharded, cfg.Reps, "search (filter+sort, top 50)", func(ix *store.Index) {
			ix.Search(searchReq)
		}),
		measure(one, sharded, cfg.Reps, "aggregation fan-out (4 aggs)", func(ix *store.Index) {
			ix.Search(aggReq)
		}),
		measure(one, sharded, cfg.Reps, "count (range)", func(ix *store.Index) {
			ix.Count(countQ)
		}),
	)

	single, multi, err := drainThroughput(cfg.Writes)
	if err != nil {
		return ScaleResult{}, err
	}
	res.DrainSingleEPS, res.DrainMultiEPS = single, multi

	res.Table = &viz.Table{
		Title:   "Backend sharding + tracer drain scalability",
		Columns: []string{"operation", "shards=1", fmt.Sprintf("shards=%d", sharded.NumShards()), "speedup"},
	}
	for _, p := range res.Points {
		res.Table.Rows = append(res.Table.Rows, []string{
			p.Name,
			fmt.Sprintf("%.2fms", float64(p.OneShardNS)/1e6),
			fmt.Sprintf("%.2fms", float64(p.ShardedNS)/1e6),
			fmt.Sprintf("%.2fx", p.Speedup()),
		})
	}
	res.Table.Rows = append(res.Table.Rows, []string{
		"tracer drain (events/s)",
		fmt.Sprintf("%.0f", res.DrainSingleEPS),
		fmt.Sprintf("%.0f", res.DrainMultiEPS),
		fmt.Sprintf("%.2fx", safeRatio(res.DrainMultiEPS, res.DrainSingleEPS)),
	})
	return res, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// buildScaleIndex fills an index of the given shard count (0 = default) with
// a session-shaped event mix.
func buildScaleIndex(n, shards int) *store.Index {
	ix := store.NewIndexWithShards("scale", shards)
	syscalls := []string{"read", "write", "openat", "close", "fsync", "lseek"}
	batch := make([]event.Event, 0, 4096)
	for i := 0; i < n; i++ {
		enter := int64(i) * 1000
		batch = append(batch, event.Event{
			Session:     "scale",
			Syscall:     syscalls[i%len(syscalls)],
			ProcName:    "app",
			ThreadName:  fmt.Sprintf("t%d", i%16),
			TimeEnterNS: enter,
			TimeExitNS:  enter + int64(i%997),
		})
		if len(batch) == cap(batch) {
			_ = ix.AddEvents(batch) // in-memory index: no journal, no error
			batch = batch[:0]
		}
	}
	_ = ix.AddEvents(batch)
	return ix
}

// measure times op on the one-shard and the sharded index, best-of-reps,
// warming each once first.
func measure(one, sharded *store.Index, reps int, name string, op func(*store.Index)) ScalePoint {
	return ScalePoint{
		Name:       name,
		OneShardNS: bestOf(reps, func() { op(one) }),
		ShardedNS:  bestOf(reps, func() { op(sharded) }),
	}
}

func bestOf(reps int, op func()) int64 {
	op() // warm caches
	best := int64(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		op()
		if d := time.Since(start).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// drainThroughput measures tracer drain throughput (shipped events per
// second of drain wall time) with a single drain worker versus one worker
// per CPU ring. The rings are filled while the workers idle on a long flush
// interval; the timed section is Stop's final drain — parse, batch, and
// ship of the whole backlog, which is where the workers run in parallel on
// a multi-core host.
func drainThroughput(writes int) (single, multi float64, err error) {
	run := func(workers int) (float64, error) {
		k := kernel.New(kernel.Config{
			Clock: clock.NewReal(0),
			Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
		})
		if err := k.MkdirAll("/data"); err != nil {
			return 0, err
		}
		backend, err := store.Open()
		if err != nil {
			return 0, err
		}
		tracer, err := core.NewTracer(core.Config{
			SessionName:   fmt.Sprintf("scale-w%d", workers),
			Backend:       backend,
			NumCPU:        4,
			RingBytes:     256 << 20,
			FlushInterval: time.Hour, // idle the workers; Stop drains
			BatchSize:     1024,
			DrainWorkers:  workers,
		})
		if err != nil {
			return 0, err
		}
		if err := tracer.Start(k); err != nil {
			return 0, err
		}
		// One producer task per simulated CPU so every ring gets a share.
		buf := make([]byte, 4096)
		for t := 0; t < 4; t++ {
			task := k.NewProcess("storm").NewTask(fmt.Sprintf("storm-%d", t))
			fd, oerr := task.Openat(kernel.AtFDCWD, fmt.Sprintf("/data/s%d.dat", t), kernel.OWronly|kernel.OCreat, 0o644)
			if oerr != nil {
				tracer.Stop()
				return 0, oerr
			}
			for i := 0; i < writes/4; i++ {
				if _, werr := task.Write(fd, buf); werr != nil {
					tracer.Stop()
					return 0, werr
				}
			}
			task.Close(fd)
		}
		start := time.Now()
		stats, serr := tracer.Stop()
		if serr != nil {
			return 0, serr
		}
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			return 0, nil
		}
		return float64(stats.Shipped) / elapsed, nil
	}
	if single, err = run(1); err != nil {
		return 0, 0, err
	}
	if multi, err = run(0); err != nil { // 0 = one worker per ring
		return 0, 0, err
	}
	return single, multi, nil
}
