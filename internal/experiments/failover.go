package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/repl"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// FailoverConfig parametrizes the primary-loss experiment.
type FailoverConfig struct {
	// Writes is the number of traced writes in the event storm, split evenly
	// across the pre-kill and post-failover phases.
	Writes int
	// DataDir is the durable primary's data directory (empty: a temp dir).
	DataDir string
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Writes <= 0 {
		c.Writes = 8000
	}
	return c
}

// FailoverResult is the output of the failover experiment.
type FailoverResult struct {
	Stats core.Stats
	// AckedAtKill is the follower's applied sequence when the primary died;
	// PrimaryHeadAtKill is the primary's head at the same instant. Equal
	// values mean replication was fully drained — nothing acked was lost.
	AckedAtKill, PrimaryHeadAtKill int64
	// BackendCount is the promoted node's final document count; it must equal
	// Stats.Shipped for the zero-loss claim to hold.
	BackendCount int
	// Switches is how many times the failover client re-picked its primary.
	Switches uint64
	// Repl is the shipper's final accounting (pushes, retries, bootstraps).
	Repl repl.Stats
	// Lossless reports BackendCount == Shipped && AckedAtKill == PrimaryHeadAtKill.
	Lossless bool
	// Accounted reports the conservation invariant on the tracer side:
	// shipped + dropped + spill dropped + parse errors == captured.
	Accounted bool
	Table     *viz.Table
}

// RunFailover traces an event storm into a replicated pair — a durable
// primary WAL-shipping to a follower over HTTP — then kills the primary
// mid-storm, promotes the follower, and keeps tracing through the
// failover-aware client. The experiment's claim is the robustness analogue
// of the paper's exact-accounting promise: node loss costs no acked event.
// The replication stream is drained before the kill (lag 0), so the
// follower takes over with exactly the primary's state; the tracer's
// resilience ladder absorbs the handover window, and afterward the promoted
// node's count equals the tracer's shipped count exactly.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	cfg = cfg.withDefaults()

	dir := cfg.DataDir
	if dir == "" {
		d, err := os.MkdirTemp("", "dio-failover-")
		if err != nil {
			return FailoverResult{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	primary, err := store.Open(
		store.WithDataDir(dir),
		store.WithFsyncPolicy(store.FsyncInterval),
		store.WithSnapshotInterval(0))
	if err != nil {
		return FailoverResult{}, err
	}
	defer primary.Close()
	psrv := httptest.NewServer(store.NewServer(primary))
	defer psrv.Close()

	follower, err := store.Open()
	if err != nil {
		return FailoverResult{}, err
	}
	follower.SetFollower()
	fsrv := httptest.NewServer(store.NewServer(follower))
	defer fsrv.Close()

	shipper := repl.New(primary, repl.ClientTransport{C: store.NewClient(fsrv.URL)}, repl.Config{
		Interval: 10 * time.Millisecond,
	})
	shipper.Start()

	fo, err := store.NewFailoverClient(store.NewClient(psrv.URL), store.NewClient(fsrv.URL))
	if err != nil {
		return FailoverResult{}, err
	}

	k := kernel.New(kernel.Config{
		Clock: clock.NewReal(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	if err := k.MkdirAll("/data"); err != nil {
		return FailoverResult{}, err
	}
	tracer, err := core.NewTracer(core.Config{
		SessionName:   "failover",
		Backend:       fo,
		BatchSize:     256,
		FlushInterval: time.Millisecond,
		Resilience: &resilience.Config{
			MaxAttempts:      5,
			BaseBackoff:      500 * time.Microsecond,
			MaxBackoff:       10 * time.Millisecond,
			BreakerThreshold: 8,
			BreakerCooldown:  5 * time.Millisecond,
		},
	})
	if err != nil {
		return FailoverResult{}, err
	}
	if err := tracer.Start(k); err != nil {
		return FailoverResult{}, err
	}

	task := k.NewProcess("storm").NewTask("storm")
	fd, oerr := task.Openat(kernel.AtFDCWD, "/data/storm.dat", kernel.OWronly|kernel.OCreat, 0o644)
	if oerr != nil {
		tracer.Stop()
		return FailoverResult{}, oerr
	}
	buf := make([]byte, 1024)
	storm := func(n int) error {
		for i := 0; i < n; i++ {
			if _, werr := task.Write(fd, buf); werr != nil {
				return werr
			}
			if i%500 == 499 {
				// Spread the storm over several flush intervals so batches
				// ship while the storm is live, not just at the final drain.
				time.Sleep(2 * time.Millisecond)
			}
		}
		return nil
	}

	// Phase 1: half the storm lands on the primary and replicates.
	if err := storm(cfg.Writes / 2); err != nil {
		tracer.Stop()
		return FailoverResult{}, err
	}
	// Let the in-flight batches flush, then drain replication to lag 0: the
	// experiment isolates the failover itself, not async-replication loss
	// (which the acked-vs-head row would expose).
	time.Sleep(20 * time.Millisecond)
	if err := shipper.Stop(); err != nil {
		tracer.Stop()
		return FailoverResult{}, fmt.Errorf("replication drain: %w", err)
	}
	head, _ := primary.ReplHeadSeq("dio-events")
	acked := follower.ReplStatus().Indices["dio-events"]

	// Kill the primary, then promote the follower. The tracer keeps writing
	// through the gap; the resilience ladder retries until the failover
	// client finds the promoted node.
	psrv.Close()
	follower.Promote()

	// Phase 2: the rest of the storm lands on the promoted node.
	if err := storm(cfg.Writes - cfg.Writes/2); err != nil {
		tracer.Stop()
		return FailoverResult{}, err
	}
	task.Close(fd)
	stats, _ := tracer.Stop()

	count, err := follower.Count(context.Background(), "dio-events", store.MatchAll())
	if err != nil {
		return FailoverResult{}, err
	}

	res := FailoverResult{
		Stats:             stats,
		AckedAtKill:       acked,
		PrimaryHeadAtKill: head,
		BackendCount:      count,
		Switches:          fo.Switches(),
		Repl:              shipper.Stats(),
		Accounted:         stats.Shipped+stats.Dropped+stats.SpillDropped+stats.ParseErrors == stats.Captured,
	}
	res.Lossless = res.BackendCount == int(stats.Shipped) && acked == head
	res.Table = &viz.Table{
		Title:   "Failover: primary kill mid-storm, follower promotion",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"captured", fmt.Sprintf("%d", stats.Captured)},
			{"shipped (acked)", fmt.Sprintf("%d", stats.Shipped)},
			{"ring dropped", fmt.Sprintf("%d", stats.Dropped)},
			{"spill dropped", fmt.Sprintf("%d", stats.SpillDropped)},
			{"retries", fmt.Sprintf("%d", stats.Retries)},
			{"repl records shipped", fmt.Sprintf("%d", res.Repl.ShippedRecords)},
			{"repl pushes / retries", fmt.Sprintf("%d / %d", res.Repl.Pushes, res.Repl.Retries)},
			{"acked@kill / head@kill", fmt.Sprintf("%d / %d", acked, head)},
			{"failover switches", fmt.Sprintf("%d", res.Switches)},
			{"promoted node count", fmt.Sprintf("%d", count)},
			{"lossless", fmt.Sprintf("%v", res.Lossless)},
			{"exact accounting", fmt.Sprintf("%v", res.Accounted)},
		},
	}
	return res, nil
}
