package experiments

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// ChaosConfig parametrizes the fault-injection experiment.
type ChaosConfig struct {
	// Writes is the number of traced writes in the event storm.
	Writes int
	// ErrorRate is the probability that a bulk request fails transiently.
	ErrorRate float64
	// OutageFrom/OutageTo script a full backend outage over that bulk-call
	// window.
	OutageFrom, OutageTo uint64
	// Seed drives the injected-fault dice.
	Seed int64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Writes <= 0 {
		c.Writes = 8000
	}
	if c.ErrorRate == 0 {
		c.ErrorRate = 0.3
	}
	if c.OutageTo == 0 {
		c.OutageFrom, c.OutageTo = 20, 28
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// ChaosResult is the output of the fault-injection experiment.
type ChaosResult struct {
	Stats    core.Stats
	Injected uint64
	// Accounted reports the invariant Shipped + Dropped + SpillDropped +
	// ParseErrors == Captured, computed from the Stop statistics.
	Accounted bool
	// Ledger is the same conservation accounting derived independently from
	// the live telemetry snapshot (DESIGN.md §9) — the runtime-readable path.
	Ledger telemetry.Ledger
	// LedgerBalanced reports whether the telemetry-derived ledger closes at
	// quiescence, which must agree with Accounted.
	LedgerBalanced bool
	Table          *viz.Table
}

// RunChaos traces an event storm against a backend that fails ~ErrorRate of
// bulk requests and goes fully dark for a scripted window, with the
// resilience ladder (retry → breaker → spill → counted drop) enabled. The
// point of the experiment is the paper's accounting promise under failure:
// every captured event is either shipped or counted in exactly one drop
// counter — the property the Fluent Bit data-loss diagnosis (§III-B) relies
// on.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	k := kernel.New(kernel.Config{
		Clock: clock.NewReal(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	if err := k.MkdirAll("/data"); err != nil {
		return ChaosResult{}, err
	}
	backend, err := store.Open()
	if err != nil {
		return ChaosResult{}, err
	}
	faulty := resilience.NewFaultyBackend(backend, cfg.Seed)
	faulty.SetErrorRate(cfg.ErrorRate)
	faulty.ScriptOutage(cfg.OutageFrom, cfg.OutageTo)

	tracer, err := core.NewTracer(core.Config{
		SessionName:   "chaos",
		Backend:       faulty,
		BatchSize:     256,
		FlushInterval: time.Millisecond,
		Resilience: &resilience.Config{
			MaxAttempts:      3,
			BaseBackoff:      200 * time.Microsecond,
			MaxBackoff:       2 * time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  5 * time.Millisecond,
		},
	})
	if err != nil {
		return ChaosResult{}, err
	}
	if err := tracer.Start(k); err != nil {
		return ChaosResult{}, err
	}

	task := k.NewProcess("storm").NewTask("storm")
	fd, oerr := task.Openat(kernel.AtFDCWD, "/data/storm.dat", kernel.OWronly|kernel.OCreat, 0o644)
	if oerr != nil {
		tracer.Stop()
		return ChaosResult{}, oerr
	}
	buf := make([]byte, 1024)
	for i := 0; i < cfg.Writes; i++ {
		if _, werr := task.Write(fd, buf); werr != nil {
			tracer.Stop()
			return ChaosResult{}, werr
		}
		if i%500 == 499 {
			// Spread the storm over several flush intervals so faults hit
			// live batches, not just the final drain.
			time.Sleep(2 * time.Millisecond)
		}
	}
	task.Close(fd)

	// The backend recovers before shutdown; the final flush replays the
	// spill queue. A non-nil Stop error just reports the transient faults.
	faulty.SetErrorRate(0)
	stats, _ := tracer.Stop()

	ledger := tracer.Ledger()
	res := ChaosResult{
		Stats:          stats,
		Injected:       faulty.Injected(),
		Accounted:      stats.Shipped+stats.Dropped+stats.SpillDropped+stats.ParseErrors == stats.Captured,
		Ledger:         ledger,
		LedgerBalanced: ledger.Balanced(),
	}
	breakerState := "off"
	if stats.Resilience != nil {
		breakerState = stats.Resilience.BreakerState
	}
	res.Table = &viz.Table{
		Title:   "Chaos: ship-path fault injection with the resilience ladder",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"captured", fmt.Sprintf("%d", stats.Captured)},
			{"shipped (incl. replays)", fmt.Sprintf("%d", stats.Shipped)},
			{"ring dropped", fmt.Sprintf("%d", stats.Dropped)},
			{"spill dropped", fmt.Sprintf("%d", stats.SpillDropped)},
			{"injected faults", fmt.Sprintf("%d", res.Injected)},
			{"retries", fmt.Sprintf("%d", stats.Retries)},
			{"requeued", fmt.Sprintf("%d", stats.Requeued)},
			{"replayed", fmt.Sprintf("%d", stats.Replayed)},
			{"breaker opens", fmt.Sprintf("%d", stats.BreakerOpens)},
			{"breaker state", breakerState},
			{"exact accounting", fmt.Sprintf("%v", res.Accounted)},
			{"telemetry ledger balanced", fmt.Sprintf("%v", res.LedgerBalanced)},
			{"telemetry ledger pending", fmt.Sprintf("%d", ledger.Pending)},
		},
	}
	return res, nil
}
