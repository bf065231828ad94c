// Command diobench regenerates the tables and figures of the DIO paper's
// evaluation (DSN'23). Each experiment prints the reproduced artifact next
// to the paper's reference numbers; see EXPERIMENTS.md for the index.
//
// Usage:
//
//	diobench -exp all
//	diobench -exp table2 -cycles 2000
//	diobench -exp fig3 -duration 3s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/experiments"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/replay"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|table3|fig2a|fig2b|fig3|fig4|drops|paths|diagnose|replay|all")
		cycles   = flag.Int("cycles", 1000, "table2: workload cycles (~20 syscalls each)")
		duration = flag.Duration("duration", 2*time.Second, "fig3/fig4: benchmark duration")
		writes   = flag.Int("writes", 20000, "drops: event-storm writes")
	)
	flag.Parse()
	if err := run(*exp, *cycles, *duration, *writes); err != nil {
		fmt.Fprintln(os.Stderr, "diobench:", err)
		os.Exit(1)
	}
}

func run(exp string, cycles int, duration time.Duration, writes int) error {
	runners := map[string]func() error{
		"table1":   func() error { return table1() },
		"table2":   func() error { return table2(cycles) },
		"table3":   func() error { return table3() },
		"fig2a":    func() error { return fig2(fluentbit.VersionBuggy) },
		"fig2b":    func() error { return fig2(fluentbit.VersionFixed) },
		"fig3":     func() error { return rocksdb(duration, true) },
		"fig4":     func() error { return rocksdb(duration, false) },
		"drops":    func() error { return drops(writes) },
		"paths":    func() error { return paths() },
		"diagnose": func() error { return diagnoseDemo() },
		"replay":   func() error { return replayDemo() },
	}
	if exp == "all" {
		order := []string{"table1", "fig2a", "fig2b", "fig3", "table2", "drops", "paths", "table3", "diagnose", "replay"}
		for _, name := range order {
			fmt.Printf("\n================ %s ================\n", name)
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r()
}

func table1() error {
	return experiments.RunTable1().Render(os.Stdout)
}

func table2(cycles int) error {
	res, err := experiments.RunTable2(cycles)
	if err != nil {
		return err
	}
	if err := res.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nShape check: vanilla < sysdig < DIO < strace, ratios near 1.04/1.37/1.71.")
	return nil
}

func table3() error {
	return experiments.RunTable3().Render(os.Stdout)
}

func fig2(version fluentbit.Version) error {
	res, err := experiments.RunFig2(version)
	if err != nil {
		return err
	}
	if err := res.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nclient wrote %d+%d bytes; forwarder received %d; lost %d\n",
		len(res.Scenario.FirstWrite), len(res.Scenario.SecondWrite),
		len(res.Scenario.Received), res.Scenario.LostBytes)
	if version == fluentbit.VersionBuggy {
		fmt.Println("=> Fig. 2a: the forwarder resumed at the stale offset and lost the new file's data.")
	} else {
		fmt.Println("=> Fig. 2b: the fixed version restarted at offset 0 and read everything.")
	}
	return nil
}

func rocksdb(duration time.Duration, latencyView bool) error {
	res, err := experiments.RunRocksDB(experiments.RocksDBConfig{Duration: duration, Trace: true})
	if err != nil {
		return err
	}
	if latencyView {
		fmt.Println("Fig. 3: 99th percentile latency for RocksDB client operations")
		series := viz.LatencySeries(res.Latency)
		if err := series.Table().Render(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Println("Fig. 4: syscalls issued by RocksDB over time, aggregated by thread name")
		if err := res.Timeline.Render(os.Stdout); err != nil {
			return err
		}
	}
	busy, quiet, busyN, quietN := res.ContentionCorrelation(5, 2)
	fmt.Printf("\nbench: %d ops (%.0f ops/s), %d flushes, %d compactions (%d L0)\n",
		res.Bench.Ops, res.Bench.Throughput(),
		res.Bench.DBStats.Flushes, res.Bench.DBStats.Compactions, res.Bench.DBStats.L0Compactions)
	fmt.Printf("tracer: captured=%d dropped=%d (%.2f%%)\n",
		res.Tracer.Captured, res.Tracer.Dropped, res.Tracer.DropFraction()*100)
	if busyN > 0 && quietN > 0 {
		fmt.Printf("contention: mean p99 %.2fms in windows with >=5 compaction threads (%d windows)\n",
			busy/1e6, busyN)
		fmt.Printf("            mean p99 %.2fms in windows with <=2 compaction threads (%d windows)\n",
			quiet/1e6, quietN)
	}
	return nil
}

func drops(writes int) error {
	res, err := experiments.RunDrops(experiments.DropsConfig{Writes: writes})
	if err != nil {
		return err
	}
	if err := res.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nPaper reference: 3.5% of 549M syscalls discarded at 256 MiB per CPU core.")
	return nil
}

// diagnoseDemo runs the automated detectors (§V future work, implemented)
// over freshly traced buggy and fixed Fluent Bit sessions.
func diagnoseDemo() error {
	for _, version := range []fluentbit.Version{fluentbit.VersionBuggy, fluentbit.VersionFixed} {
		res, err := experiments.RunFig2(version)
		if err != nil {
			return err
		}
		rep, err := diagnose.NewEngine(diagnose.DefaultRegistry()).
			Run(context.Background(), res.Backend, res.Index, res.Session)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		fmt.Printf("health: %d/100\n\n", rep.HealthScore)
	}
	fmt.Println("=> the stale-offset-read rule fires only on the buggy version.")
	return nil
}

// replayDemo re-executes a traced session on a fresh kernel and verifies
// the replayed return values match the trace.
func replayDemo() error {
	res, err := experiments.RunFig2(fluentbit.VersionBuggy)
	if err != nil {
		return err
	}
	k2 := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
	rep, err := replay.Session(res.Backend, res.Index, res.Session, k2)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d events (%d skipped), %d return-value mismatches\n",
		rep.Replayed, rep.Skipped, len(rep.Mismatches))
	for _, m := range rep.Mismatches {
		fmt.Println("  mismatch:", m)
	}
	data, err := k2.ReadFileContents("/var/log/app.log")
	if err != nil {
		return err
	}
	fmt.Printf("replayed filesystem reproduces the data-loss state: app.log holds %d unread bytes\n", len(data))
	return nil
}

func paths() error {
	res, err := experiments.RunPathResolution(experiments.PathsConfig{})
	if err != nil {
		return err
	}
	if err := res.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nPaper reference: DIO unresolved <=5%, Sysdig 45%.")
	return nil
}
