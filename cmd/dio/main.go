// Command dio is the CLI of the syscall-observability toolchain: it traces
// bundled workloads on the simulated kernel (§II-B and §II-F), runs the
// automated diagnosis engine over stored sessions, and diffs two sessions'
// diagnoses. Workloads: the Fluent Bit data-loss scenario (buggy and
// fixed), a synthetic data-intensive stream, and the RocksDB-style
// key-value store under YCSB-A.
//
// Usage:
//
//	dio trace -workload fluentbit-buggy
//	dio trace -workload synthetic -syscalls openat,write,close -backend http://localhost:9200
//	dio trace -workload rocksdb -chaos-rate 0.3 -breaker-cooldown 50ms
//	dio trace -config trace.json
//	dio diagnose -workload fluentbit-buggy -dfg
//	dio diagnose -backend http://localhost:9200 -index dio-events -session run-1
//	dio diff buggy fixed
//	dio diff -backend http://localhost:9200 -index dio-events run-1 run-2
//
// A bare invocation (flags without a subcommand) keeps the historical
// behavior and is an alias for "dio trace". The tracer always ships through
// the fault-tolerant ladder (retry, circuit breaker, spill queue, counted
// drop); the -max-retries, -spill-events and -breaker-* flags tune it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/dbbench"
	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/apps/lsmkv"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/comparators"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

func main() {
	args := os.Args[1:]
	// Subcommand dispatch; a leading flag (or nothing) selects trace so the
	// pre-subcommand invocation style keeps working.
	cmd := "trace"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "trace":
		err = cmdTrace(args)
	case "diagnose":
		err = cmdDiagnose(args)
	case "diff":
		err = cmdDiff(args)
	case "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "dio: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dio:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: dio <command> [flags]

commands:
  trace     trace a bundled workload and ship events to the backend (default)
  diagnose  run the diagnosis engine over a session (traced here or remote)
  diff      diagnose two sessions and classify every delta
  help      print this help

Run "dio <command> -h" for the command's flags.
`)
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("dio trace", flag.ExitOnError)
	var (
		configPath = fs.String("config", "", "JSON configuration file (overrides other flags)")
		workload   = fs.String("workload", "fluentbit-buggy", "workload: fluentbit-buggy|fluentbit-fixed|synthetic|rocksdb")
		session    = fs.String("session", "", "session name (auto-generated when empty)")
		index      = fs.String("index", "dio-events", "backend index")
		backend    = fs.String("backend", "", "backend URL (empty = in-process store)")
		syscalls   = fs.String("syscalls", "", "comma-separated syscall subset (empty = all 42)")
		paths      = fs.String("paths", "", "comma-separated path prefixes to trace")
		correlate  = fs.Bool("correlate", true, "run file-path correlation on stop")
		table      = fs.Bool("table", true, "print the access-pattern table (in-process backend only)")

		telemetryEvery = fs.Duration("telemetry", 0, "print a pipeline self-telemetry report at this interval, plus a final dashboard (0 = off)")

		maxRetries       = fs.Int("max-retries", 0, "delivery attempts per batch before spilling (0 = default 4)")
		spillEvents      = fs.Int("spill-events", 0, "spill-queue capacity in events (0 = default 65536)")
		breakerThreshold = fs.Int("breaker-threshold", 0, "consecutive failures before the circuit breaker opens (0 = default 5)")
		breakerCooldown  = fs.Duration("breaker-cooldown", 0, "how long the breaker stays open before a probe (0 = default 500ms)")
		chaosRate        = fs.Float64("chaos-rate", 0, "inject transient bulk failures at this rate in front of the backend, in-process or -backend URL (demo)")
	)
	fs.Parse(args)

	fc := FileConfig{
		Session:       *session,
		Index:         *index,
		BackendURL:    *backend,
		AutoCorrelate: *correlate,
		Workload:      *workload,
		Resilience: ResilienceFileConfig{
			MaxAttempts:           *maxRetries,
			SpillEvents:           *spillEvents,
			BreakerThreshold:      *breakerThreshold,
			BreakerCooldownMillis: int(breakerCooldown.Milliseconds()),
		},
	}
	if *syscalls != "" {
		fc.Syscalls = strings.Split(*syscalls, ",")
	}
	if *paths != "" {
		fc.Paths = strings.Split(*paths, ",")
	}
	if *configPath != "" {
		loaded, err := LoadFileConfig(*configPath)
		if err != nil {
			return err
		}
		fc = loaded
	}
	return run(fc, *table, *chaosRate, *telemetryEvery)
}

func run(fc FileConfig, printTable bool, chaosRate float64, telemetryEvery time.Duration) error {
	cfg, inproc, err := fc.TracerConfig()
	if err != nil {
		return err
	}
	var faulty *resilience.FaultyBackend
	if chaosRate > 0 {
		// Demo mode: inject transient bulk failures in front of the backend so
		// the resilience ladder is observable without a flaky network.
		faulty = resilience.NewFaultyBackend(cfg.Backend, time.Now().UnixNano())
		faulty.SetErrorRate(chaosRate)
		cfg.Backend = faulty
	}
	k := kernel.New(kernel.Config{
		Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, 200*time.Microsecond),
	})
	if fc.Workload == "rocksdb" {
		// The KVS workload needs real concurrency; use a real-time clock.
		k = kernel.New(kernel.Config{Clock: clock.NewReal(0)})
	}

	tracer, err := core.NewTracer(cfg)
	if err != nil {
		return err
	}
	if err := tracer.Start(k); err != nil {
		return err
	}
	fmt.Printf("dio: session %q tracing workload %q\n", tracer.Session(), fc.Workload)

	// -telemetry: periodic self-report while the workload runs ("DIO
	// observing DIO"). Each tick prints the conservation ledger one-liner;
	// the full dashboard renders after Stop.
	stopTelemetry := make(chan struct{})
	telemetryDone := make(chan struct{})
	if telemetryEvery > 0 {
		go func() {
			defer close(telemetryDone)
			tick := time.NewTicker(telemetryEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopTelemetry:
					return
				case <-tick.C:
					l := tracer.Ledger()
					fmt.Printf("telemetry: captured=%d shipped=%d ring-dropped=%d spill-dropped=%d parse-errors=%d pending=%d outstanding=%d\n",
						l.Captured, l.Shipped, l.RingDropped, l.SpillDropped,
						l.ParseErrors, l.Pending, l.Outstanding())
				}
			}
		}()
	} else {
		close(telemetryDone)
	}

	if err := runWorkload(k, fc.Workload); err != nil {
		close(stopTelemetry)
		tracer.Stop()
		return fmt.Errorf("workload: %w", err)
	}
	close(stopTelemetry)
	<-telemetryDone

	if faulty != nil {
		// The injected fault is transient: the backend recovers before
		// shutdown so the final flush can replay the spill queue.
		faulty.SetErrorRate(0)
	}
	stats, err := tracer.Stop()
	if err != nil {
		return fmt.Errorf("stop tracer: %w", err)
	}
	fmt.Printf("captured=%d filtered=%d dropped=%d shipped=%d\n",
		stats.Captured, stats.Filtered, stats.Dropped, stats.Shipped)
	if stats.ParseErrors > 0 {
		fmt.Printf("parse errors=%d\n", stats.ParseErrors)
	}
	fmt.Printf("resilience: retries=%d requeued=%d replayed=%d spill-dropped=%d breaker-opens=%d breaker=%s\n",
		stats.Retries, stats.Requeued, stats.Replayed, stats.SpillDropped,
		stats.BreakerOpens, stats.Resilience.BreakerState)
	if faulty != nil {
		fmt.Printf("chaos: injected %d bulk failures\n", faulty.Injected())
	}
	if cfg.AutoCorrelate {
		fmt.Printf("correlation: %d tags resolved, %d events updated, %d unresolved\n",
			stats.Correlation.TagsResolved, stats.Correlation.EventsUpdated,
			stats.Correlation.EventsUnresolved)
	}

	if telemetryEvery > 0 {
		dash := viz.SelfDashboard(tracer.Telemetry())
		if err := dash.Render(os.Stdout); err != nil {
			return err
		}
		if ts := viz.SelfFlushSeries(tracer.Telemetry()); ts != nil {
			if err := ts.Render(os.Stdout); err != nil {
				return err
			}
		}
	}

	if printTable && inproc != nil {
		tbl, verr := viz.AccessPatternTable(inproc, tracer.Index(), tracer.Session())
		if verr != nil {
			return verr
		}
		if len(tbl.Rows) > 40 {
			tbl.Rows = tbl.Rows[:40]
			tbl.Title += " (first 40 rows)"
		}
		return tbl.Render(os.Stdout)
	}
	return nil
}

func runWorkload(k *kernel.Kernel, name string) error {
	switch name {
	case "fluentbit-buggy":
		res, err := fluentbit.RunScenario(k, "/var/log", fluentbit.VersionBuggy)
		if err != nil {
			return err
		}
		fmt.Printf("fluent-bit %s: lost %d bytes\n", res.Version, res.LostBytes)
		return nil
	case "fluentbit-fixed":
		res, err := fluentbit.RunScenario(k, "/var/log", fluentbit.VersionFixed)
		if err != nil {
			return err
		}
		fmt.Printf("fluent-bit %s: lost %d bytes\n", res.Version, res.LostBytes)
		return nil
	case "synthetic":
		task := k.NewProcess("synthetic").NewTask("synthetic")
		return comparators.RunWorkload(k, task, comparators.WorkloadConfig{}, 50)
	case "rocksdb":
		db, err := lsmkv.Open(k, lsmkv.Config{Dir: "/db"})
		if err != nil {
			return err
		}
		defer db.Close()
		cfg := dbbench.Config{Duration: time.Second, PreloadKeys: 2000, KeyCount: 2000}
		if err := dbbench.Preload(db, cfg); err != nil {
			return err
		}
		res, err := dbbench.Run(k, db, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("db_bench: %d ops, p99 %.2fms\n", res.Ops, res.Summary.P99/1e6)
		return nil
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
}
