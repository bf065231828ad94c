package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// cmdDiagnose runs the diagnosis engine over one session. Two modes:
// against a remote backend (-backend with -session, engine runs
// server-side), or self-contained — trace a bundled workload into an
// in-process store and diagnose it immediately.
func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("dio diagnose", flag.ExitOnError)
	var (
		workload = fs.String("workload", "fluentbit-buggy", "workload to trace then diagnose (ignored with -backend)")
		backend  = fs.String("backend", "", "diod URL; diagnose an already-stored session server-side")
		index    = fs.String("index", "dio-events", "backend index")
		session  = fs.String("session", "", "session name (required with -backend, else auto-generated)")
		showDFG  = fs.Bool("dfg", false, "also print the session's syscall Directly-Follows-Graph")
	)
	fs.Parse(args)

	ctx := context.Background()
	if *backend != "" {
		if *session == "" {
			return fmt.Errorf("diagnose: -backend requires -session")
		}
		dc := diagnose.NewClient(store.NewClient(*backend))
		rep, err := dc.Diagnose(ctx, *index, *session)
		if err != nil {
			return err
		}
		if err := diagnose.ReportTable(rep).Render(os.Stdout); err != nil {
			return err
		}
		if *showDFG {
			g, err := dc.DFG(ctx, *index, *session)
			if err != nil {
				return err
			}
			return diagnose.DFGTable(g, 20).Render(os.Stdout)
		}
		return nil
	}

	st, err := store.Open()
	if err != nil {
		return err
	}
	name := *session
	if name == "" {
		name = *workload
	}
	if err := traceSessionInto(st, *index, name, *workload); err != nil {
		return err
	}
	e := diagnose.NewEngine(diagnose.DefaultRegistry())
	rep, dfg, err := e.Analyze(ctx, st, *index, name, diagnose.Params{})
	if err != nil {
		return err
	}
	if err := diagnose.ReportTable(rep).Render(os.Stdout); err != nil {
		return err
	}
	if *showDFG {
		return diagnose.DFGTable(dfg, 20).Render(os.Stdout)
	}
	return nil
}

// cmdDiff diagnoses two sessions and classifies every delta. Remote mode
// (-backend) diffs sessions already stored on a diod node; local mode
// traces the two named workloads into one in-process store first. The
// shorthands "buggy" and "fixed" name the Fluent Bit scenario pair.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("dio diff", flag.ExitOnError)
	var (
		backend = fs.String("backend", "", "diod URL; diff already-stored sessions server-side")
		index   = fs.String("index", "dio-events", "backend index")
	)
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("diff: need exactly two sessions, e.g. dio diff buggy fixed")
	}
	a, b := rest[0], rest[1]

	ctx := context.Background()
	var res diagnose.DiffResult
	if *backend != "" {
		var err error
		res, err = diagnose.NewClient(store.NewClient(*backend)).Diff(ctx, *index, a, b)
		if err != nil {
			return err
		}
	} else {
		st, err := store.Open()
		if err != nil {
			return err
		}
		for _, session := range []string{a, b} {
			if err := traceSessionInto(st, *index, session, diffWorkload(session)); err != nil {
				return fmt.Errorf("session %s: %w", session, err)
			}
		}
		res, err = diagnose.NewEngine(diagnose.DefaultRegistry()).
			DiffSessions(ctx, st, *index, a, b, diagnose.Params{})
		if err != nil {
			return err
		}
	}
	if err := diagnose.DiffTable(res).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("verdict: %s (health %d -> %d)\n", res.Class, res.HealthA, res.HealthB)
	return nil
}

// diffWorkload maps a diff session argument to a workload name, accepting
// the Fluent Bit shorthands.
func diffWorkload(session string) string {
	switch session {
	case "buggy":
		return "fluentbit-buggy"
	case "fixed":
		return "fluentbit-fixed"
	default:
		return session
	}
}

// traceSessionInto traces one bundled workload into the given store under
// the given session name, with correlation applied on stop.
func traceSessionInto(st *store.Store, index, session, workload string) error {
	k := kernel.New(kernel.Config{
		Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, 200*time.Microsecond),
	})
	if workload == "rocksdb" {
		// The KVS workload needs real concurrency; use a real-time clock.
		k = kernel.New(kernel.Config{Clock: clock.NewReal(0)})
	}
	tracer, err := core.NewTracer(core.Config{
		SessionName:   session,
		Index:         index,
		Backend:       st,
		AutoCorrelate: true,
	})
	if err != nil {
		return err
	}
	if err := tracer.Start(k); err != nil {
		return err
	}
	if err := runWorkload(k, workload); err != nil {
		tracer.Stop()
		return fmt.Errorf("workload: %w", err)
	}
	if _, err := tracer.Stop(); err != nil {
		return fmt.Errorf("stop tracer: %w", err)
	}
	return nil
}
