// Command dioviz queries a DIO analysis backend (a diod server) and renders
// the predefined dashboards — the visualizer component of the paper
// (§II-D): tabular access patterns, per-syscall histograms, and per-thread
// syscall timelines.
//
// Usage:
//
//	dioviz -backend http://localhost:9200 -index dio-events -session s1 -view table
//	dioviz -backend http://localhost:9200 -index dio-events -session s1 -view timeline -interval 100ms
//	dioviz -backend http://localhost:9200 -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// vizDiagnosePageSize bounds each cursor page the diagnose/dfg/diff views
// stream over HTTP, keeping individual backend responses small.
const vizDiagnosePageSize = 500

func main() {
	var (
		backend  = flag.String("backend", "http://127.0.0.1:9200", "backend URL")
		index    = flag.String("index", "dio-events", "index to query")
		session  = flag.String("session", "", "session name")
		view     = flag.String("view", "table", "view: table|histogram|timeline|heatmap|html|diagnose|dfg|diff|compare")
		interval = flag.Duration("interval", 100*time.Millisecond, "timeline bucket width")
		csv      = flag.Bool("csv", false, "emit CSV instead of text")
		list     = flag.Bool("list", false, "list indices and exit")
		session2 = flag.String("session2", "", "second session for -view compare")
	)
	flag.Parse()
	if err := run(*backend, *index, *session, *session2, *view, *interval, *csv, *list); err != nil {
		fmt.Fprintln(os.Stderr, "dioviz:", err)
		os.Exit(1)
	}
}

func run(backendURL, index, session, session2, view string, interval time.Duration, csv, list bool) error {
	client := store.NewClient(backendURL)
	if list {
		names, err := client.ListIndices(context.Background())
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}
	if session == "" {
		return fmt.Errorf("-session is required (use -list to discover indices)")
	}
	switch view {
	case "table":
		t, err := viz.AccessPatternTable(client, index, session)
		if err != nil {
			return err
		}
		if csv {
			return t.RenderCSV(os.Stdout)
		}
		return t.Render(os.Stdout)
	case "histogram":
		h, err := viz.SyscallHistogram(client, index, session)
		if err != nil {
			return err
		}
		return h.Render(os.Stdout)
	case "timeline":
		ts, err := viz.SyscallTimeline(client, index, session, interval.Nanoseconds())
		if err != nil {
			return err
		}
		if csv {
			return ts.RenderCSV(os.Stdout)
		}
		return ts.Render(os.Stdout)
	case "heatmap":
		ts, err := viz.SyscallTimeline(client, index, session, interval.Nanoseconds())
		if err != nil {
			return err
		}
		return viz.HeatmapFromTimeSeries(ts).Render(os.Stdout)
	case "html":
		return viz.HTMLDashboard(os.Stdout, client, index, session, interval.Nanoseconds())
	case "diagnose":
		// The engine runs client-side over the remote backend (the
		// store.Client is a store.Backend), reading each cursor page as a
		// typed hit body — which needs a diod that answers /_search by Accept,
		// a node or a cluster coordinator alike. The page-size default keeps
		// each remote fetch bounded.
		rep, err := diagnose.NewEngine(diagnose.DefaultRegistry(),
			diagnose.WithParams(diagnose.Params{PageSize: vizDiagnosePageSize})).
			Run(context.Background(), client, index, session)
		if err != nil {
			return err
		}
		if csv {
			return diagnose.ReportTable(rep).RenderCSV(os.Stdout)
		}
		return diagnose.ReportTable(rep).Render(os.Stdout)
	case "dfg":
		g, err := diagnose.BuildDFG(context.Background(), client, index, session, vizDiagnosePageSize)
		if err != nil {
			return err
		}
		if csv {
			return diagnose.DFGTable(g, 0).RenderCSV(os.Stdout)
		}
		return diagnose.DFGTable(g, 30).Render(os.Stdout)
	case "diff":
		if session2 == "" {
			return fmt.Errorf("-view diff requires -session2")
		}
		res, err := diagnose.NewEngine(diagnose.DefaultRegistry()).
			DiffSessions(context.Background(), client, index, session, session2,
				diagnose.Params{PageSize: vizDiagnosePageSize})
		if err != nil {
			return err
		}
		if csv {
			return diagnose.DiffTable(res).RenderCSV(os.Stdout)
		}
		return diagnose.DiffTable(res).Render(os.Stdout)
	case "compare":
		if session2 == "" {
			return fmt.Errorf("-view compare requires -session2")
		}
		deltas, err := diagnose.CompareSessions(context.Background(), client, index, session, session2)
		if err != nil {
			return err
		}
		return diagnose.ComparisonTable(deltas, session, session2).Render(os.Stdout)
	default:
		return fmt.Errorf("unknown view %q", view)
	}
}
