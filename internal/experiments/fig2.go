package experiments

import (
	"context"

	"fmt"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// Fig2Result is the output of the Fluent Bit use case (§III-B).
type Fig2Result struct {
	// Table is the tabular visualization of Fig. 2a (buggy) or 2b (fixed).
	Table *viz.Table
	// Scenario holds the workload-level outcome (bytes written/received).
	Scenario fluentbit.ScenarioResult
	// Tracer summarizes the DIO session.
	Tracer core.Stats
	// Backend retains the store so callers can run further queries.
	Backend *store.Store
	// Session and Index locate the events in Backend.
	Session string
	Index   string
}

// RunFig2 reproduces Fig. 2a (version = fluentbit.VersionBuggy) or Fig. 2b
// (fluentbit.VersionFixed): it traces the log-writer client and the Fluent
// Bit forwarder with DIO, runs the issue #1875 scenario, correlates file
// paths, and renders the access-pattern table.
func RunFig2(version fluentbit.Version) (Fig2Result, error) {
	k := kernel.New(kernel.Config{
		Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, 200*time.Microsecond),
	})
	backend, err := store.Open()
	if err != nil {
		return Fig2Result{}, err
	}
	session := "fig2a-fluentbit-" + version.String()
	if version == fluentbit.VersionFixed {
		session = "fig2b-fluentbit-" + version.String()
	}

	tracer, err := core.NewTracer(core.Config{
		SessionName: session,
		Index:       "dio-events",
		Backend:     backend,
		// The paper traces both applications by filtering on their process
		// set; syscall-wise the use case needs the storage calls below.
		Filter: ebpf.Filter{
			Syscalls: []kernel.Syscall{
				kernel.SysOpenat, kernel.SysOpen, kernel.SysCreat,
				kernel.SysRead, kernel.SysWrite, kernel.SysLseek,
				kernel.SysClose, kernel.SysUnlink, kernel.SysStat,
			},
		},
		AutoCorrelate: true,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		return Fig2Result{}, fmt.Errorf("new tracer: %w", err)
	}
	if err := tracer.Start(k); err != nil {
		return Fig2Result{}, fmt.Errorf("start tracer: %w", err)
	}

	scenario, serr := fluentbit.RunScenario(k, "/var/log", version)

	stats, terr := tracer.Stop()
	if serr != nil {
		return Fig2Result{}, fmt.Errorf("scenario: %w", serr)
	}
	if terr != nil {
		return Fig2Result{}, fmt.Errorf("stop tracer: %w", terr)
	}

	table, err := fig2Table(backend, "dio-events", session, version)
	if err != nil {
		return Fig2Result{}, err
	}
	return Fig2Result{
		Table:    table,
		Scenario: scenario,
		Tracer:   stats,
		Backend:  backend,
		Session:  session,
		Index:    "dio-events",
	}, nil
}

// fig2Table renders the Fig. 2 view: like viz.AccessPatternTable but
// restricted to the open/read/write/lseek/close/unlink rows of the two
// traced applications, hiding the forwarder's stat polling.
func fig2Table(b store.Backend, index, session string, version fluentbit.Version) (*viz.Table, error) {
	resp, err := b.SearchEvents(context.Background(), index, store.SearchRequest{
		Query: store.Must(
			store.Term(store.FieldSession, session),
			store.Terms(store.FieldSyscall, "openat", "open", "creat", "read", "write", "lseek", "close", "unlink"),
		),
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	})
	if err != nil {
		return nil, fmt.Errorf("fig2 query: %w", err)
	}
	title := fmt.Sprintf("Fig. 2a: Fluent Bit (%s) erroneous access pattern", version)
	if version == fluentbit.VersionFixed {
		title = fmt.Sprintf("Fig. 2b: Fluent Bit (%s) correct access pattern", version)
	}
	t := &viz.Table{
		Title:   title,
		Columns: []string{"time", "proc_name", "syscall", "ret_val", "file_tag (dev_no inode_no timestamp)", "offset"},
	}
	for i := range resp.Hits {
		e := &resp.Hits[i]
		t.Rows = append(t.Rows, []string{
			groupDigits(e.TimeEnterNS),
			e.ProcName,
			e.Syscall,
			fmt.Sprintf("%d", e.RetVal),
			e.FileTag.String(),
			e.OffsetOrBlank(),
		})
	}
	return t, nil
}

// groupDigits mirrors viz's Kibana-style timestamp formatting.
func groupDigits(n int64) string {
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
