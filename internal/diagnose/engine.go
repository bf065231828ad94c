package diagnose

import (
	"context"
	"fmt"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Params tunes the engine and its detectors. The zero value selects the
// defaults below; JSON tags make it the optional request body of the
// /_diagnose, /_dfg, and /_diff endpoints.
type Params struct {
	// SmallIOFraction flags a file when more than this share of its data
	// syscalls move fewer than SmallIOThreshold bytes (default 0.5).
	SmallIOFraction float64 `json:"small_io_fraction,omitempty"`
	// RandomFraction flags a file when its sequential fraction falls below
	// 1 - RandomFraction (default 0.5).
	RandomFraction float64 `json:"random_fraction,omitempty"`
	// MinDataOps is the minimum number of data syscalls before a file's
	// pattern is judged at all (default 8).
	MinDataOps int `json:"min_data_ops,omitempty"`
	// PageSize bounds the pages of the one streaming cursor that feeds the
	// DFG builder and every detector (default 1000, at most 10 000
	// through the HTTP routes).
	PageSize int `json:"page_size,omitempty"`

	Contention ContentionParams `json:"contention,omitempty"`
	DFG        DFGParams        `json:"dfg,omitempty"`
}

// ContentionParams tunes the background-I/O contention detector (§III-C).
// Thread roles are identified by name: ClientThread exactly, background
// threads by prefix. The defaults match the bundled RocksDB-style workload
// (db_bench client, rocksdb:low* compaction threads).
type ContentionParams struct {
	ClientThread     string `json:"client_thread,omitempty"`
	BackgroundPrefix string `json:"background_prefix,omitempty"`
	// WindowNS is the timeline bucket width (default 100ms).
	WindowNS int64 `json:"window_ns,omitempty"`
	// MinBackground is how many background threads must be active in a
	// window before it can count as contended (default 3).
	MinBackground int `json:"min_background,omitempty"`
	// DropFraction flags windows where the client's syscall rate falls
	// below this fraction of its median (default 0.5).
	DropFraction float64 `json:"drop_fraction,omitempty"`
}

// DFGParams tunes the DFG anti-pattern detector.
type DFGParams struct {
	// PingPongMinCount is the minimum read→lseek and lseek→read edge count
	// before the ping-pong rule fires (default 8).
	PingPongMinCount int64 `json:"ping_pong_min_count,omitempty"`
	// ChurnMinOpens is the minimum open count before open/close churn is
	// judged (default 8).
	ChurnMinOpens int64 `json:"churn_min_opens,omitempty"`
	// ChurnMaxOpsPerOpen flags a process when it performs fewer data
	// syscalls per open than this (default 2).
	ChurnMaxOpsPerOpen float64 `json:"churn_max_ops_per_open,omitempty"`
}

func (p Params) withDefaults() Params {
	if p.SmallIOFraction <= 0 {
		p.SmallIOFraction = 0.5
	}
	if p.RandomFraction <= 0 {
		p.RandomFraction = 0.5
	}
	if p.MinDataOps <= 0 {
		p.MinDataOps = 8
	}
	if p.PageSize <= 0 {
		p.PageSize = 1000
	}
	if p.Contention.ClientThread == "" {
		p.Contention.ClientThread = "db_bench"
	}
	if p.Contention.BackgroundPrefix == "" {
		p.Contention.BackgroundPrefix = "rocksdb:low"
	}
	if p.Contention.WindowNS <= 0 {
		p.Contention.WindowNS = int64(100 * time.Millisecond)
	}
	if p.Contention.MinBackground <= 0 {
		p.Contention.MinBackground = 3
	}
	if p.Contention.DropFraction <= 0 {
		p.Contention.DropFraction = 0.5
	}
	if p.DFG.PingPongMinCount <= 0 {
		p.DFG.PingPongMinCount = 8
	}
	if p.DFG.ChurnMinOpens <= 0 {
		p.DFG.ChurnMinOpens = 8
	}
	if p.DFG.ChurnMaxOpsPerOpen <= 0 {
		p.DFG.ChurnMaxOpsPerOpen = 2
	}
	return p
}

// Detector is one registered diagnosis rule: a name and the constructor of
// its per-session state.
type Detector struct {
	Name  string
	Begin func(Params) Pass
}

// Pass is one detector's state over one session. The engine calls Observe
// once per stored event, in the sorted cursor's total order: time_enter_ns
// exactly, to the nanosecond, then row id for equal stamps. It then calls
// Finish once with the session's finished DFG. A pass
// holds no backend, so its memory is whatever it chooses to keep — the
// built-in rules keep per-file, per-thread, per-window and per-syscall-kind
// state, never anything proportional to the session length.
//
// Observe's row is borrowed for the one call (store.EachRow): a view of
// the stored row, read through its accessors. On an in-process store it is
// the row in storage itself, and Observe runs under the store's read locks
// for the page it belongs to; over any other backend it is a row of the
// walk's page shard, emptied for the next page. So a pass may not keep the
// row past the call, and must not call back into the store. The built-in
// passes copy the fields they keep (strings, integers, the file tag) and
// keep no row.
type Pass interface {
	Observe(r store.Row)
	Finish(g *DFG) []Finding
}

// Registry holds detectors in registration order.
type Registry struct {
	detectors []Detector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a detector; duplicate names are rejected so two rules can
// never shadow each other in a report.
func (r *Registry) Register(d Detector) error {
	if d.Name == "" {
		return fmt.Errorf("diagnose: detector with empty name")
	}
	if d.Begin == nil {
		return fmt.Errorf("diagnose: detector %q has no Begin", d.Name)
	}
	for _, have := range r.detectors {
		if have.Name == d.Name {
			return fmt.Errorf("diagnose: detector %q already registered", d.Name)
		}
	}
	r.detectors = append(r.detectors, d)
	return nil
}

// Detectors returns the registered detectors in registration order.
func (r *Registry) Detectors() []Detector {
	return append([]Detector(nil), r.detectors...)
}

// DefaultRegistry returns a registry with the built-in detectors: the
// paper's Fluent Bit stale-offset and RocksDB contention signatures, the
// costly-pattern and failing-syscall rules, and the DFG anti-pattern rule.
func DefaultRegistry() *Registry {
	return &Registry{detectors: []Detector{
		{"stale-offset-read", func(Params) Pass { return &staleOffsetPass{firstReadSeen: make(map[event.FileTag]bool)} }},
		{"dfg-antipatterns", func(p Params) Pass { return dfgPatternPass{p.DFG} }},
		{"costly-patterns", func(p Params) Pass { return costlyPatternPass{p, fileAccesses{}} }},
		{"failing-syscalls", func(Params) Pass { return &failingSyscallPass{bySyscall: make(map[string]int)} }},
		{"background-io-contention", func(p Params) Pass {
			return &contentionPass{p: p.Contention, active: make(map[string]bool)}
		}},
	}}
}

// Engine runs a detector registry over sessions and scores the results.
type Engine struct {
	reg    *Registry
	params Params
	tm     engineTelemetry
}

type engineTelemetry struct {
	runs, findings, dfgBuilds, diffs *telemetry.Counter
	runNS                            *telemetry.Histogram
}

// EngineOption customizes an Engine at construction time.
type EngineOption func(*Engine)

// WithTelemetry counts engine activity (runs, findings, DFG builds, diffs,
// run latency) in reg, so a diod node's /metrics covers its diagnosis load.
func WithTelemetry(reg *telemetry.Registry) EngineOption {
	return func(e *Engine) {
		e.tm = engineTelemetry{
			runs:      reg.Counter("dio_diagnose_runs_total", "Completed diagnosis engine runs."),
			findings:  reg.Counter("dio_diagnose_findings_total", "Findings produced by diagnosis runs."),
			dfgBuilds: reg.Counter("dio_dfg_builds_total", "Syscall DFG builds."),
			diffs:     reg.Counter("dio_diff_runs_total", "Session diff runs."),
			runNS:     reg.Histogram("dio_diagnose_run_ns", "Diagnosis run latency (ns).", telemetry.DefaultLatencyBuckets),
		}
	}
}

// WithParams sets the engine's default parameters (per-run parameters via
// RunParams still take precedence).
func WithParams(p Params) EngineOption {
	return func(e *Engine) { e.params = p }
}

// NewEngine creates an engine over the given registry.
func NewEngine(reg *Registry, opts ...EngineOption) *Engine {
	e := &Engine{reg: reg}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Run executes every registered detector over one session and scores the
// findings into a Report.
func (e *Engine) Run(ctx context.Context, b store.Backend, index, session string) (Report, error) {
	return e.RunParams(ctx, b, index, session, e.params)
}

// RunParams is Run with per-call parameter overrides.
func (e *Engine) RunParams(ctx context.Context, b store.Backend, index, session string, p Params) (Report, error) {
	rep, _, err := e.Analyze(ctx, b, index, session, p)
	return rep, err
}

// Analyze is RunParams returning the session DFG alongside the report. It
// reads the session once: a single sorted cursor feeds the DFG builder and
// one Pass per registered detector, in registration order.
func (e *Engine) Analyze(ctx context.Context, b store.Backend, index, session string, p Params) (Report, *DFG, error) {
	p = p.withDefaults()
	start := time.Now()
	rep := Report{Session: session, Index: index}
	builder := newDFGBuilder()
	passes := make([]Pass, len(e.reg.detectors))
	for i, d := range e.reg.detectors {
		passes[i] = d.Begin(p)
	}
	err := eachRow(ctx, b, index, store.Term(store.FieldSession, session), p.PageSize, func(r store.Row) {
		builder.observe(r)
		for _, pass := range passes {
			pass.Observe(r)
		}
	})
	if err != nil {
		return rep, nil, fmt.Errorf("session stream: %w", err)
	}
	dfg := builder.finish(session, index)
	e.tm.dfgBuilds.Inc()
	rep.Events = dfg.Events
	for i, d := range e.reg.detectors {
		rep.Detectors = append(rep.Detectors, d.Name)
		findings := passes[i].Finish(dfg)
		for j := range findings {
			findings[j].Detector = d.Name
		}
		rep.Findings = append(rep.Findings, findings...)
	}
	rep.HealthScore = HealthScore(rep.Findings)
	e.tm.runs.Inc()
	e.tm.findings.Add(uint64(len(rep.Findings)))
	e.tm.runNS.Observe(float64(time.Since(start)))
	return rep, dfg, nil
}

// eachRow is the package's one read path: it walks the rows matching q in
// the sorted cursor's total order through pageSize-bounded pages (pageSize
// <= 0 selects the cursor's default), in place on an in-process store
// (store.EachRow).
func eachRow(ctx context.Context, b store.Backend, index string, q store.Query, pageSize int, fn func(store.Row)) error {
	req := store.SearchRequest{Query: q, Sort: []store.SortField{{Field: store.FieldTimeEnter}}}
	return store.EachRow(ctx, b, index, req, pageSize, fn)
}

// DiffSessions runs the engine over two sessions of one index and diffs
// the resulting reports and DFGs.
func (e *Engine) DiffSessions(ctx context.Context, b store.Backend, index, sessionA, sessionB string, p Params) (DiffResult, error) {
	repA, dfgA, err := e.Analyze(ctx, b, index, sessionA, p)
	if err != nil {
		return DiffResult{}, fmt.Errorf("session %s: %w", sessionA, err)
	}
	repB, dfgB, err := e.Analyze(ctx, b, index, sessionB, p)
	if err != nil {
		return DiffResult{}, fmt.Errorf("session %s: %w", sessionB, err)
	}
	e.tm.diffs.Inc()
	return Diff(repA, repB, dfgA, dfgB), nil
}
