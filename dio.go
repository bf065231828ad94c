// Package dio is a from-scratch Go reproduction of DIO — "Diagnosing
// applications' I/O behavior through system call observability" (Esteves,
// Macedo, Oliveira, Paulo; DSN 2023).
//
// DIO observes and diagnoses the I/O interactions between applications and
// in-kernel POSIX storage systems. This library reproduces the complete
// system on top of a simulated storage kernel:
//
//   - a tracer (eBPF-style programs on syscall tracepoints, kernel-side
//     filtering and enrichment, per-CPU ring buffers, an asynchronous
//     user-space pipeline),
//   - an analysis backend (an Elasticsearch-style document store with
//     queries, aggregations, bulk indexing, an HTTP API, and the file-path
//     correlation algorithm), and
//   - a visualizer (tables, histograms, and time-series dashboards).
//
// It also ships the paper's evaluation subjects — a Fluent Bit-style log
// forwarder with the v1.4.0 data-loss bug, a RocksDB-style LSM key-value
// store with db_bench clients, and strace/Sysdig-style comparator tracers —
// plus a harness that regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md).
//
// # Quick start
//
//	k := dio.NewKernel(dio.KernelConfig{})
//	backend := dio.NewStore()
//	tracer, err := dio.NewTracer(dio.TracerConfig{
//		SessionName:   "demo",
//		Backend:       backend,
//		AutoCorrelate: true,
//	})
//	if err != nil { ... }
//	tracer.Start(k)
//
//	task := k.NewProcess("app").NewTask("app")
//	fd, _ := task.Openat(dio.AtFDCWD, "/tmp/file", dio.OWronly|dio.OCreat, 0o644)
//	task.Write(fd, []byte("hello"))
//	task.Close(fd)
//
//	stats, _ := tracer.Stop()
//	table, _ := dio.AccessPatternTable(backend, tracer.Index(), tracer.Session())
//	fmt.Println(table)
package dio

import (
	"context"
	"io"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/replay"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// Simulated-kernel types (the substrate applications run on).
type (
	// Kernel is the simulated POSIX storage kernel.
	Kernel = kernel.Kernel
	// KernelConfig configures a kernel instance.
	KernelConfig = kernel.Config
	// DiskConfig parametrizes the shared-bandwidth disk model.
	DiskConfig = kernel.DiskConfig
	// Process is a traced application process.
	Process = kernel.Process
	// Task is a kernel thread: the unit that issues syscalls.
	Task = kernel.Task
	// Syscall identifies one of the 42 supported storage syscalls.
	Syscall = kernel.Syscall
	// OpenFlags are open(2) flags.
	OpenFlags = kernel.OpenFlags
	// Errno is a POSIX error number.
	Errno = kernel.Errno
	// Stat mirrors struct stat.
	Stat = kernel.Stat
	// FileType classifies filesystem objects.
	FileType = kernel.FileType
)

// Tracer types (the paper's primary contribution).
type (
	// Tracer is one DIO tracing session.
	Tracer = core.Tracer
	// TracerConfig configures a session.
	TracerConfig = core.Config
	// TracerStats summarizes a session.
	TracerStats = core.Stats
	// Filter is the kernel-side filtering specification.
	Filter = ebpf.Filter
	// Event is one traced syscall with its enrichment.
	Event = event.Event
	// FileTag uniquely identifies an accessed file across inode reuse.
	FileTag = event.FileTag
)

// Backend types (the analysis pipeline).
type (
	// Store is the in-process event store. Rows are written once; its one
	// update is Correlate, which names the files tagged rows accessed.
	Store = store.Store
	// Backend abstracts in-process stores, remote stores and cluster
	// coordinators; its SearchEvents returns hits as Events.
	Backend = store.Backend
	// Client talks to a remote backend server.
	Client = store.Client
	// Server exposes a store over HTTP.
	Server = store.Server
	// Query is the search DSL.
	Query = store.Query
	// SearchRequest describes a search.
	SearchRequest = store.SearchRequest
	// Document is the JSON view of one event, as a Search hit renders it.
	Document = store.Document
	// CorrelationResult summarizes a file-path correlation pass.
	CorrelationResult = store.CorrelationResult
)

// Visualizer types.
type (
	// Table is a tabular visualization.
	Table = viz.Table
	// TimeSeries is a multi-series chart over time.
	TimeSeries = viz.TimeSeries
	// Histogram is a bar chart.
	Histogram = viz.Histogram
	// Heatmap is a shaded matrix (rows x time buckets).
	Heatmap = viz.Heatmap
)

// Re-exported constants.
const (
	// AtFDCWD is the *at syscalls' "current directory" sentinel.
	AtFDCWD = kernel.AtFDCWD
	// Open flags.
	ORdonly    = kernel.ORdonly
	OWronly    = kernel.OWronly
	ORdwr      = kernel.ORdwr
	OCreat     = kernel.OCreat
	OExcl      = kernel.OExcl
	OTrunc     = kernel.OTrunc
	OAppend    = kernel.OAppend
	ODirectory = kernel.ODirectory
	// NumSyscalls is the size of the supported syscall set (Table I).
	NumSyscalls = kernel.NumSyscalls
)

// NewKernel creates a simulated kernel. A zero config selects a real-time
// clock and the default disk model.
func NewKernel(cfg KernelConfig) *Kernel { return kernel.New(cfg) }

// NewVirtualKernel creates a kernel on a deterministic virtual clock that
// advances one microsecond per observation — convenient for tests and for
// reproducible traces.
func NewVirtualKernel() *Kernel {
	return kernel.New(kernel.Config{
		Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, 1000),
	})
}

// NewTracer validates cfg and creates a tracing session.
func NewTracer(cfg TracerConfig) (*Tracer, error) { return core.NewTracer(cfg) }

// NewStore creates an in-process analysis backend.
func NewStore() *Store {
	st, err := store.Open()
	if err != nil {
		panic(err) // unreachable: only a data directory can fail to open
	}
	return st
}

// NewServer wraps a store in an HTTP handler (the remote backend of §II-F).
func NewServer(st *Store) *Server { return store.NewServer(st) }

// NewClient creates a client for a remote backend at base URL.
func NewClient(base string) *Client { return store.NewClient(base) }

// AllSyscalls lists the 42 supported syscalls (Table I).
func AllSyscalls() []Syscall { return kernel.AllSyscalls() }

// SyscallByName resolves a syscall name ("openat") to its identifier.
func SyscallByName(name string) (Syscall, bool) { return kernel.SyscallByName(name) }

// AccessPatternTable renders the Fig. 2-style tabular view of a session.
func AccessPatternTable(b Backend, index, session string) (*Table, error) {
	return viz.AccessPatternTable(b, index, session)
}

// SyscallTimeline renders the Fig. 4-style per-thread syscall timeline.
func SyscallTimeline(b Backend, index, session string, intervalNS int64) (*TimeSeries, error) {
	return viz.SyscallTimeline(b, index, session, intervalNS)
}

// SyscallHistogram renders per-syscall counts of a session.
func SyscallHistogram(b Backend, index, session string) (*Histogram, error) {
	return viz.SyscallHistogram(b, index, session)
}

// HeatmapFromTimeSeries converts a multi-series chart into a heatmap with
// one normalized row per series.
func HeatmapFromTimeSeries(ts *TimeSeries) *Heatmap {
	return viz.HeatmapFromTimeSeries(ts)
}

// HTMLDashboard writes a session's dashboard (table + histogram +
// per-thread timeline) as one self-contained HTML page.
func HTMLDashboard(w io.Writer, b Backend, index, session string, intervalNS int64) error {
	return viz.HTMLDashboard(w, b, index, session, intervalNS)
}

// Custom analyses over traced events (the paper's flexibility claim, §IV).
// Context-first: every analysis streams events through cursor pages and
// honors cancellation.
type (
	// OffsetPattern summarizes a file's offset access pattern.
	OffsetPattern = diagnose.OffsetPattern
	// FileLoad ranks a file by I/O volume.
	FileLoad = diagnose.FileLoad
	// SessionDelta is one row of a cross-session comparison.
	SessionDelta = diagnose.SessionDelta
)

// FileOffsetPattern classifies a file's accesses as sequential, random, or
// mixed using the tracer's f_offset enrichment. Run correlation first so
// events carry file paths.
func FileOffsetPattern(ctx context.Context, b Backend, index, session, filePath string) (OffsetPattern, error) {
	return diagnose.FileOffsetPattern(ctx, b, index, session, filePath)
}

// HotFiles ranks a session's files by data volume.
func HotFiles(ctx context.Context, b Backend, index, session string, topN int) ([]FileLoad, error) {
	return diagnose.HotFiles(ctx, b, index, session, topN)
}

// CompareSessions contrasts two tracing executions stored in one backend
// (the post-mortem workflow of §II-F).
func CompareSessions(ctx context.Context, b Backend, index, sessionA, sessionB string) ([]SessionDelta, error) {
	return diagnose.CompareSessions(ctx, b, index, sessionA, sessionB)
}

// RenderComparison renders a session comparison as a table.
func RenderComparison(deltas []SessionDelta, sessionA, sessionB string) *Table {
	return diagnose.ComparisonTable(deltas, sessionA, sessionB)
}

// Automated diagnosis (the paper's §V direction: rule-based detection of
// the inefficient and erroneous behaviours the evaluation diagnoses). The
// engine runs a registry of detectors over one session, builds its syscall
// Directly-Follows-Graph, and scores the findings into a 0-100 health
// score; Diff classifies the deltas between two sessions.
type (
	// DiagnosisReport is the outcome of one engine run.
	DiagnosisReport = diagnose.Report
	// DiagnosisFinding is one detected anomaly.
	DiagnosisFinding = diagnose.Finding
	// DiagnosisParams tunes the engine and its detectors.
	DiagnosisParams = diagnose.Params
	// DiagnosisEngine runs a detector registry over sessions.
	DiagnosisEngine = diagnose.Engine
	// Detector is one registered diagnosis rule: a name and the
	// constructor of its per-session DetectorPass.
	Detector = diagnose.Detector
	// DetectorPass is what a custom rule implements: Observe sees every
	// stored row of the session in time order, Finish reports the findings.
	// Observe's row is borrowed for the call, read in place under the
	// store's read locks: keep no row past it, read the fields the rule
	// needs through the row's accessors, and do not call back into the
	// store.
	DetectorPass = diagnose.Pass
	// Row is one stored event read in place, as a DetectorPass observes
	// it: one accessor per Event field (Syscall(), PID(), FileTag(),
	// HasOffset(), Offset(), ...), plus DurationNS() and Event(dst) for a
	// rule that wants a copy.
	Row = store.Row
	// DetectorRegistry holds detectors in registration order.
	DetectorRegistry = diagnose.Registry
	// DFG is a session's syscall Directly-Follows-Graph.
	DFG = diagnose.DFG
	// DiffResult classifies the deltas between two sessions' diagnoses.
	DiffResult = diagnose.DiffResult
)

// Severity grades a DiagnosisFinding.
type Severity = diagnose.Severity

// Finding severities, mildest first.
const (
	SeverityInfo     = diagnose.SeverityInfo
	SeverityWarning  = diagnose.SeverityWarning
	SeverityCritical = diagnose.SeverityCritical
)

// NewDetectorRegistry creates an empty detector registry for custom rules.
func NewDetectorRegistry() *DetectorRegistry { return diagnose.NewRegistry() }

// NewDiagnosisEngine creates an engine that runs the detectors of reg, such
// as custom rules registered on a NewDetectorRegistry.
func NewDiagnosisEngine(reg *DetectorRegistry) *DiagnosisEngine {
	return diagnose.NewEngine(reg)
}

// Diagnose runs the built-in detectors over one session: stale-offset
// reads (the §III-B data-loss signature), DFG anti-patterns, costly access
// patterns, failing syscalls, and background-I/O contention (§III-C).
func Diagnose(ctx context.Context, b Backend, index, session string) (DiagnosisReport, error) {
	return NewDiagnosisEngine(diagnose.DefaultRegistry()).Run(ctx, b, index, session)
}

// BuildDFG computes a session's syscall Directly-Follows-Graph.
func BuildDFG(ctx context.Context, b Backend, index, session string) (*DFG, error) {
	return diagnose.BuildDFG(ctx, b, index, session, 0)
}

// DiffSessions diagnoses two sessions and classifies every delta as a
// regression, improvement, or neutral change.
func DiffSessions(ctx context.Context, b Backend, index, sessionA, sessionB string) (DiffResult, error) {
	return NewDiagnosisEngine(diagnose.DefaultRegistry()).DiffSessions(ctx, b, index, sessionA, sessionB, DiagnosisParams{})
}

// InstallDiagnosis mounts the /_diagnose, /_dfg, and /_diff endpoints on a
// backend server and returns the engine serving them.
func InstallDiagnosis(srv *Server) *DiagnosisEngine { return diagnose.Install(srv) }

// ReplayResult summarizes a trace replay.
type ReplayResult = replay.Result

// ReplaySession re-executes a traced session against a fresh kernel
// (Re-Animator-style), verifying that replayed return values match the
// trace. Data payloads are synthetic (traces record sizes, not bytes).
func ReplaySession(b Backend, index, session string, k *Kernel) (ReplayResult, error) {
	return replay.Session(b, index, session, k)
}
