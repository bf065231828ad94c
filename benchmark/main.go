// Command benchmark is the repository's end-to-end benchmark: it drives the
// real DIO path — seeded syscalls on the simulated kernel, eBPF-style rings,
// the tracer's drain and parse, the resilience shipper, store.Client over
// loopback TCP, store.Server, the durable WAL and index, the dashboard
// queries and the diagnosis engine — against a store built exactly as
// cmd/diod builds it, and measures every layer from outside. See README.md.
//
// The driver's contract (one workload per process):
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
// BENCHMARK.json lists. `-workload all` runs the four workloads, each in a
// fresh process of this binary, and `-compare a.json b.json` checks two
// result files against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	sz       sizes
	outDir   string
}

// result is one workload run: its metrics, its operation counts and the
// correctness gate's verdict.
type result struct {
	metrics   *metricSet
	attempted int
	failed    int
	problems  []string
	wall      time.Duration
	info      map[string]any
}

func newResult() *result {
	return &result{metrics: newMetricSet(), info: map[string]any{}}
}

// fail records a correctness-gate failure; the run still finishes so every
// problem is reported, then exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one benchmark request; an error makes it a failed operation,
// which also fails the gate (the workloads are built so that none fails).
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("operation failed: %v", err)
	}
}

// timeSetups runs setup n times, discarding all but the last, and returns the
// last environment with the median set-up time in seconds.
func timeSetups[T any](n int, setup func() (T, error), discard func(T) error) (T, float64, error) {
	var env T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			if err := discard(e); err != nil {
				return env, 0, err
			}
			continue
		}
		env = e
	}
	return env, median(secs), nil
}

func runWorkload(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	var err error
	switch cfg.workload {
	case "ingest_saturate":
		err = runLive(cfg, rec, res, false)
	case "live_dashboard":
		err = runLive(cfg, rec, res, true)
	case "cold_history":
		err = runCold(cfg, rec, res)
	case "diagnose_session":
		err = runDiagnose(cfg, rec, res)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		res.fail("%d of %d operations failed", res.failed, res.attempted)
	}
	if rec != nil {
		rec.mu.Lock()
		spans, unlinked := len(rec.spans), rec.unlinked
		rec.mu.Unlock()
		res.metrics.set("trace.spans", float64(spans))
		res.metrics.set("trace.unlinked_spans", float64(unlinked))
		res.metrics.set("trace.ops_per_s", res.metrics.vals["ops_per_s"])
	}
	return res, nil
}

// resultFile is the machine-written record of one run.
type resultFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Info       map[string]any     `json:"info,omitempty"`
	Host       hostInfo           `json:"host"`
	ShareTable []spanRow          `json:"share_table,omitempty"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Date       string `json:"date"`
}

func host() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// emit prints the human-readable metric table to w, writes the result file,
// and returns the driver's one-line JSON result.
func emit(w io.Writer, spec *benchSpec, cfg runConfig, res *result, rows []spanRow) (string, error) {
	list := spec.EndToEnd
	if cfg.trace {
		list = spec.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	known := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		known[m.Name] = true
	}
	for _, name := range res.metrics.names() {
		if !known[name] {
			res.fail("metric %s is emitted but BENCHMARK.json does not list it", name)
		}
	}
	fmt.Fprintf(w, "\n%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.dur.Seconds(), cfg.trace)
	for _, m := range list {
		v, ok := res.metrics.vals[m.Name]
		if !ok && !cfg.trace {
			res.fail("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = mv{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("  %-40s %16.6g %-9s", m.Name, v, m.Unit)
		if n := res.metrics.samples[m.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if !ok {
			line += " (layer not exercised)"
		}
		fmt.Fprintln(w, line)
	}
	if cfg.trace {
		// The traced pass also shows what the end-to-end figures read under
		// tracing, so the overhead against an untraced run is visible.
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(w, "  (traced) %-31s %16.6g %s\n", m.Name, res.metrics.vals[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(w, "  operations: attempted %d, failed %d\n", res.attempted, res.failed)
	for k, v := range res.info {
		fmt.Fprintf(w, "  %s: %v\n", k, v)
	}
	if rows != nil {
		printShareTable(w, cfg.workload, rows)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  GATE: %s\n", p)
	}

	rf := resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.trace,
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Problems: res.problems, Metrics: res.metrics.vals, Samples: res.metrics.samples,
		Info: res.info, Host: host(), ShareTable: rows,
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	kind := "result"
	if cfg.trace {
		kind = "layers"
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, cfg.workload, cfg.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rf.Correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	return string(line), err
}

// runOne runs a single workload in this process and prints the driver's line.
func runOne(spec *benchSpec, cfg runConfig) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	res, err := runWorkload(cfg, rec)
	if err != nil {
		return err
	}
	var rows []spanRow
	if rec != nil {
		rows = rec.selfTimes(res.wall)
		if err := rec.writeTo(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload, cfg.seed); err != nil {
			return err
		}
	}
	line, err := emit(os.Stderr, spec, cfg, res, rows)
	if err != nil {
		return err
	}
	if len(res.problems) > 0 {
		return fmt.Errorf("%s: correctness gate failed (%d problems)", cfg.workload, len(res.problems))
	}
	fmt.Println(line)
	return nil
}

// runAll runs every workload, each in a fresh process of this binary so RSS
// and GC state do not leak between them; with trace it runs each a second
// time traced and prints how far tracing moved the end-to-end figures.
func runAll(spec *benchSpec, cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(workload string, trace int) error {
		cmd := exec.Command(self,
			"-workload", workload, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.dur.Seconds()), "-trace", fmt.Sprint(trace), "-out", cfg.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		return cmd.Run()
	}
	var failed []string
	for _, w := range workloadNames {
		if err := child(w, 0); err != nil {
			failed = append(failed, w)
			continue
		}
		if !cfg.trace {
			continue
		}
		if err := child(w, 1); err != nil {
			failed = append(failed, w+" (traced)")
			continue
		}
		plain, err := readResult(filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d.json", w, cfg.seed)))
		if err != nil {
			return err
		}
		traced, err := readResult(filepath.Join(cfg.outDir, fmt.Sprintf("layers-%s-seed%d.json", w, cfg.seed)))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "\ntrace.overhead_pct, %s (traced pass against untraced)\n", w)
		for _, m := range spec.EndToEnd {
			if base := plain.Metrics[m.Name]; base != 0 {
				fmt.Fprintf(os.Stderr, "  %-24s %+7.1f%%\n", m.Name, (traced.Metrics[m.Name]-base)/base*100)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", defaultSeed, "seed for every RNG of the run")
		seconds  = flag.Float64("seconds", defaultSecs, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 records spans and emits the per-layer metrics instead of the end-to-end ones")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for result files, span files and data dirs")
		compare  = flag.Bool("compare", false, "compare two result files (args: a.json b.json) against the bounds")
	)
	flag.Parse()
	err := func() error {
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return errors.New("-compare takes two result files")
			}
			return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		}
		if *seconds <= 0 {
			return errors.New("-seconds must be positive")
		}
		cfg := runConfig{
			workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
			trace: *trace != 0, sz: fullSizes(), outDir: *outDir,
		}
		if cfg.workload == "all" {
			return runAll(spec, cfg)
		}
		return runOne(spec, cfg)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
