// Command benchpair runs the repository's benchmark on a base revision and on
// the working tree in alternating pairs and prints, per workload and metric,
// both medians, the base's interquartile range, how many pairs the change won
// and the verdict against the metric's BENCHMARK.json bound — the protocol a
// performance claim in CHANGES.md has to follow:
//
//	make bench-pair WORKLOAD=ingest_saturate BASE=HEAD PAIRS=10
//
// The base is exported with `git archive` (local git only, .git untouched)
// into .bench_build/base-<sha>/ and both trees are built and run by their own
// benchmark/run.sh, so the base is measured by the base's benchmark code.
// Nothing under benchmark/ is changed or depended on beyond run.sh's contract:
// the last line of standard output is one JSON object, and the run's result
// file (benchmark/out/result-<workload>-seed<seed>.json, layers-… when
// traced) carries the host object that ran it. Every number carries its
// host: each workload's table prints the host once, and a run on a host
// other than the first run's fails the comparison.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is what this tool reads of BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 on per-layer metrics: reported, not judged
}

// host is what a result file records of the machine that produced it, the
// fields a comparison must hold fixed.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// run is the driver line of one benchmark process, and the host of its
// result file.
type run struct {
	host      host
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	base := flag.String("base", "HEAD~1", "revision the working tree is compared against")
	pairs := flag.Int("pairs", 10, "pairs of runs; the side that goes first alternates")
	seed := flag.Int64("seed", 20230627, "workload seed (7919 is the held-out one)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, judged; 1: per-layer metrics, reported")
	flag.Parse()
	if err := compare(*workload, *base, *pairs, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func compare(workload, base string, pairs int, seed int64, trace int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	metrics := sp.EndToEnd
	if trace != 0 {
		metrics = sp.PerLayer
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if workload == "all" || workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json", workload)
	}
	baseDir, sha, err := exportBase(base)
	if err != nil {
		return err
	}
	fmt.Printf("base %s (%s) vs working tree, %d pairs, seed %d, %d s, trace %d\n", base, sha[:7], pairs, seed, sp.RunSeconds, trace)
	past := 0
	var first *host
	for _, w := range workloads {
		args := []string{"benchmark/run.sh", "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", strconv.Itoa(trace)}
		var parent, change []run
		for p := 0; p < pairs; p++ {
			for side := 0; side < 2; side++ {
				dir, into := baseDir, &parent
				if (side == 1) == (p%2 == 0) {
					dir, into = ".", &change
				}
				r, err := benchRun(dir, args, resultFile(w, seed, trace))
				if err != nil {
					return fmt.Errorf("%s pair %d in %s: %w", w, p+1, dir, err)
				}
				if first == nil {
					first = &r.host
				}
				if r.host != *first {
					return fmt.Errorf("%s pair %d in %s ran on host %+v, the first run on %+v: numbers from two hosts do not compare", w, p+1, dir, r.host, *first)
				}
				*into = append(*into, r)
			}
		}
		past += report(w, *first, metrics, parent, change)
	}
	if past > 0 {
		return fmt.Errorf("%d metrics are worse than the base by more than their bound", past)
	}
	return nil
}

// exportBase unpacks rev into .bench_build/base-<sha>/ unless an earlier call
// already did, and returns the directory and the full sha.
func exportBase(rev string) (dir, sha string, err error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("resolve %s: %w", rev, err)
	}
	sha = strings.TrimSpace(string(out))
	dir = filepath.Join(".bench_build", "base-"+sha)
	if _, err := os.Stat(filepath.Join(dir, "benchmark", "run.sh")); err == nil {
		return dir, sha, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", sha)
	untar := exec.Command("tar", "-xf", "-", "-C", dir)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", "", err
	}
	untar.Stderr, archive.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", "", err
	}
	if err := archive.Run(); err != nil {
		return "", "", fmt.Errorf("git archive %s: %w", sha, err)
	}
	if err := untar.Wait(); err != nil {
		return "", "", fmt.Errorf("unpack %s: %w", sha, err)
	}
	return dir, sha, nil
}

// resultFile is the path, below a checkout, of the result file a run of
// workload writes.
func resultFile(workload string, seed int64, trace int) string {
	kind := "result"
	if trace != 0 {
		kind = "layers"
	}
	return filepath.Join("benchmark", "out", fmt.Sprintf("%s-%s-seed%d.json", kind, workload, seed))
}

// benchRun runs one benchmark process in dir, parses its driver line and
// reads the host from the result file it wrote at result, below dir.
func benchRun(dir string, args []string, result string) (run, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%w\n%s", err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return run{}, fmt.Errorf("parse driver line %q: %w", lines[len(lines)-1], err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, result))
	if err != nil {
		return run{}, fmt.Errorf("read the run's host: %w", err)
	}
	var rf struct {
		Host *host `json:"host"`
	}
	if err := json.Unmarshal(raw, &rf); err != nil || rf.Host == nil {
		return run{}, fmt.Errorf("%s names no host (%v)", result, err)
	}
	r.host = *rf.Host
	return r, nil
}

// report prints one workload's table and returns how many judged metrics the
// change's median is worse on by more than the bound.
func report(workload string, h host, metrics []metric, parent, change []run) int {
	failed := func(rs []run) (n int, correct bool) {
		correct = true
		for _, r := range rs {
			n += r.Failed
			correct = correct && r.Correct
		}
		return n, correct
	}
	pf, pc := failed(parent)
	cf, cc := failed(change)
	fmt.Printf("\n%s (%d pairs; correct parent=%v change=%v; failed ops parent=%d change=%d)\n", workload, len(parent), pc, cc, pf, cf)
	fmt.Printf("  host: cpu %q, nproc %d, gomaxprocs %d, %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
	fmt.Printf("  %-34s %13s %13s %8s %10s %7s  %s\n", "metric", "parent med", "change med", "delta", "parent IQR", "better", "verdict")
	past := 0
	for _, m := range metrics {
		pv, cv := values(parent, m.Name), values(change, m.Name)
		if len(pv) == 0 || len(cv) == 0 {
			continue // a per-layer metric this workload does not produce
		}
		wins, n := 0, min(len(pv), len(cv))
		for i := 0; i < n; i++ {
			if cv[i] != pv[i] && (cv[i] > pv[i]) == (m.Better == "higher") {
				wins++
			}
		}
		pm, cm := quantile(pv, 0.5), quantile(cv, 0.5)
		delta, iqr := 0.0, 0.0
		if pm != 0 {
			delta = (cm - pm) / pm
			iqr = (quantile(pv, 0.75) - quantile(pv, 0.25)) / pm
		}
		worse := delta
		if m.Better == "higher" {
			worse = -delta
		}
		verdict := ""
		switch {
		case m.Bound == 0:
		case worse > m.Bound:
			verdict = fmt.Sprintf("WORSE past %.0f%%", m.Bound*100)
			past++
		case iqr > m.Bound && wins < n:
			verdict = "unresolved: spread past bound"
		default:
			verdict = "ok"
		}
		fmt.Printf("  %-34s %13.6g %13.6g %+7.1f%% %9.1f%% %4d/%-2d  %s\n", m.Name, pm, cm, delta*100, iqr*100, wins, n, verdict)
		fmt.Printf("    parent %s\n    change %s\n", join(pv), join(cv))
	}
	return past
}

// values lists one metric across runs, in run order, skipping runs without it.
func values(rs []run, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quantile interpolates the q-quantile of vs.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func join(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}
