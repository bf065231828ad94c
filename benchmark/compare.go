package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, for each end-to-end metric, how much worse result b is
// than result a as a share of a, next to the metric's bound, and returns an
// error when any metric is worse by more than its bound. It is the check the
// repeatability criterion uses: two runs of one commit must agree within the
// bounds in both directions.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("results are of different workloads: %s and %s", a.Workload, b.Workload)
	}
	fmt.Fprintf(w, "%s: %s (seed %d) -> %s (seed %d)\n", a.Workload, pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "  %-24s %14s %14s %9s %7s\n", "metric", "a", "b", "worse_by", "bound")
	past := 0
	for _, m := range spec.EndToEnd {
		va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
		if va == 0 {
			return fmt.Errorf("%s: metric %s is missing or zero in %s", a.Workload, m.Name, pathA)
		}
		worse := (vb - va) / va
		if m.Better == "higher" {
			worse = -worse
		}
		mark := ""
		if worse > m.Bound {
			mark = "  PAST BOUND"
			past++
		}
		fmt.Fprintf(w, "  %-24s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", m.Name, va, vb, worse*100, m.Bound*100, mark)
	}
	if !a.Correct || !b.Correct {
		return fmt.Errorf("a result did not pass the correctness gate")
	}
	if past > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", past)
	}
	return nil
}
