// Package diagnose implements the paper's future-work direction (§V) as a
// reusable engine: a pluggable registry of detectors that scan a traced
// session for the inefficient or erroneous I/O behaviours the paper
// diagnoses manually — stale-offset reads after inode reuse (the Fluent
// Bit data-loss signature of §III-B), background I/O contention (the
// RocksDB tail-latency signature of §III-C), costly access patterns
// (small or random I/O, §I), and syscall-sequence anti-patterns surfaced
// by a Directly-Follows-Graph over the session's syscall stream
// (Sankaran et al., arXiv:2408.07378).
//
// The engine reads a session once: one sorted streaming cursor feeds the
// DFG builder and every detector's Pass, so the rules hold no backend, work
// identically over an in-process store, a remote server, or a
// retention-tiered index, and never materialize a whole session in
// memory. Engine.Run aggregates the findings into a severity-weighted
// 0-100 health score; Diff compares two sessions' reports and DFGs and
// classifies each delta as regression, improvement, or neutral.
package diagnose

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Severity grades a finding.
type Severity int

// Severities.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityCritical
)

// String returns the severity label.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the severity as its label, so reports read the same
// over the wire as in logs.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the label form MarshalJSON writes; a number or an
// unknown label is an error.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var label string
	if err := json.Unmarshal(b, &label); err != nil {
		return fmt.Errorf("severity must be a label: %s", b)
	}
	switch label {
	case "info":
		*s = SeverityInfo
	case "warning":
		*s = SeverityWarning
	case "critical":
		*s = SeverityCritical
	default:
		return fmt.Errorf("unknown severity %q", label)
	}
	return nil
}

// Weight is the health-score cost of one finding at this severity: a
// critical finding alone drops a session into the "unhealthy" half of the
// 0-100 scale, warnings accumulate, info findings barely register.
func (s Severity) Weight() int {
	switch s {
	case SeverityCritical:
		return 40
	case SeverityWarning:
		return 15
	case SeverityInfo:
		return 5
	default:
		return 0
	}
}

// Finding is one detected I/O anomaly.
type Finding struct {
	// Rule identifies the anti-pattern (e.g. "stale-offset-read").
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// Detector names the registered detector that produced the finding.
	Detector string `json:"detector,omitempty"`
	// Summary is a one-line human-readable description.
	Summary string `json:"summary"`
	// FilePath names the affected file, when file-specific.
	FilePath string `json:"file_path,omitempty"`
	// Evidence lists the key events or windows backing the finding.
	Evidence []string `json:"evidence,omitempty"`
}

// Report is the outcome of running the engine's detectors over a session.
type Report struct {
	Session string `json:"session"`
	Index   string `json:"index,omitempty"`
	// Events is the number of stored events the DFG pass examined.
	Events int64 `json:"events"`
	// HealthScore grades the session 0 (unhealthy) to 100 (clean): 100
	// minus the severity weights of every finding, floored at zero.
	HealthScore int `json:"health_score"`
	// Detectors lists the registered detectors that ran, in order.
	Detectors []string  `json:"detectors,omitempty"`
	Findings  []Finding `json:"findings"`
}

// HealthScore computes the severity-weighted 0-100 score for a finding set.
func HealthScore(findings []Finding) int {
	score := 100
	for _, f := range findings {
		score -= f.Severity.Weight()
	}
	if score < 0 {
		score = 0
	}
	return score
}

// Critical reports whether any finding is critical.
func (r Report) Critical() bool {
	for _, f := range r.Findings {
		if f.Severity == SeverityCritical {
			return true
		}
	}
	return false
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Diagnosis of session %q: health %d/100, %d finding(s)\n",
		r.Session, r.HealthScore, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  [%s] %s: %s\n", f.Severity, f.Rule, f.Summary)
		for _, e := range f.Evidence {
			fmt.Fprintf(&b, "      - %s\n", e)
		}
	}
	return b.String()
}
