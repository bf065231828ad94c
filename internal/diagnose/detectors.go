package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// staleOffsetPass finds the §III-B data-loss signature: on a fresh file
// generation (a file tag never read before), the first read starts at a
// non-zero offset and returns 0 bytes — the reader resumed beyond EOF, so
// freshly written data can never be delivered. The Fluent Bit v1.4.0 bug
// produces exactly this pattern after inode reuse.
type staleOffsetPass struct {
	firstReadSeen map[event.FileTag]bool
	findings      []Finding
}

func (s *staleOffsetPass) Observe(r store.Row) {
	if isRead, _ := dataSyscall(r.Syscall()); !isRead {
		return
	}
	tag := r.FileTag()
	if tag.Zero() || s.firstReadSeen[tag] {
		return
	}
	s.firstReadSeen[tag] = true
	if r.HasOffset() && r.Offset() > 0 && r.RetVal() == 0 {
		var e event.Event
		r.Event(&e)
		path := e.FilePath
		if path == "" {
			path = "(unresolved path, tag " + e.FileTag.String() + ")"
		}
		s.findings = append(s.findings, Finding{
			Rule:     "stale-offset-read",
			Severity: SeverityCritical,
			Summary: fmt.Sprintf(
				"first read of %s starts at offset %d and returns 0 bytes: the reader resumed past EOF (possible data loss after file recreation)",
				path, e.Offset),
			FilePath: path,
			Evidence: []string{fmt.Sprintf(
				"%s by %s at t=%d: ret=0 offset=%d tag=%s",
				e.Syscall, e.ProcName, e.TimeEnterNS, e.Offset, e.FileTag)},
		})
	}
}

func (s *staleOffsetPass) Finish(*DFG) []Finding { return s.findings }

// costlyPatternPass flags files dominated by small or random I/O.
type costlyPatternPass struct {
	p     Params
	files fileAccesses
}

func (c costlyPatternPass) Observe(r store.Row) { c.files.observe(r) }

func (c costlyPatternPass) Finish(*DFG) []Finding {
	var findings []Finding
	for _, a := range c.files.ranked() {
		p, path := a.pattern, a.load.FilePath
		dataOps := p.Reads + p.Writes
		if dataOps < c.p.MinDataOps {
			continue
		}
		if frac := float64(p.SmallIOs) / float64(dataOps); frac >= c.p.SmallIOFraction {
			findings = append(findings, Finding{
				Rule:     "small-io",
				Severity: SeverityWarning,
				Summary: fmt.Sprintf("%.0f%% of %d data syscalls on %s move fewer than %d bytes",
					frac*100, dataOps, path, SmallIOThreshold),
				FilePath: path,
			})
		}
		if p.SequentialFraction() <= 1-c.p.RandomFraction {
			findings = append(findings, Finding{
				Rule:     "random-io",
				Severity: SeverityWarning,
				Summary: fmt.Sprintf("accesses to %s are %.0f%% non-sequential (%d of %d data syscalls)",
					path, (1-p.SequentialFraction())*100,
					p.RandomReads+p.RandomWrites, dataOps),
				FilePath: path,
			})
		}
	}
	return findings
}

// failingSyscallPass summarizes error-returning syscalls per type, an
// immediate smell for erroneous I/O usage.
type failingSyscallPass struct {
	bySyscall map[string]int
	total     int
}

func (f *failingSyscallPass) Observe(r store.Row) {
	if r.RetVal() < 0 {
		f.bySyscall[r.Syscall()]++
		f.total++
	}
}

func (f *failingSyscallPass) Finish(*DFG) []Finding {
	if f.total == 0 {
		return nil
	}
	parts := make([]string, 0, len(f.bySyscall))
	for name, n := range f.bySyscall {
		parts = append(parts, fmt.Sprintf("%s×%d", name, n))
	}
	sort.Strings(parts)
	return []Finding{{
		Rule:     "failing-syscalls",
		Severity: SeverityInfo,
		Summary:  fmt.Sprintf("%d syscalls returned errors (%s)", f.total, strings.Join(parts, ", ")),
	}}
}

// ContentionWindow is one interval of the session timeline: how many
// distinct background threads issued I/O in it and how many syscalls the
// client thread completed.
type ContentionWindow struct {
	StartNS           int64
	BackgroundThreads int
	ClientSyscalls    int
}

// contentionPass finds the §III-C signature in a traced session: time
// windows where many background threads issue I/O while the client
// thread's syscall rate drops below DropFraction of its median. Events
// arrive in time order, so a window closes when the next window's key
// appears; windows with no events never exist.
type contentionPass struct {
	p       ContentionParams
	windows []ContentionWindow
	// active holds the background threads seen in the open (last) window.
	active map[string]bool
	// end bounds the open window: a row in [its start, end) is in it, and
	// skips the division. A window at a negative start, which truncating
	// division gives another shape, sets end to its start.
	end int64
}

func (c *contentionPass) Observe(r store.Row) {
	if t, n := r.TimeEnterNS(), len(c.windows); n == 0 || t < c.windows[n-1].StartNS || t >= c.end {
		start := t / c.p.WindowNS * c.p.WindowNS
		if n == 0 || c.windows[n-1].StartNS != start {
			c.windows = append(c.windows, ContentionWindow{StartNS: start})
			clear(c.active)
		}
		if c.end = start + c.p.WindowNS; start < 0 {
			c.end = start
		}
	}
	w := &c.windows[len(c.windows)-1]
	switch thread := r.ThreadName(); {
	case thread == c.p.ClientThread:
		w.ClientSyscalls++
	case strings.HasPrefix(thread, c.p.BackgroundPrefix) && !c.active[thread]:
		c.active[thread] = true
		w.BackgroundThreads++
	}
}

func (c *contentionPass) Finish(*DFG) []Finding {
	if len(c.windows) < 4 {
		return nil // not enough signal
	}
	sorted := make([]int, len(c.windows))
	for i, w := range c.windows {
		sorted[i] = w.ClientSyscalls
	}
	sort.Ints(sorted)
	median := float64(sorted[len(sorted)/2])

	var evidence []string
	for _, w := range c.windows {
		if w.BackgroundThreads >= c.p.MinBackground && float64(w.ClientSyscalls) < median*c.p.DropFraction {
			evidence = append(evidence, fmt.Sprintf(
				"window t=%d: %d %s* threads active, %s syscalls down to %d (median %.0f)",
				w.StartNS, w.BackgroundThreads, c.p.BackgroundPrefix, c.p.ClientThread, w.ClientSyscalls, median))
		}
	}
	if len(evidence) == 0 {
		return nil
	}
	return []Finding{{
		Rule:     "background-io-contention",
		Severity: SeverityWarning,
		Summary: fmt.Sprintf(
			"%d window(s) where >=%d background threads issue I/O while %s throughput drops below %.0f%% of median",
			len(evidence), c.p.MinBackground, c.p.ClientThread, c.p.DropFraction*100),
		Evidence: evidence,
	}}
}

// dfgPatternPass scores the session's Directly-Follows-Graph against known
// syscall-sequence anti-patterns: read→lseek→read ping-pong (a reader
// repositioning between consecutive reads instead of using positional I/O)
// and open/close churn (files reopened for trivial work). It reads nothing
// but the finished graph.
type dfgPatternPass struct{ p DFGParams }

func (dfgPatternPass) Observe(store.Row) {}

func (d dfgPatternPass) Finish(g *DFG) []Finding {
	var findings []Finding
	for _, proc := range g.Procs {
		edges := make(map[string]int64, len(proc.Edges))
		for _, e := range proc.Edges {
			edges[e.From+"→"+e.To] += e.Count
		}
		var opens, closes, dataOps int64
		for _, n := range proc.Nodes {
			switch n.Syscall {
			case "open", "openat", "creat":
				opens += n.Count
			case "close":
				closes += n.Count
			case "read", "pread64", "readv", "write", "pwrite64", "writev":
				dataOps += n.Count
			}
		}

		readSeek := edges["read→lseek"]
		seekRead := edges["lseek→read"]
		if readSeek >= d.p.PingPongMinCount && seekRead >= d.p.PingPongMinCount {
			findings = append(findings, Finding{
				Rule:     "read-lseek-ping-pong",
				Severity: SeverityWarning,
				Summary: fmt.Sprintf(
					"process %s (pid %d) alternates read and lseek (%d read→lseek, %d lseek→read follows): positional reads (pread64) would halve the syscall count",
					proc.Proc, proc.PID, readSeek, seekRead),
				Evidence: []string{fmt.Sprintf(
					"DFG edges read→lseek=%d lseek→read=%d", readSeek, seekRead)},
			})
		}
		if opens >= d.p.ChurnMinOpens && float64(dataOps) < d.p.ChurnMaxOpsPerOpen*float64(opens) {
			findings = append(findings, Finding{
				Rule:     "open-close-churn",
				Severity: SeverityWarning,
				Summary: fmt.Sprintf(
					"process %s (pid %d) opens files %d times for only %d data syscalls (%.1f per open): descriptors are churned instead of reused",
					proc.Proc, proc.PID, opens, dataOps, float64(dataOps)/float64(opens)),
				Evidence: []string{fmt.Sprintf(
					"DFG nodes opens=%d closes=%d data-ops=%d", opens, closes, dataOps)},
			})
		}
	}
	return findings
}
