package diagnose

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/dsrhaslab/dio-go/internal/store"
)

// DFG is a session's syscall Directly-Follows-Graph (Sankaran et al.,
// arXiv:2408.07378): per traced process, nodes are syscall kinds and a
// directed edge A→B counts how often a thread's syscall B directly
// followed its syscall A, with latency quantiles on both. Follows are
// computed per thread, so two threads interleaving in wall-clock order
// never fabricate an edge neither of them executed.
//
// The graph is built from the stored events through the sorted streaming
// cursor; because sorted search has a total order independent of shard or
// partition layout, the same session yields byte-identical marshaled
// graphs across shard counts.
type DFG struct {
	Session string `json:"session"`
	Index   string `json:"index,omitempty"`
	// Events is the number of stored events folded into the graph.
	Events int64 `json:"events"`
	// Procs holds one subgraph per traced process, sorted by PID.
	Procs []ProcessDFG `json:"processes"`
}

// ProcessDFG is one process's subgraph.
type ProcessDFG struct {
	PID   int    `json:"pid"`
	Proc  string `json:"proc_name"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// Node is one syscall kind with duration quantiles.
type Node struct {
	Syscall string `json:"syscall"`
	Count   int64  `json:"count"`
	// Errors counts invocations that returned a negative value.
	Errors int64 `json:"errors"`
	// P50/P95/P99 are syscall duration quantiles in nanoseconds.
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
}

// Edge is one observed directly-follows relation with inter-call gap
// quantiles (exit of From to enter of To, same thread).
type Edge struct {
	From  string  `json:"from"`
	To    string  `json:"to"`
	Count int64   `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
}

// Fingerprint is the SHA-256 of the canonical JSON encoding — the value
// the determinism tests compare across shard counts.
func (d *DFG) Fingerprint() string {
	raw, err := json.Marshal(d)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// edgeCounts folds every process's edges into one session-level count per
// "from→to" label (the view Diff compares, since PIDs differ across runs).
func (d *DFG) edgeCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, p := range d.Procs {
		for _, e := range p.Edges {
			out[e.From+"→"+e.To] += e.Count
		}
	}
	return out
}

// dfgHist is a fixed power-of-two-bucket histogram over non-negative
// nanosecond samples. Quantiles interpolate linearly inside the matched
// bucket; with fixed bounds and integer counts the result is a pure
// function of the sample multiset, which keeps marshaled DFGs
// deterministic across shard counts and build orders.
type dfgHist struct {
	counts [64]int64
	total  int64
}

func (h *dfgHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bits.Len64(uint64(ns))]++ // bucket i covers [2^(i-1), 2^i)
	h.total++
}

func (h *dfgHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo = math.Exp2(float64(i - 1))
				hi = math.Exp2(float64(i))
			}
			frac := (rank - seen) / float64(c)
			return lo + frac*(hi-lo)
		}
		seen += float64(c)
	}
	return math.Exp2(63)
}

// BuildDFG computes the session's DFG by streaming the stored rows in
// total time order through pageSize-bounded cursor pages (pageSize <= 0
// selects the default). Memory is bounded by the distinct syscall kinds
// and live threads, not the session length.
func BuildDFG(ctx context.Context, b store.Backend, index, session string, pageSize int) (*DFG, error) {
	builder := newDFGBuilder()
	if err := eachRow(ctx, b, index, store.Term(store.FieldSession, session), pageSize, builder.observe); err != nil {
		return nil, fmt.Errorf("dfg stream: %w", err)
	}
	return builder.finish(session, index), nil
}

// dfgBuilder folds time-ordered rows into per-process node and edge
// aggregates; Engine.Analyze drives it from the same cursor as the detectors.
// A row's syscall is read as its dictionary code, which the code table
// (store.CodeTable) turns into a dense syscall id, and each process keys its
// nodes by that id: a row's node is two slice indexes, with no string hashed,
// and its edge an index into the from-node's out-edges. Node names are made
// only in finish. A process is looked up only when the PID changes from the
// row before, and a thread's previous call once, to be read and then updated
// in place.
type dfgBuilder struct {
	procs    map[int]*procAgg
	pid      int      // the PID of proc
	proc     *procAgg // the process of the last row, nil before the first
	syscalls *store.CodeTable
	events   int64
}

type procAgg struct {
	name  string
	ids   []int32 // by syscall id: one more than the node's index into nodes, 0 for none
	nodes []nodeAgg
	last  map[int]*prevCall // by TID
}

type prevCall struct {
	id     int32
	exitNS int64
}

type nodeAgg struct {
	syscall       int32 // its syscall id
	count, errors int64
	dur           dfgHist
	out           []*edgeAgg // by to-node id, nil where no edge was seen
}

type edgeAgg struct {
	count int64
	gap   dfgHist
}

func newDFGBuilder() *dfgBuilder {
	return &dfgBuilder{procs: make(map[int]*procAgg), syscalls: store.NewCodeTable(store.FieldSyscall)}
}

func (b *dfgBuilder) observe(r store.Row) {
	b.events++
	p := b.proc
	if pid := r.PID(); p == nil || pid != b.pid {
		if p = b.procs[pid]; p == nil {
			p = &procAgg{last: make(map[int]*prevCall)}
			b.procs[pid] = p
		}
		b.pid, b.proc = pid, p
	}
	if p.name == "" {
		p.name = r.ProcName()
	}
	sc := b.syscalls.ID(r)
	if int(sc) >= len(p.ids) {
		p.ids = append(p.ids, make([]int32, int(sc)+1-len(p.ids))...)
	}
	id := p.ids[sc] - 1
	if id < 0 {
		id = int32(len(p.nodes))
		p.ids[sc] = id + 1
		p.nodes = append(p.nodes, nodeAgg{syscall: sc})
	}
	n := &p.nodes[id]
	n.count++
	if r.RetVal() < 0 {
		n.errors++
	}
	n.dur.observe(r.DurationNS())
	tid := r.TID()
	pr := p.last[tid]
	if pr == nil {
		p.last[tid] = &prevCall{id, r.TimeExitNS()}
		return
	}
	from := &p.nodes[pr.id]
	if int(id) >= len(from.out) {
		from.out = append(from.out, make([]*edgeAgg, int(id)+1-len(from.out))...)
	}
	ed := from.out[id]
	if ed == nil {
		ed = &edgeAgg{}
		from.out[id] = ed
	}
	ed.count++
	ed.gap.observe(r.TimeEnterNS() - pr.exitNS)
	pr.id, pr.exitNS = id, r.TimeExitNS()
}

// finish renders the aggregates as the DFG: processes by PID, nodes by
// syscall name and edges by (from, to) name, whatever order ids were
// assigned in.
func (b *dfgBuilder) finish(session, index string) *DFG {
	d := &DFG{Session: session, Index: index, Events: b.events}
	pids := make([]int, 0, len(b.procs))
	for pid := range b.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p := b.procs[pid]
		sub := ProcessDFG{PID: pid, Proc: p.name}
		byName, names := make([]int, len(p.nodes)), make([]string, len(p.nodes))
		for i := range byName {
			byName[i], names[i] = i, b.syscalls.Name(p.nodes[i].syscall)
		}
		sort.Slice(byName, func(i, j int) bool { return names[byName[i]] < names[byName[j]] })
		for _, i := range byName {
			n := &p.nodes[i]
			sub.Nodes = append(sub.Nodes, Node{
				Syscall: names[i], Count: n.count, Errors: n.errors,
				P50NS: n.dur.quantile(0.50),
				P95NS: n.dur.quantile(0.95),
				P99NS: n.dur.quantile(0.99),
			})
		}
		// Both ends in name order: the edges in (from, to) name order.
		for _, i := range byName {
			from := &p.nodes[i]
			for _, j := range byName {
				if j >= len(from.out) || from.out[j] == nil {
					continue
				}
				ed := from.out[j]
				sub.Edges = append(sub.Edges, Edge{
					From: names[i], To: names[j], Count: ed.count,
					P50NS: ed.gap.quantile(0.50),
					P95NS: ed.gap.quantile(0.95),
					P99NS: ed.gap.quantile(0.99),
				})
			}
		}
		d.Procs = append(d.Procs, sub)
	}
	return d
}
