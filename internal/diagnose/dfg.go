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

	"github.com/dsrhaslab/dio-go/internal/event"
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

// BuildDFG computes the session's DFG by streaming the stored events in
// total time order through pageSize-bounded cursor pages (pageSize <= 0
// selects the default). Memory is bounded by the distinct syscall kinds
// and live threads, not the session length.
func BuildDFG(ctx context.Context, b store.Backend, index, session string, pageSize int) (*DFG, error) {
	builder := newDFGBuilder()
	if err := eachEvent(ctx, b, index, store.Term(store.FieldSession, session), pageSize, builder.observe); err != nil {
		return nil, fmt.Errorf("dfg stream: %w", err)
	}
	return builder.finish(session, index), nil
}

// dfgBuilder folds time-ordered events into per-process node and edge
// aggregates; Engine.Analyze drives it from the same cursor as the detectors.
// Each process interns its syscall names to dense ids on first sight, so an
// event costs one string lookup: its node is a slice index and its edge a
// uint64 key, from<<32|to.
type dfgBuilder struct {
	procs  map[int]*procAgg
	events int64
}

type procAgg struct {
	name  string
	ids   map[string]int32 // syscall name → index into nodes
	nodes []nodeAgg
	edges map[uint64]*edgeAgg // from<<32 | to, both node ids
	last  map[int]prevCall    // by TID
}

type prevCall struct {
	id     int32
	exitNS int64
}

type nodeAgg struct {
	syscall       string
	count, errors int64
	dur           dfgHist
}

type edgeAgg struct {
	count int64
	gap   dfgHist
}

func newDFGBuilder() *dfgBuilder { return &dfgBuilder{procs: make(map[int]*procAgg)} }

func (b *dfgBuilder) observe(e *event.Event) {
	b.events++
	p := b.procs[e.PID]
	if p == nil {
		p = &procAgg{
			ids:   make(map[string]int32),
			edges: make(map[uint64]*edgeAgg),
			last:  make(map[int]prevCall),
		}
		b.procs[e.PID] = p
	}
	if p.name == "" {
		p.name = e.ProcName
	}
	id, ok := p.ids[e.Syscall]
	if !ok {
		id = int32(len(p.nodes))
		p.ids[e.Syscall] = id
		p.nodes = append(p.nodes, nodeAgg{syscall: e.Syscall})
	}
	n := &p.nodes[id]
	n.count++
	if e.RetVal < 0 {
		n.errors++
	}
	n.dur.observe(e.DurationNS())
	if pr, ok := p.last[e.TID]; ok {
		k := uint64(pr.id)<<32 | uint64(id)
		ed := p.edges[k]
		if ed == nil {
			ed = &edgeAgg{}
			p.edges[k] = ed
		}
		ed.count++
		ed.gap.observe(e.TimeEnterNS - pr.exitNS)
	}
	p.last[e.TID] = prevCall{id, e.TimeExitNS}
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
		byName := make([]int, len(p.nodes))
		for i := range byName {
			byName[i] = i
		}
		sort.Slice(byName, func(i, j int) bool { return p.nodes[byName[i]].syscall < p.nodes[byName[j]].syscall })
		// rank[id] is the node's place in name order, so an edge's place in
		// (from, to) name order is its key with both ids ranked.
		rank := make([]uint64, len(p.nodes))
		for r, i := range byName {
			n := &p.nodes[i]
			rank[i] = uint64(r)
			sub.Nodes = append(sub.Nodes, Node{
				Syscall: n.syscall, Count: n.count, Errors: n.errors,
				P50NS: n.dur.quantile(0.50),
				P95NS: n.dur.quantile(0.95),
				P99NS: n.dur.quantile(0.99),
			})
		}
		ranked := func(k uint64) uint64 { return rank[k>>32]<<32 | rank[uint32(k)] }
		keys := make([]uint64, 0, len(p.edges))
		for k := range p.edges {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return ranked(keys[i]) < ranked(keys[j]) })
		for _, k := range keys {
			ed := p.edges[k]
			sub.Edges = append(sub.Edges, Edge{
				From: p.nodes[k>>32].syscall, To: p.nodes[uint32(k)].syscall, Count: ed.count,
				P50NS: ed.gap.quantile(0.50),
				P95NS: ed.gap.quantile(0.95),
				P99NS: ed.gap.quantile(0.99),
			})
		}
		d.Procs = append(d.Procs, sub)
	}
	return d
}
