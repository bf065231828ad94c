package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// The deterministic in-process multi-node harness: fake nodes wrap real
// *store.Store instances behind the Node interface with injectable faults —
// the same pattern the chaos-repl suite uses one layer down — so partition
// routing, node loss mid-scatter, breaker transitions, and cursor resume run
// without sockets, deterministically, under -race.

const testIndex = "dio-events"

// memNode is an in-process partition node over a real store, with a settable
// fault that makes every call fail as if the node's transport died.
type memNode struct {
	st   *store.Store
	name string

	mu    sync.Mutex
	fault error
}

var _ Node = (*memNode)(nil)

func newMemNode(tb testing.TB, name string) *memNode {
	return &memNode{st: memStore(tb), name: name}
}

// memStore opens an in-memory store.
func memStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// setFault arms (or, with nil, clears) the injected failure.
func (m *memNode) setFault(err error) {
	m.mu.Lock()
	m.fault = err
	m.mu.Unlock()
}

func (m *memNode) injected() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fault
}

func (m *memNode) Target() string { return m.name }

// found maps the store's "index not found" onto the coordinator sentinel,
// mirroring what the HTTP adapter does with a 404.
func (m *memNode) found(index string) error {
	if _, ok := m.st.GetIndex(index); !ok {
		return fmt.Errorf("index %q not found on %s: %w", index, m.name, ErrIndexNotFound)
	}
	return nil
}

func (m *memNode) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	if err := m.injected(); err != nil {
		return err
	}
	return m.st.BulkEvents(ctx, index, events)
}

func (m *memNode) BulkFrame(ctx context.Context, index string, frame []byte) error {
	if err := m.injected(); err != nil {
		return err
	}
	events, err := event.DecodeBatch(frame, nil)
	if err != nil {
		return err
	}
	return m.st.BulkEvents(ctx, index, events)
}

func (m *memNode) Scatter(ctx context.Context, index string, sreq store.ScatterRequest) (store.ScatterResponse, error) {
	if err := m.injected(); err != nil {
		return store.ScatterResponse{}, err
	}
	if err := m.found(index); err != nil {
		return store.ScatterResponse{}, err
	}
	return m.st.Scatter(ctx, index, sreq)
}

func (m *memNode) Count(ctx context.Context, index string, q store.Query) (int, error) {
	if err := m.injected(); err != nil {
		return 0, err
	}
	if err := m.found(index); err != nil {
		return 0, err
	}
	return m.st.Count(ctx, index, q)
}

func (m *memNode) NamePaths(ctx context.Context, index string, rec event.PathsRecord) (store.CorrelationResult, error) {
	if err := m.injected(); err != nil {
		return store.CorrelationResult{}, err
	}
	return m.st.NamePaths(ctx, index, rec)
}

func (m *memNode) Stats(ctx context.Context, index string) (store.IndexStats, error) {
	if err := m.injected(); err != nil {
		return store.IndexStats{}, err
	}
	if err := m.found(index); err != nil {
		return store.IndexStats{}, err
	}
	return m.st.Stats(ctx, index)
}

func (m *memNode) ListIndices(ctx context.Context) ([]string, error) {
	if err := m.injected(); err != nil {
		return nil, err
	}
	return m.st.ListIndices(ctx)
}

func (m *memNode) DeleteIndex(ctx context.Context, index string) error {
	if err := m.injected(); err != nil {
		return err
	}
	return m.st.DeleteIndex(ctx, index)
}

func (m *memNode) HealthStatus(ctx context.Context) (store.HealthStatus, error) {
	if err := m.injected(); err != nil {
		return store.HealthStatus{}, err
	}
	return m.st.Health(ctx), nil
}

// clusterEvents builds a deterministic, varied batch: several processes and
// syscalls, strictly increasing enter times, integer magnitudes well inside
// float64's exact range so JSON round-trips are lossless.
func clusterEvents(round, n int) []event.Event {
	procs := []string{"postgres", "redis", "etcd"}
	calls := []struct{ sys, class string }{
		{"openat", "metadata"}, {"read", "read"}, {"write", "write"},
		{"fsync", "write"}, {"close", "metadata"},
	}
	out := make([]event.Event, n)
	for i := 0; i < n; i++ {
		g := round*10_000 + i
		c := calls[g%len(calls)]
		enter := int64(1_700_000_000_000)*1000 + int64(g)*1_000
		out[i] = event.Event{
			Session:     fmt.Sprintf("run-%d", round%2),
			Syscall:     c.sys,
			Class:       c.class,
			RetVal:      int64(g % 4096),
			FD:          3 + g%13,
			Count:       (g % 7) * 512,
			PID:         100 + g%3,
			TID:         200 + g%5,
			ProcName:    procs[g%len(procs)],
			ThreadName:  fmt.Sprintf("worker-%d", g%4),
			TimeEnterNS: enter,
			TimeExitNS:  enter + int64(50+g%900),
		}
	}
	return out
}

// clusterDocs builds a second, sparser batch shape (a loader process whose
// rows leave most optional fields unset), later in time than clusterEvents.
func clusterDocs(round, n int) []event.Event {
	out := make([]event.Event, n)
	for i := 0; i < n; i++ {
		g := round*10_000 + i
		out[i] = event.Event{
			Session:     fmt.Sprintf("run-%d", round%2),
			Syscall:     []string{"lseek", "stat", "pread64"}[g%3],
			ProcName:    "loader",
			ThreadName:  fmt.Sprintf("b%d", round),
			TimeEnterNS: int64(1_700_000_500_000)*1000 + int64(g)*1_000,
			RetVal:      int64(g % 257),
		}
	}
	return out
}

// ingestBoth drives one identical ingest sequence — interleaved bulks of the
// two batch shapes with sizes that are not multiples of the partition count,
// so stripes wrap mid-batch — into every backend in targets.

func ingestBoth(t *testing.T, targets ...store.EventBackend) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		ev := clusterEvents(round, 37+round*11)
		docs := clusterDocs(round, 13+round*5)
		for _, tg := range targets {
			if err := tg.BulkEvents(ctx, testIndex, ev); err != nil {
				t.Fatalf("round %d: bulk events: %v", round, err)
			}
			if err := tg.BulkEvents(ctx, testIndex, docs); err != nil {
				t.Fatalf("round %d: bulk docs: %v", round, err)
			}
		}
	}
}

func newTestCluster(t *testing.T, nodes int) (*Coordinator, []*memNode) {
	t.Helper()
	mems := make([]*memNode, nodes)
	ns := make([]Node, nodes)
	for i := range mems {
		mems[i] = newMemNode(t, fmt.Sprintf("mem-%d", i))
		ns[i] = mems[i]
	}
	co, err := New(Config{Clock: clock.NewVirtual(0)}, ns...)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	return co, mems
}

// differentialRequests is the query battery the byte-identity tests sweep:
// filters, sorts (numeric, string, multi-key, descending), windows, and
// every aggregation kind including sub-aggregations.
func differentialRequests() map[string]store.SearchRequest {
	return map[string]store.SearchRequest{
		"match_all_unbounded": {Query: store.MatchAll()},
		"term_filter":         {Query: store.Term(store.FieldSyscall, "write"), Size: 20},
		"window_from_size": {Query: store.MatchAll(), Size: 10, From: 17,
			Sort: []store.SortField{{Field: store.FieldTimeEnter}}},
		"sorted_numeric_desc": {Query: store.MatchAll(), Size: 25,
			Sort: []store.SortField{{Field: store.FieldTimeEnter, Desc: true}}},
		"sorted_string_multikey": {Query: store.MatchAll(), Size: 40,
			Sort: []store.SortField{
				{Field: store.FieldProcName},
				{Field: store.FieldRetVal, Desc: true},
			}},
		"sorted_missing_field": {Query: store.Term(store.FieldProcName, "loader"), Size: 15,
			Sort: []store.SortField{{Field: store.FieldFD}}}, // docs rows lack fd
		"exists_filter": {Query: store.Exists("batch"), Size: 12},
		"aggs_all_kinds": {Query: store.MatchAll(), Size: 5, Aggs: map[string]store.Agg{
			"by_syscall": {Terms: &store.TermsAgg{Field: store.FieldSyscall, Size: 4}},
			"by_minute":  {DateHistogram: &store.DateHistogramAgg{Field: store.FieldTimeEnter, IntervalNS: int64(time.Minute)}},
			"ret_pcts":   {Percentiles: &store.PercentilesAgg{Field: store.FieldRetVal, Percents: []float64{50, 90, 99}}},
			"ret_stats":  {Stats: &store.StatsAgg{Field: store.FieldRetVal}},
		}},
		"aggs_sub": {Query: store.Term(store.FieldSession, "run-0"), Size: 0, Aggs: map[string]store.Agg{
			"by_proc": {
				Terms: &store.TermsAgg{Field: store.FieldProcName},
				Aggs: map[string]store.Agg{
					"lat": {Stats: &store.StatsAgg{Field: store.FieldRetVal}},
				},
			},
		}},
		// The Fig. 4 timeline: histogram buckets split by thread name.
		"aggs_timeline": {Query: store.Term(store.FieldSession, "run-1"), Size: 1, Aggs: map[string]store.Agg{
			"timeline": {
				DateHistogram: &store.DateHistogramAgg{Field: store.FieldTimeEnter, IntervalNS: 10_000_000},
				Aggs: map[string]store.Agg{
					"by_thread": {Terms: &store.TermsAgg{Field: store.FieldThreadName}},
				},
			},
		}},
		// Two levels, with Size truncation on the parent: the top processes
		// are chosen after the cross-partition merge, then split over time.
		"aggs_two_level": {Query: store.MatchAll(), Size: 1, Aggs: map[string]store.Agg{
			"top_procs": {
				Terms: &store.TermsAgg{Field: store.FieldProcName, Size: 3},
				Aggs: map[string]store.Agg{
					"over_time": {
						DateHistogram: &store.DateHistogramAgg{Field: store.FieldTimeEnter, IntervalNS: 10_000_000},
						Aggs: map[string]store.Agg{
							"ret":  {Stats: &store.StatsAgg{Field: store.FieldRetVal}},
							"size": {Percentiles: &store.PercentilesAgg{Field: store.FieldCount}},
						},
					},
				},
			},
		}},
		// Stamps whose sum a float64 rounds at every row: the answer must
		// not depend on how the rows are partitioned.
		"aggs_stats_time": {Query: store.MatchAll(), Size: 1, Aggs: map[string]store.Agg{
			"enter": {Stats: &store.StatsAgg{Field: store.FieldTimeEnter}},
			"exit":  {Stats: &store.StatsAgg{Field: store.FieldTimeExit}},
		}},
		// Percentiles over zero numeric values (loader rows carry no count),
		// top-level and nested: no percentiles, and a body JSON can carry.
		"aggs_empty_percentiles": {Query: store.Term(store.FieldProcName, "loader"), Size: 1, Aggs: map[string]store.Agg{
			"size": {Percentiles: &store.PercentilesAgg{Field: store.FieldCount}},
			"by_sys": {
				Terms: &store.TermsAgg{Field: store.FieldSyscall},
				Aggs:  map[string]store.Agg{"size": {Percentiles: &store.PercentilesAgg{Field: store.FieldCount}}},
			},
		}},
	}
}

// fingerprint renders a response, a node's or the coordinator's, to canonical
// JSON.
func fingerprint(t *testing.T, resp store.SearchResponse) string {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("marshal response: %v", err)
	}
	return string(b)
}

// documents is b's SearchEvents rendered as a node's Search renders it.
func documents(ctx context.Context, b store.Backend, index string, req store.SearchRequest) (store.SearchResponse, error) {
	res, err := b.SearchEvents(ctx, index, req)
	return res.Documents(), err
}

// TestClusterDifferentialFingerprint is the acceptance differential: every
// search, count, aggregation, and cursor walk must return byte-identical
// results on a 1-node store and a 4-node partitioned cluster over the same
// ingest.
func TestClusterDifferentialFingerprint(t *testing.T) {
	ctx := context.Background()
	single := memStore(t)
	co, _ := newTestCluster(t, 4)
	ingestBoth(t, single, co)

	for name, req := range differentialRequests() {
		sresp, err := single.Search(ctx, testIndex, req)
		if err != nil {
			t.Fatalf("%s: single search: %v", name, err)
		}
		cresp, err := documents(ctx, co, testIndex, req)
		if err != nil {
			t.Fatalf("%s: cluster search: %v", name, err)
		}
		if got, want := fingerprint(t, cresp), fingerprint(t, sresp); got != want {
			t.Fatalf("%s: cluster response diverged\nsingle:  %s\ncluster: %s", name, want, got)
		}
	}

	// Ternary logic partitioning: every row of a query's match either
	// matches a predicate or does not, so the coordinator's count of Q is
	// its count of Q ∧ p plus its count of Q ∧ ¬p, p on fields some rows
	// lack (loader rows carry no count, fd or class) among them.
	for name, req := range differentialRequests() {
		for _, p := range []store.Query{
			store.Exists(store.FieldCount),
			store.RangeGTE(store.FieldCount, 1024),
			store.Term(store.FieldFD, 5),
			store.Term(store.FieldClass, "write"),
			store.Prefix(store.FieldThreadName, "worker-"),
			store.Exists("batch"),
		} {
			count := func(q store.Query) int {
				n, err := co.Count(ctx, testIndex, q)
				if err != nil {
					t.Fatalf("%s: cluster count: %v", name, err)
				}
				return n
			}
			n := [3]int{count(req.Query), count(store.Must(req.Query, p)), count(store.Must(req.Query, store.MustNot(p)))}
			if n[0] != n[1]+n[2] {
				t.Fatalf("%s ∧ %+v: count %d, but %d with the predicate and %d without", name, p, n[0], n[1], n[2])
			}
		}
	}

	for _, q := range []store.Query{
		store.MatchAll(),
		store.Term(store.FieldSyscall, "fsync"),
		store.Term(store.FieldProcName, "etcd"),
		store.Exists("batch"),
	} {
		sn, err := single.Count(ctx, testIndex, q)
		if err != nil {
			t.Fatalf("single count: %v", err)
		}
		cn, err := co.Count(ctx, testIndex, q)
		if err != nil {
			t.Fatalf("cluster count: %v", err)
		}
		if sn != cn {
			t.Fatalf("count diverged: single %d cluster %d", sn, cn)
		}
	}

	// Cursor walks: unsorted (insertion order) and sorted, paged to
	// exhaustion; every page and every continuation token must match.
	walks := map[string]store.SearchRequest{
		"walk_unsorted": {Query: store.MatchAll(), Size: 7},
		"walk_sorted": {Query: store.Term(store.FieldSession, "run-1"), Size: 9,
			Sort: []store.SortField{
				{Field: store.FieldSyscall},
				{Field: store.FieldTimeEnter, Desc: true},
			}},
	}
	for name, base := range walks {
		sreq, creq := base, base
		for page := 0; ; page++ {
			sresp, err := single.Search(ctx, testIndex, sreq)
			if err != nil {
				t.Fatalf("%s page %d: single: %v", name, page, err)
			}
			cresp, err := documents(ctx, co, testIndex, creq)
			if err != nil {
				t.Fatalf("%s page %d: cluster: %v", name, page, err)
			}
			if got, want := fingerprint(t, cresp), fingerprint(t, sresp); got != want {
				t.Fatalf("%s page %d diverged\nsingle:  %s\ncluster: %s", name, page, want, got)
			}
			if sresp.NextAfter == nil {
				break
			}
			sreq.SearchAfter, creq.SearchAfter = sresp.NextAfter, cresp.NextAfter
			if page > 50 {
				t.Fatalf("%s: cursor walk did not terminate", name)
			}
		}
	}
}

// TestClusterSingleNodeTransparent pins the P=1 degenerate case: a 1-node
// coordinator is a pure proxy — same bytes as the store underneath it.
func TestClusterSingleNodeTransparent(t *testing.T) {
	ctx := context.Background()
	single := memStore(t)
	co, mems := newTestCluster(t, 1)
	ingestBoth(t, single, co)
	for name, req := range differentialRequests() {
		sresp, err := single.Search(ctx, testIndex, req)
		if err != nil {
			t.Fatalf("%s: single: %v", name, err)
		}
		cresp, err := documents(ctx, co, testIndex, req)
		if err != nil {
			t.Fatalf("%s: cluster: %v", name, err)
		}
		if fingerprint(t, cresp) != fingerprint(t, sresp) {
			t.Fatalf("%s: 1-node coordinator diverged from bare store", name)
		}
	}
	// And the backing store really holds everything (no phantom striping).
	n, err := mems[0].st.Count(ctx, testIndex, store.MatchAll())
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	sn, _ := single.Count(ctx, testIndex, store.MatchAll())
	if n != sn {
		t.Fatalf("1-node cluster holds %d rows, bare store %d", n, sn)
	}
}

// TestClusterNodeLossMidScatter: a partition failing mid-scatter must fail
// the whole search — never partial data — then trip its breaker so later
// scatters fail fast, and recover through the half-open probe when the node
// returns.
func TestClusterNodeLossMidScatter(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(0)
	mems := make([]*memNode, 4)
	ns := make([]Node, 4)
	for i := range mems {
		mems[i] = newMemNode(t, fmt.Sprintf("mem-%d", i))
		ns[i] = mems[i]
	}
	co, err := New(Config{Clock: clk, BreakerThreshold: 3, BreakerCooldown: time.Second}, ns...)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	ingestBoth(t, co)

	req := store.SearchRequest{Query: store.MatchAll(), Size: 10}
	if _, err := co.SearchEvents(ctx, testIndex, req); err != nil {
		t.Fatalf("healthy search: %v", err)
	}

	boom := errors.New("connection reset by peer")
	mems[2].setFault(boom)
	for i := 0; i < 3; i++ {
		_, err := co.SearchEvents(ctx, testIndex, req)
		if err == nil {
			t.Fatalf("search %d with dead partition returned data", i)
		}
		if !strings.Contains(err.Error(), "partition 2") || !errors.Is(err, boom) {
			t.Fatalf("search %d: error does not name the dead partition: %v", i, err)
		}
	}
	if st := co.BreakerState(2); st != resilience.BreakerOpen {
		t.Fatalf("breaker after 3 failures = %v, want open", st)
	}
	// Open circuit: the scatter fails fast without touching the dead node.
	if _, err := co.SearchEvents(ctx, testIndex, req); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("search with open breaker: %v, want ErrNodeUnavailable", err)
	}

	// Node comes back; after the cooldown the half-open probe closes the
	// circuit and scatters flow again.
	mems[2].setFault(nil)
	clk.Advance(2 * time.Second)
	if _, err := co.SearchEvents(ctx, testIndex, req); err != nil {
		t.Fatalf("search after recovery: %v", err)
	}
	if st := co.BreakerState(2); st != resilience.BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", st)
	}
}

// TestClusterWriteFailureReseeds: a striped bulk failing on one partition is
// an error to the client, bumps the partial-failure counter, and drops the
// row-counter seed; the next successful write re-derives it from node state
// and the cluster keeps answering exact counts.
func TestClusterWriteFailureReseeds(t *testing.T) {
	ctx := context.Background()
	co, mems := newTestCluster(t, 4)
	ingestBoth(t, co)
	before, err := co.Count(ctx, testIndex, store.MatchAll())
	if err != nil {
		t.Fatalf("count: %v", err)
	}

	boom := errors.New("node down")
	mems[1].setFault(boom)
	batch := clusterEvents(9, 23)
	if err := co.BulkEvents(ctx, testIndex, batch); !errors.Is(err, boom) {
		t.Fatalf("striped bulk with dead partition: %v, want the node error", err)
	}
	mems[1].setFault(nil)

	// The failed bulk landed on some partitions only; the next write reseeds
	// and keeps going. Counts stay exact relative to what each node holds.
	if err := co.BulkEvents(ctx, testIndex, clusterEvents(10, 17)); err != nil {
		t.Fatalf("bulk after reseed: %v", err)
	}
	after, err := co.Count(ctx, testIndex, store.MatchAll())
	if err != nil {
		t.Fatalf("count after reseed: %v", err)
	}
	perNode := 0
	for _, m := range mems {
		n, err := m.st.Count(ctx, testIndex, store.MatchAll())
		if err != nil {
			t.Fatalf("node count: %v", err)
		}
		perNode += n
	}
	if after != perNode {
		t.Fatalf("cluster count %d != sum of node counts %d", after, perNode)
	}
	if after <= before {
		t.Fatalf("count did not grow past %d after recovery (got %d)", before, after)
	}
	// Searches still work over the seam (tie order at the seam is synthetic
	// but total; the response must simply be well-formed and complete).
	resp, err := documents(ctx, co, testIndex, store.SearchRequest{Query: store.MatchAll()})
	if err != nil {
		t.Fatalf("search over seam: %v", err)
	}
	if resp.Total != after || len(resp.Hits) != after {
		t.Fatalf("search over seam: total %d hits %d, want %d", resp.Total, len(resp.Hits), after)
	}
}

// TestClusterCursorResumeAcrossCoordinators: a continuation token minted by
// one coordinator resumes on a fresh coordinator over the same nodes — the
// row counter reseeds from the partitions' Rows sums, so cluster-global ids
// (and therefore cursor positions) are stable across coordinator restarts.
func TestClusterCursorResumeAcrossCoordinators(t *testing.T) {
	ctx := context.Background()
	single := memStore(t)
	co1, mems := newTestCluster(t, 4)
	ingestBoth(t, single, co1)

	req := store.SearchRequest{
		Query: store.MatchAll(), Size: 11,
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	}
	sresp, err := single.Search(ctx, testIndex, req)
	if err != nil {
		t.Fatalf("single page 1: %v", err)
	}
	cresp, err := documents(ctx, co1, testIndex, req)
	if err != nil {
		t.Fatalf("cluster page 1: %v", err)
	}
	if fingerprint(t, cresp) != fingerprint(t, sresp) {
		t.Fatal("page 1 diverged")
	}

	// A new coordinator process takes over (the old one's counter state is
	// gone); it must keep assigning ids consistently and honor the old
	// cursor.
	ns := make([]Node, len(mems))
	for i := range mems {
		ns[i] = mems[i]
	}
	co2, err := New(Config{Clock: clock.NewVirtual(0)}, ns...)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	// More ingest through the NEW coordinator before resuming: the reseeded
	// counter must continue the global sequence exactly.
	extra := clusterEvents(20, 19)
	if err := single.BulkEvents(ctx, testIndex, extra); err != nil {
		t.Fatalf("single extra ingest: %v", err)
	}
	if err := co2.BulkEvents(ctx, testIndex, extra); err != nil {
		t.Fatalf("cluster extra ingest: %v", err)
	}

	sreq, creq := req, req
	sreq.SearchAfter, creq.SearchAfter = sresp.NextAfter, cresp.NextAfter
	for page := 2; ; page++ {
		sresp, err = single.Search(ctx, testIndex, sreq)
		if err != nil {
			t.Fatalf("single page %d: %v", page, err)
		}
		cresp, err = documents(ctx, co2, testIndex, creq)
		if err != nil {
			t.Fatalf("cluster page %d: %v", page, err)
		}
		if fingerprint(t, cresp) != fingerprint(t, sresp) {
			t.Fatalf("page %d diverged after coordinator handover", page)
		}
		if sresp.NextAfter == nil {
			break
		}
		sreq.SearchAfter, creq.SearchAfter = sresp.NextAfter, cresp.NextAfter
		if page > 60 {
			t.Fatal("cursor walk did not terminate")
		}
	}
}

// TestClusterStatsAggregation pins the satellite: _stats aggregates across
// the coordinator and exposes per-partition doc counts.
func TestClusterStatsAggregation(t *testing.T) {
	ctx := context.Background()
	single := memStore(t)
	co, _ := newTestCluster(t, 4)
	ingestBoth(t, single, co)

	want, _ := single.Count(ctx, testIndex, store.MatchAll())
	st, err := co.Stats(ctx, testIndex)
	if err != nil {
		t.Fatalf("cluster stats: %v", err)
	}
	if st.Index != testIndex || st.Docs != want || st.Rows != int64(want) {
		t.Fatalf("cluster stats = %+v, want %d docs/rows for %q", st, want, testIndex)
	}
	if len(st.Partitions) != 4 {
		t.Fatalf("stats partitions = %d, want 4", len(st.Partitions))
	}
	sum := 0
	for p, ps := range st.Partitions {
		if ps.Partition != p || ps.Target != fmt.Sprintf("mem-%d", p) {
			t.Fatalf("partition %d stats mislabeled: %+v", p, ps)
		}
		if ps.Docs == 0 {
			t.Fatalf("partition %d owns no rows — striping is not spreading", p)
		}
		sum += ps.Docs
	}
	if sum != want {
		t.Fatalf("per-partition docs sum %d != total %d", sum, want)
	}

	// Missing index: 404-equivalent, not an empty report.
	if _, err := co.Stats(ctx, "nope"); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("stats on missing index: %v, want ErrIndexNotFound", err)
	}
}

// TestClusterFrameForwardVerbatim: on a 1-partition cluster the binary frame
// is forwarded byte-for-byte (no decode/re-encode of the payload sent to the
// node); with more partitions the frame is split at event granularity.
func TestClusterFrameForwardVerbatim(t *testing.T) {
	ctx := context.Background()
	rec := &frameRecorder{memNode: newMemNode(t, "rec-0")}
	co, err := New(Config{Clock: clock.NewVirtual(0)}, rec)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	events := clusterEvents(0, 9)
	frame := event.EncodeBatch(nil, events)
	items, err := co.BulkFrame(ctx, testIndex, frame)
	if err != nil {
		t.Fatalf("bulk frame: %v", err)
	}
	if items != len(events) {
		t.Fatalf("items = %d, want %d", items, len(events))
	}
	if len(rec.frames) != 1 || !bytes.Equal(rec.frames[0], frame) {
		t.Fatalf("1-node coordinator did not forward the frame verbatim (%d frames)", len(rec.frames))
	}

	// P>1: the split path delivers every event exactly once.
	co4, mems := newTestCluster(t, 4)
	if _, err := co4.BulkFrame(ctx, testIndex, frame); err != nil {
		t.Fatalf("striped bulk frame: %v", err)
	}
	total := 0
	for _, m := range mems {
		n, err := m.st.Count(ctx, testIndex, store.MatchAll())
		if err != nil {
			t.Fatalf("node count: %v", err)
		}
		total += n
	}
	if total != len(events) {
		t.Fatalf("striped frame delivered %d events, want %d", total, len(events))
	}
}

// frameRecorder captures the frames a 1-node coordinator forwards.
type frameRecorder struct {
	*memNode
	frames [][]byte
}

func (f *frameRecorder) BulkFrame(ctx context.Context, index string, frame []byte) error {
	f.frames = append(f.frames, append([]byte(nil), frame...))
	return f.memNode.BulkFrame(ctx, index, frame)
}

// TestClusterScatterErrorMapping: a scattered request must fail exactly like
// a direct one — bad cursors are client errors on both paths.
func TestClusterScatterErrorMapping(t *testing.T) {
	ctx := context.Background()
	co, _ := newTestCluster(t, 3)
	ingestBoth(t, co)

	// From alongside a cursor is rejected even though the node-local rewrite
	// would mask it (the node validates the original request).
	bad := store.SearchRequest{
		Query: store.MatchAll(), Size: 5, From: 3,
		SearchAfter: []any{float64(10)},
	}
	if _, err := co.SearchEvents(ctx, testIndex, bad); store.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("From+cursor through cluster: %v, want a bad-request error", err)
	}
	// Arity mismatch likewise.
	bad2 := store.SearchRequest{
		Query: store.MatchAll(), Size: 5,
		Sort:        []store.SortField{{Field: store.FieldTimeEnter}},
		SearchAfter: []any{float64(10)}, // missing the sort value
	}
	if _, err := co.SearchEvents(ctx, testIndex, bad2); store.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("bad arity through cluster: %v, want a bad-request error", err)
	}
	// Missing index surfaces as not-found when no partition has it.
	if _, err := co.SearchEvents(ctx, "nope", store.SearchRequest{Query: store.MatchAll()}); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("missing index through cluster: %v, want ErrIndexNotFound", err)
	}
}

// TestClusterListAndDelete: _cat union and cluster-wide index drops.
func TestClusterListAndDelete(t *testing.T) {
	ctx := context.Background()
	co, mems := newTestCluster(t, 3)
	ingestBoth(t, co)
	// A second index that happens to live on one node only (written behind
	// the coordinator's back — the union must still report it).
	if err := mems[2].st.BulkEvents(ctx, "side", clusterDocs(0, 3)); err != nil {
		t.Fatalf("side bulk: %v", err)
	}
	names, err := co.ListIndices(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(names) != 2 || names[0] != testIndex || names[1] != "side" {
		t.Fatalf("list = %v, want [%s side]", names, testIndex)
	}
	if err := co.DeleteIndex(ctx, testIndex); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := co.Count(ctx, testIndex, store.MatchAll()); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("count after delete: %v, want ErrIndexNotFound", err)
	}
	// Re-created index seeds from zero again and stays consistent.
	if err := co.BulkEvents(ctx, testIndex, clusterEvents(0, 8)); err != nil {
		t.Fatalf("re-create: %v", err)
	}
	n, err := co.Count(ctx, testIndex, store.MatchAll())
	if err != nil || n != 8 {
		t.Fatalf("count after re-create = %d, %v; want 8", n, err)
	}
}

// TestClusterHealthDegraded: the health report names the dead partition and
// its breaker position, and flips the cluster status to degraded.
func TestClusterHealthDegraded(t *testing.T) {
	ctx := context.Background()
	co, mems := newTestCluster(t, 3)
	h := co.Health(ctx)
	if h.Status != "ok" || h.Partitions != 3 || len(h.Nodes) != 3 {
		t.Fatalf("healthy cluster health = %+v", h)
	}
	mems[1].setFault(errors.New("gone"))
	h = co.Health(ctx)
	if h.Status != "degraded" {
		t.Fatalf("health with dead node = %q, want degraded", h.Status)
	}
	if h.Nodes[1].Status != "unreachable" || h.Nodes[1].Error == "" {
		t.Fatalf("dead node entry = %+v", h.Nodes[1])
	}
	if h.Nodes[0].Status != "ok" || h.Nodes[2].Status != "ok" {
		t.Fatalf("live nodes misreported: %+v", h.Nodes)
	}
}
