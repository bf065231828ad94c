// Package cluster lifts the store's intra-node shard fan-out one level up: a
// thin coordinator stripes an index's rows across N diod nodes and routes the
// full v1 surface — bulk writes hashed to their owner partitions, searches
// scattered to every partition and gathered through the SAME merge layer the
// shard fan-out reduces through one level down (store/merge.go, DESIGN.md
// §16).
//
// Partitioning is row-level round-robin: cluster-global row g lives on
// partition p = g mod P at node-local row id l = (g-p)/P, and maps back as
// g = l*P + p. Because (l, p) lexicographic order equals global row order,
// a P-node cluster and a 1-node store holding the same ingest return
// byte-identical responses for every search, count, and aggregation — the
// differential tests pin exactly that.
//
// The coordinator holds no durable state of its own. Its one piece of
// arithmetic — the next cluster-global row id per index — is seeded lazily
// from the sum of the partitions' Rows counters (which WAL replay and
// follower bootstrap both restore), and dropped for re-derivation whenever a
// striped bulk fails partway: after such a seam the per-partition row sets
// are no longer exactly {g : g mod P == p}, which degrades nothing but the
// tie order of rows ingested across the seam (counts, aggregations, and
// filter results stay exact; the synthetic l*P+p order remains total and
// deterministic).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Node is one partition's backend: the slice of the store surface the
// coordinator routes through. HTTP deployments satisfy it with a
// *store.FailoverClient over the partition's primary and followers, so the
// client's resilience ladder (probe, switch, retry once) runs per partition
// underneath the coordinator's per-partition circuit breaker; the in-process
// test harness satisfies it with fake nodes over *store.Store.
type Node interface {
	// Target names the node for health reports and error messages.
	Target() string
	BulkEvents(ctx context.Context, index string, events []event.Event) error
	// BulkFrame forwards an already-encoded binary event frame verbatim.
	BulkFrame(ctx context.Context, index string, frame []byte) error
	Scatter(ctx context.Context, index string, sreq store.ScatterRequest) (store.ScatterResponse, error)
	Count(ctx context.Context, index string, q store.Query) (int, error)
	// NamePaths names the partition's rows with a correlation pass's record.
	NamePaths(ctx context.Context, index string, rec event.PathsRecord) (store.CorrelationResult, error)
	Stats(ctx context.Context, index string) (store.IndexStats, error)
	ListIndices(ctx context.Context) ([]string, error)
	DeleteIndex(ctx context.Context, index string) error
	HealthStatus(ctx context.Context) (store.HealthStatus, error)
}

var _ Node = (*store.FailoverClient)(nil)

// ErrIndexNotFound is the store's typed "index not found", which a node
// answers with 404 and the HTTP client maps back: it lets the coordinator tell
// "this partition owns no rows of the index yet" (treated as empty) from a
// real failure (never treated as empty).
var ErrIndexNotFound = store.ErrIndexNotFound

// ErrNodeUnavailable is returned without touching the wire when a
// partition's circuit breaker is open: the node failed repeatedly and the
// cooldown has not elapsed.
var ErrNodeUnavailable = errors.New("cluster: partition node unavailable (circuit open)")

// partitionError is one partition's failure, naming the partition and its
// node. It is a store.StatusError: the node's own status where its error has
// one (a 400 for a route its front end does not serve, say, as for a server
// without _scatter: only a 404 is an empty partition), else 503 for an open
// circuit and 502 for any other failure — the coordinator's own, and
// store.Transient either way.
type partitionError struct {
	p      int
	target string
	err    error
}

func (e *partitionError) Error() string {
	return fmt.Sprintf("cluster: partition %d (%s): %v", e.p, e.target, e.err)
}

func (e *partitionError) Unwrap() error { return e.err }

// HTTPStatus implements store.StatusError.
func (e *partitionError) HTTPStatus() int {
	switch code := store.StatusOf(e.err); {
	case errors.Is(e.err, ErrNodeUnavailable):
		return http.StatusServiceUnavailable
	case code != http.StatusInternalServerError:
		return code
	}
	return http.StatusBadGateway
}

// Config tunes the coordinator's resilience ladder.
type Config struct {
	// BreakerThreshold is the consecutive-failure count that opens a
	// partition's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// admitting a probe (default 5s).
	BreakerCooldown time.Duration
	// Clock drives breaker cooldowns; tests inject a virtual clock. Defaults
	// to the real clock.
	Clock clock.Clock
	// Registry receives the coordinator's routing/fan-out/lag counters; one
	// is created if nil (exposed at GET /metrics either way).
	Registry *telemetry.Registry
}

// clusterIndex is the coordinator's only per-index state: the next
// cluster-global row id, guarded by a mutex held across reserve AND the
// striped posts so concurrent bulks cannot interleave their per-node appends
// (node-local append order must follow global row order).
type clusterIndex struct {
	mu     sync.Mutex
	next   int64
	seeded bool
}

// Coordinator routes the v1 surface across partition nodes. nodes[p] owns
// partition p of len(nodes). It is a store.Backend: whatever reads a store
// through that interface (dashboards, replay, the diagnosis engine) reads a
// cluster unchanged.
type Coordinator struct {
	nodes    []Node
	breakers []*resilience.Breaker
	reg      *telemetry.Registry

	mu      sync.Mutex
	indices map[string]*clusterIndex

	fanouts   *telemetry.Counter
	routed    *telemetry.Counter
	bulkFails *telemetry.Counter
	seeds     *telemetry.Counter
	nodeCalls []*telemetry.Counter
	nodeErrs  []*telemetry.Counter
}

var _ store.Served[ClusterStats, ClusterHealth] = (*Coordinator)(nil)

// New builds a coordinator over the given partition nodes (nodes[p] owns
// partition p). At least one node is required; a 1-node coordinator is a
// transparent proxy whose row ids coincide with the node's own.
func New(cfg Config, nodes ...Node) (*Coordinator, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal(0)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	co := &Coordinator{
		nodes:   nodes,
		reg:     cfg.Registry,
		indices: make(map[string]*clusterIndex),
		fanouts: cfg.Registry.Counter("dio_cluster_fanouts_total",
			"Scatter fan-outs issued across partition nodes."),
		routed: cfg.Registry.Counter("dio_cluster_routed_rows_total",
			"Rows striped to their owner partitions by bulk routing."),
		bulkFails: cfg.Registry.Counter("dio_cluster_bulk_partial_failures_total",
			"Striped bulks that failed on at least one partition (row counter reseeds afterwards)."),
		seeds: cfg.Registry.Counter("dio_cluster_counter_seeds_total",
			"Row-counter seedings from the partitions' Rows sums (first write and after partial failures)."),
	}
	for p := range nodes {
		co.breakers = append(co.breakers,
			resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock))
		co.nodeCalls = append(co.nodeCalls, cfg.Registry.Counter(
			fmt.Sprintf("dio_cluster_node%d_calls_total", p),
			fmt.Sprintf("Requests routed to partition %d (%s).", p, nodes[p].Target())))
		co.nodeErrs = append(co.nodeErrs, cfg.Registry.Counter(
			fmt.Sprintf("dio_cluster_node%d_errors_total", p),
			fmt.Sprintf("Failed or breaker-rejected requests for partition %d (%s).", p, nodes[p].Target())))
		br := co.breakers[p]
		cfg.Registry.GaugeFunc(fmt.Sprintf("dio_cluster_node%d_breaker_open", p),
			fmt.Sprintf("1 when partition %d's circuit is open.", p),
			func() float64 {
				if br.State() == resilience.BreakerOpen {
					return 1
				}
				return 0
			})
	}
	return co, nil
}

// Partitions returns the partition count (the node count).
func (co *Coordinator) Partitions() int { return len(co.nodes) }

// Telemetry exposes the coordinator's registry for GET /metrics.
func (co *Coordinator) Telemetry() *telemetry.Registry { return co.reg }

// BreakerState reports partition p's circuit position (health reports).
func (co *Coordinator) BreakerState(p int) resilience.BreakerState {
	return co.breakers[p].State()
}

// call runs op against partition p under its circuit breaker, which reads
// resilience.TargetFault, tagging errors with the partition and target so a
// scatter failure names its node.
func (co *Coordinator) call(ctx context.Context, p int, op func(Node) error) error {
	br := co.breakers[p]
	if !br.Allow() {
		co.nodeErrs[p].Inc()
		return &partitionError{p, co.nodes[p].Target(), ErrNodeUnavailable}
	}
	co.nodeCalls[p].Inc()
	err := op(co.nodes[p])
	if resilience.TargetFault(ctx, err) {
		br.RecordFailure()
		co.nodeErrs[p].Inc()
	} else {
		br.RecordSuccess()
	}
	if err != nil && !errors.Is(err, ErrIndexNotFound) {
		return &partitionError{p, co.nodes[p].Target(), err}
	}
	return err
}

// fanOut runs op on every partition in parallel, each call through call (the
// partition's breaker), and returns the per-partition errors, indexed by
// partition. It is the coordinator's one partition fan-out: every read and
// admin operation goes through it, and only a striped bulk, which skips the
// partitions it sends no rows to, keeps its own loop.
func (co *Coordinator) fanOut(ctx context.Context, op func(p int, n Node) error) []error {
	errs := make([]error, len(co.nodes))
	var wg sync.WaitGroup
	for p := range co.nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = co.call(ctx, p, func(n Node) error { return op(p, n) })
		}(p)
	}
	wg.Wait()
	return errs
}

// missingRule applies the missing-partition rule to a fan-out's errors: a
// partition that answered ErrIndexNotFound owns no rows of the index yet and
// counts as empty; any other failure fails the operation, the lowest
// partition's first; and the index does not exist only when every partition
// is missing it, which the coordinator says in the node's own words.
func missingRule(index string, errs []error) error {
	missing := 0
	for _, err := range errs {
		if errors.Is(err, ErrIndexNotFound) {
			missing++
		} else if err != nil {
			return err
		}
	}
	if missing == len(errs) {
		return fmt.Errorf("%w: %q", ErrIndexNotFound, index)
	}
	return nil
}

// index returns (creating if needed) the per-index routing state.
func (co *Coordinator) index(name string) *clusterIndex {
	co.mu.Lock()
	defer co.mu.Unlock()
	ci := co.indices[name]
	if ci == nil {
		ci = &clusterIndex{}
		co.indices[name] = ci
	}
	return ci
}

// seedLocked derives the next cluster-global row id from the partitions'
// Rows counters (rows ever placed, unshrunk by retention — restored by WAL
// replay and follower bootstrap, so the figure survives node restarts and
// failovers), which Stats sums. Caller holds ci.mu. A partition without the
// index contributes zero; any other per-node failure aborts the write that
// needed the seed.
func (co *Coordinator) seedLocked(ctx context.Context, name string, ci *clusterIndex) error {
	if ci.seeded {
		return nil
	}
	st, err := co.Stats(ctx, name)
	if err != nil && !errors.Is(err, ErrIndexNotFound) {
		return fmt.Errorf("cluster: seed row counter for %q: %w", name, err)
	}
	ci.next = st.Rows
	ci.seeded = true
	co.seeds.Inc()
	return nil
}

// stripedBulk is the shared write path: it serializes on the index's row
// counter, seeds it if needed, asks build for the per-partition posts given
// the reserved base row id, runs them in parallel, and on success advances
// the counter by nrows. Any per-node failure fails the whole bulk (the
// client retries or reports; the coordinator never acks a partial write) and
// drops the seed so the next write re-derives the counter from node state.
func (co *Coordinator) stripedBulk(ctx context.Context, index string, nrows int,
	build func(base int64) []func(Node) error) error {
	ci := co.index(index)
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if err := co.seedLocked(ctx, index, ci); err != nil {
		return err
	}
	ops := build(ci.next)
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for p := range ops {
		if ops[p] == nil {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = co.call(ctx, p, ops[p])
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ci.seeded = false
			co.bulkFails.Inc()
			return fmt.Errorf("cluster: bulk on %q failed (row counter will reseed): %w", index, err)
		}
	}
	ci.next += int64(nrows)
	co.routed.Add(uint64(nrows))
	return nil
}

// BulkEvents stripes events across partitions: event i of a bulk starting at
// global row base goes to partition (base+i) mod P. Each partition's share
// travels the binary frame on the wire.
func (co *Coordinator) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	return co.stripedBulk(ctx, index, len(events), func(base int64) []func(Node) error {
		P := len(co.nodes)
		if P == 1 {
			return []func(Node) error{func(n Node) error { return n.BulkEvents(ctx, index, events) }}
		}
		per := make([][]event.Event, P)
		for i := range events {
			p := int((base + int64(i)) % int64(P))
			per[p] = append(per[p], events[i])
		}
		ops := make([]func(Node) error, P)
		for p := range per {
			if batch := per[p]; len(batch) > 0 {
				ops[p] = func(n Node) error { return n.BulkEvents(ctx, index, batch) }
			}
		}
		return ops
	})
}

// BulkFrame ingests an already-encoded binary event frame. On a 1-partition
// cluster the frame bytes are forwarded verbatim — no decode/re-encode on
// the hot path beyond the count the row counter needs. With P > 1 the frame
// must be split at event granularity, so the coordinator decodes once and
// re-encodes each partition's share (still binary on the wire); that
// per-hop re-encode is the stated cost of striping below frame granularity
// (DESIGN.md §16). Returns the number of events ingested. A frame that does
// not decode is refused as a node refuses it, before anything is striped.
func (co *Coordinator) BulkFrame(ctx context.Context, index string, frame []byte) (int, error) {
	events, err := event.DecodeBatch(frame, nil)
	if err != nil {
		return 0, store.BadRequest(fmt.Errorf("decode frame: %w", err))
	}
	if len(events) == 0 {
		return 0, nil
	}
	if len(co.nodes) == 1 {
		err := co.stripedBulk(ctx, index, len(events), func(int64) []func(Node) error {
			return []func(Node) error{func(n Node) error { return n.BulkFrame(ctx, index, frame) }}
		})
		return len(events), err
	}
	return len(events), co.BulkEvents(ctx, index, events)
}

// SearchEvents scatters the request to every partition and gathers the
// responses through the shared merge layer. A partition that has never seen
// the index contributes an empty response; any other per-node failure fails
// the search — the coordinator never returns partial data for a partial
// scatter.
func (co *Coordinator) SearchEvents(ctx context.Context, index string, req store.SearchRequest) (store.EventsResult, error) {
	P := len(co.nodes)
	co.fanouts.Inc()
	resps := make([]store.ScatterResponse, P)
	errs := co.fanOut(ctx, func(p int, n Node) (err error) {
		resps[p], err = n.Scatter(ctx, index, store.ScatterRequest{Req: req, Partition: p, Partitions: P})
		return err
	})
	if err := missingRule(index, errs); err != nil {
		return store.EventsResult{}, err
	}
	return store.MergeScatters(req, resps), nil
}

// Count sends the count to every partition and sums the partition totals. It
// stays a count on each node, not a scatter: a node counts a match-all from
// its segment list without decoding a segment.
func (co *Coordinator) Count(ctx context.Context, index string, q store.Query) (int, error) {
	co.fanouts.Inc()
	counts := make([]int, len(co.nodes))
	errs := co.fanOut(ctx, func(p int, n Node) (err error) {
		counts[p], err = n.Count(ctx, index, q)
		return err
	})
	if err := missingRule(index, errs); err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Correlate runs the correlation pass across the cluster in the node's two
// steps: HarvestPaths over the coordinator's own merged search builds the one
// record, which sees every anchor whatever partition holds it; then every
// partition names its rows with that record (Node.NamePaths), fixing its own
// horizon and journaling the record if a row changed. A partition without
// the index counts as empty. Any other failure fails the pass and names the
// partition, while the partitions that answered keep their naming; the pass
// is idempotent, so a rerun completes it.
func (co *Coordinator) Correlate(ctx context.Context, index, session string) (store.CorrelationResult, error) {
	rec, err := store.HarvestPaths(ctx, co, index, session)
	if err != nil {
		return store.CorrelationResult{}, err
	}
	named := make([]store.CorrelationResult, len(co.nodes))
	errs := co.fanOut(ctx, func(p int, n Node) (err error) {
		named[p], err = n.NamePaths(ctx, index, rec)
		return err
	})
	if err := missingRule(index, errs); err != nil {
		return store.CorrelationResult{}, err
	}
	res := store.CorrelationResult{TagsResolved: len(rec.Pairs)}
	for _, r := range named {
		res.EventsUpdated += r.EventsUpdated
		res.EventsUnresolved += r.EventsUnresolved
		res.EventsAlreadyResolved += r.EventsAlreadyResolved
	}
	res.EventsWithTag = res.EventsUpdated + res.EventsUnresolved + res.EventsAlreadyResolved
	return res, nil
}

// PartitionStats is one partition's slice of an index in the cluster _stats
// report.
type PartitionStats struct {
	Partition int    `json:"partition"`
	Target    string `json:"target"`
	Docs      int    `json:"docs"`
	Rows      int64  `json:"rows"`
	Shards    int    `json:"shards"`
}

// ClusterStats aggregates an index's stats across the coordinator: cluster
// totals plus the per-partition breakdown.
type ClusterStats struct {
	Index      string           `json:"index"`
	Docs       int              `json:"docs"`
	Rows       int64            `json:"rows"`
	Partitions []PartitionStats `json:"partitions"`
}

// Stats fans _stats to every partition and aggregates: Docs and Rows are
// summed; partitions that have never seen the index report zeros (their
// entry stays, showing the layout). All partitions missing means the index
// does not exist.
func (co *Coordinator) Stats(ctx context.Context, index string) (ClusterStats, error) {
	stats := make([]store.IndexStats, len(co.nodes))
	errs := co.fanOut(ctx, func(p int, n Node) (err error) {
		stats[p], err = n.Stats(ctx, index)
		return err
	})
	if err := missingRule(index, errs); err != nil {
		return ClusterStats{}, err
	}
	out := ClusterStats{Index: index, Partitions: make([]PartitionStats, len(co.nodes))}
	for p, st := range stats {
		out.Partitions[p] = PartitionStats{Partition: p, Target: co.nodes[p].Target(),
			Docs: st.Docs, Rows: st.Rows, Shards: st.Shards}
		out.Docs += st.Docs
		out.Rows += st.Rows
	}
	return out, nil
}

// ListIndices returns the sorted union of every partition's index names.
func (co *Coordinator) ListIndices(ctx context.Context) ([]string, error) {
	lists := make([][]string, len(co.nodes))
	errs := co.fanOut(ctx, func(p int, n Node) (err error) {
		lists[p], err = n.ListIndices(ctx)
		return err
	})
	seen := make(map[string]bool)
	for p, names := range lists {
		if errs[p] != nil {
			return nil, errs[p]
		}
		for _, name := range names {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// DeleteIndex drops the index on every partition and forgets the row
// counter, so a re-created index seeds from zero. Deleting an index no
// partition holds succeeds.
func (co *Coordinator) DeleteIndex(ctx context.Context, index string) error {
	errs := co.fanOut(ctx, func(_ int, n Node) error { return n.DeleteIndex(ctx, index) })
	if err := missingRule(index, errs); err != nil && !errors.Is(err, ErrIndexNotFound) {
		return err
	}
	co.mu.Lock()
	delete(co.indices, index)
	co.mu.Unlock()
	return nil
}

// NodeHealth is one partition's liveness in the cluster health report.
type NodeHealth struct {
	Partition int    `json:"partition"`
	Target    string `json:"target"`
	// Status is the node's own report ("ok"), or "unreachable".
	Status string `json:"status"`
	Role   string `json:"role,omitempty"`
	// Breaker is the partition circuit's position: closed, open, half-open.
	Breaker string `json:"breaker"`
	// ReplLag sums the node's replication lag across its followers.
	ReplLag int64  `json:"repl_lag,omitempty"`
	Error   string `json:"error,omitempty"`
}

// ClusterHealth is the coordinator's /_health body: overall status plus one
// entry per partition.
type ClusterHealth struct {
	// Status is "ok" when every partition answered healthily, else
	// "degraded" (reads and writes touching the dead partition will fail;
	// the rest of the surface keeps working).
	Status     string       `json:"status"`
	Partitions int          `json:"partitions"`
	Nodes      []NodeHealth `json:"nodes"`
}

// Health probes every partition and reports per-node status, role, breaker
// position, and replication lag.
func (co *Coordinator) Health(ctx context.Context) ClusterHealth {
	P := len(co.nodes)
	hs := make([]store.HealthStatus, P)
	errs := co.fanOut(ctx, func(p int, n Node) (err error) {
		hs[p], err = n.HealthStatus(ctx)
		return err
	})
	out := ClusterHealth{Status: "ok", Partitions: P, Nodes: make([]NodeHealth, P)}
	for p, h := range hs {
		nh := NodeHealth{Partition: p, Target: co.nodes[p].Target(), Breaker: co.breakers[p].State().String()}
		if err := errs[p]; err != nil {
			nh.Status, nh.Error = "unreachable", err.Error()
		} else {
			nh.Status, nh.Role = h.Status, h.Role
			for _, r := range h.Replication {
				nh.ReplLag += r.Lag
			}
		}
		if nh.Status != "ok" {
			out.Status = "degraded"
		}
		out.Nodes[p] = nh
	}
	return out
}
