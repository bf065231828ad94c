package store

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// FailoverClient fans a Backend over a set of replicated nodes: it sends
// every request to the node it believes is primary and, when that node dies
// or demotes, re-probes the set, switches to whichever node now reports
// itself primary, and retries the request once. Search cursors survive the
// switch because search_after carries sort values, not node state — a cursor
// minted on the old primary resumes on the promoted follower as long as
// replication caught up to the rows already seen.
//
// The client discovers primaries; it never elects them. Promotion is the
// operator's (or diod's) move, so a full-cluster outage stays an error
// instead of a split brain.
type FailoverClient struct {
	nodes  []*Client
	active atomic.Int32
	// probeTimeout bounds each health probe during repick (default 2s).
	probeTimeout time.Duration
	// switches counts primary changes (observability, tests).
	switches atomic.Uint64
}

var _ Backend = (*FailoverClient)(nil)

// NewFailoverClient wraps the given nodes; the first is the presumed primary
// until a failure forces a re-probe. At least one node is required.
func NewFailoverClient(nodes ...*Client) (*FailoverClient, error) {
	if len(nodes) == 0 {
		return nil, errors.New("failover: at least one node required")
	}
	return &FailoverClient{nodes: nodes, probeTimeout: 2 * time.Second}, nil
}

// Target names the client by its first node's base URL, the partition's
// presumed primary.
func (f *FailoverClient) Target() string { return f.nodes[0].Base() }

// Active returns the node currently receiving traffic.
func (f *FailoverClient) Active() *Client { return f.nodes[f.active.Load()] }

// Switches reports how many times the client changed primaries.
func (f *FailoverClient) Switches() uint64 { return f.switches.Load() }

// failoverWorthy reports whether err suggests the active node is dead or no
// longer primary, rather than the request itself being bad. It reads the
// status table: a 5xx qualifies — a transport failure and a deadline the
// client set itself map to 500, so a hung primary does — and so do 403/409,
// which the server uses for role mismatches (writes to a read-only
// follower). Plain client errors — bad query, missing index — and any error
// once the caller's context is done are returned to the caller untouched.
func failoverWorthy(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	code := StatusOf(err)
	return code >= 500 || code == http.StatusForbidden || code == http.StatusConflict
}

// repick probes every node's health — the non-active ones first, since the
// active one just failed — and switches to the first that reports itself
// primary. Probes use fresh short-deadline contexts detached from the failed
// request's (possibly expired) context. Returns true if a primary was found.
func (f *FailoverClient) repick() bool {
	cur := f.active.Load()
	order := make([]int32, 0, len(f.nodes))
	for i := range f.nodes {
		if int32(i) != cur {
			order = append(order, int32(i))
		}
	}
	order = append(order, cur)
	for _, i := range order {
		ctx, cancel := context.WithTimeout(context.Background(), f.probeTimeout)
		h, err := f.nodes[i].HealthStatus(ctx)
		cancel()
		if err != nil || h.Role != RolePrimary.String() {
			continue
		}
		if i != cur {
			f.active.Store(i)
			f.switches.Add(1)
		}
		return true
	}
	return false
}

// do runs op against the active node, and on a failover-worthy error
// re-probes the set and retries once against the new primary.
func (f *FailoverClient) do(ctx context.Context, op func(*Client) error) error {
	err := op(f.Active())
	if !failoverWorthy(ctx, err) {
		return err
	}
	if !f.repick() {
		return fmt.Errorf("failover: no primary found after error: %w", err)
	}
	return op(f.Active())
}

// doValue is do for an op that answers with a value.
func doValue[T any](f *FailoverClient, ctx context.Context, op func(*Client) (T, error)) (T, error) {
	var out T
	err := f.do(ctx, func(c *Client) error {
		var e error
		out, e = op(c)
		return e
	})
	return out, err
}

// BulkEvents implements Backend.
func (f *FailoverClient) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	return f.do(ctx, func(c *Client) error { return c.BulkEvents(ctx, index, events) })
}

// SearchEvents implements Backend.
func (f *FailoverClient) SearchEvents(ctx context.Context, index string, req SearchRequest) (EventsResult, error) {
	return doValue(f, ctx, func(c *Client) (EventsResult, error) { return c.SearchEvents(ctx, index, req) })
}

// Count implements Backend.
func (f *FailoverClient) Count(ctx context.Context, index string, q Query) (int, error) {
	return doValue(f, ctx, func(c *Client) (int, error) { return c.Count(ctx, index, q) })
}

// Correlate implements Backend.
func (f *FailoverClient) Correlate(ctx context.Context, index, session string) (CorrelationResult, error) {
	return doValue(f, ctx, func(c *Client) (CorrelationResult, error) { return c.Correlate(ctx, index, session) })
}

// NamePaths names the active node's rows with rec.
func (f *FailoverClient) NamePaths(ctx context.Context, index string, rec event.PathsRecord) (CorrelationResult, error) {
	return doValue(f, ctx, func(c *Client) (CorrelationResult, error) { return c.NamePaths(ctx, index, rec) })
}

// BulkFrame forwards an already-encoded binary event frame.
func (f *FailoverClient) BulkFrame(ctx context.Context, index string, frame []byte) error {
	return f.do(ctx, func(c *Client) error { return c.BulkFrame(ctx, index, frame) })
}

// Scatter runs one partition's share of a cluster search. A scatter is a
// read, but it still rides the failover ladder: when the partition's primary
// dies mid-query the promoted follower answers the retry, and sorted
// search_after cursors survive the switch because they carry sort values,
// not node state.
func (f *FailoverClient) Scatter(ctx context.Context, index string, sreq ScatterRequest) (ScatterResponse, error) {
	return doValue(f, ctx, func(c *Client) (ScatterResponse, error) { return c.Scatter(ctx, index, sreq) })
}

// Stats fetches index stats from the active node.
func (f *FailoverClient) Stats(ctx context.Context, index string) (IndexStats, error) {
	return doValue(f, ctx, func(c *Client) (IndexStats, error) { return c.Stats(ctx, index) })
}

// ListIndices lists index names on the active node.
func (f *FailoverClient) ListIndices(ctx context.Context) ([]string, error) {
	return doValue(f, ctx, func(c *Client) ([]string, error) { return c.ListIndices(ctx) })
}

// DeleteIndex drops the named index on the active node.
func (f *FailoverClient) DeleteIndex(ctx context.Context, index string) error {
	return f.do(ctx, func(c *Client) error { return c.DeleteIndex(ctx, index) })
}

// HealthStatus fetches the active node's full health report, failing over to
// a promoted node first if the active one is gone.
func (f *FailoverClient) HealthStatus(ctx context.Context) (HealthStatus, error) {
	return doValue(f, ctx, func(c *Client) (HealthStatus, error) { return c.HealthStatus(ctx) })
}
