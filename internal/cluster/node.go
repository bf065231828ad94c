package cluster

import (
	"context"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// httpNode adapts a store.FailoverClient to the Node interface: each
// partition is a FailoverClient over its primary and followers, so the
// existing resilience ladder (probe, switch, retry once) runs per-partition
// underneath the coordinator's per-partition circuit breaker.
type httpNode struct {
	fc     *store.FailoverClient
	target string
}

// NewHTTPNode wraps a partition's failover client as a coordinator Node.
// target names the partition in health reports (typically the primary URL).
func NewHTTPNode(target string, fc *store.FailoverClient) Node {
	return &httpNode{fc: fc, target: target}
}

var _ Node = (*httpNode)(nil)

func (n *httpNode) Target() string { return n.target }

func (n *httpNode) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	return n.fc.BulkEvents(ctx, index, events)
}

func (n *httpNode) BulkFrame(ctx context.Context, index string, frame []byte) error {
	return n.fc.BulkFrame(ctx, index, frame)
}

func (n *httpNode) Scatter(ctx context.Context, index string, sreq store.ScatterRequest) (store.ScatterResponse, error) {
	return n.fc.Scatter(ctx, index, sreq)
}

func (n *httpNode) Count(ctx context.Context, index string, q store.Query) (int, error) {
	return n.fc.Count(ctx, index, q)
}

func (n *httpNode) Stats(ctx context.Context, index string) (store.IndexStats, error) {
	return n.fc.Stats(ctx, index)
}

func (n *httpNode) ListIndices(ctx context.Context) ([]string, error) {
	return n.fc.ListIndices(ctx)
}

func (n *httpNode) DeleteIndex(ctx context.Context, index string) error {
	return n.fc.DeleteIndex(ctx, index)
}

func (n *httpNode) Health(ctx context.Context) (store.HealthStatus, error) {
	return n.fc.HealthStatus(ctx)
}
