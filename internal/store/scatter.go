package store

import (
	"context"
	"errors"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// The scatter API: the per-partition half of cluster search (DESIGN.md §16).
// A coordinator that stripes an index's rows across N nodes cannot use the
// plain _search response — it needs each node's top candidates BEFORE the
// pagination window is applied, with the row ids that break ties, and the
// aggregation partials BEFORE they are finalized.
// POST /{index}/_scatter returns exactly that: the node runs the ordinary
// shard fan-out pipeline but stops one step earlier, shipping mergeable
// intermediates instead of a finished response. The coordinator then reduces
// the per-node responses with the same merge-layer functions (merge.go) the
// node itself used one level down.

// errBadScatter rejects malformed scatter envelopes: a 400 like any other
// client error.
var errBadScatter = BadRequest(errors.New("store: invalid scatter request: partition out of range"))

// ScatterRequest wraps one search with the node's place in the partition
// layout. Req is the client's ORIGINAL request — global pagination window,
// cluster-global cursor — so the node validates it exactly as a single-node
// store would; the node then derives its local execution plan (candidate
// budget From+Size, cursor translated into local row coordinates) itself.
type ScatterRequest struct {
	Req SearchRequest `json:"req"`
	// Partition / Partitions place this node in the cluster's row striping:
	// the node holds every cluster-global row g with g % Partitions ==
	// Partition, at local row id g / Partitions.
	Partition  int `json:"partition"`
	Partitions int `json:"partitions"`
}

// ScatterResponse is one node's mergeable contribution: its full match
// count, its first need=From+Size candidates in request order (all of them
// for an unbounded request) as events beside their node-local row ids, and
// its combined-but-not-finalized aggregation partials — count maps and nested
// partials per bucket, never rows, so the aggregation half of the body is
// O(buckets) whatever the match count. No sort keys travel: the coordinator
// reads them off the events with the accessors the node sorted by.
type ScatterResponse struct {
	Total int
	// Gids[i] is the node-local row id of Hits[i]; the coordinator maps it
	// back to the cluster-global id Gids[i]*Partitions+Partition.
	Gids     []int
	Hits     []event.Event
	Partials map[string]AggPartial
}

// Scatter runs one partition's share of a cluster search against the named
// index. It accounts like a search (latency histogram, searches counter) but
// bypasses the node's query cache: the coordinator caches at the level where
// responses are complete.
func (s *Store) Scatter(ctx context.Context, index string, sreq ScatterRequest) (ScatterResponse, error) {
	ix, err := s.lookup(index)
	if err != nil {
		return ScatterResponse{}, err
	}
	var resp ScatterResponse
	observeNS(s.tm.searchNS, func() {
		resp, err = ix.scatterCtx(ctx, sreq)
	})
	if err != nil {
		return ScatterResponse{}, err
	}
	s.tm.searches.Inc()
	return resp, nil
}

// scatterCtx executes the node-local plan: validate the original request,
// widen the window to the per-node candidate budget, run the shard fan-out
// with the partition view (cluster-global cursor translated after
// validation), and copy out hits and combined partials while the shard locks
// are still held.
func (ix *Index) scatterCtx(ctx context.Context, sreq ScatterRequest) (ScatterResponse, error) {
	if sreq.Partitions < 1 || sreq.Partition < 0 || sreq.Partition >= sreq.Partitions {
		return ScatterResponse{}, errBadScatter
	}
	req := sreq.Req
	// Validate the original request's cursor shape here (From alongside a
	// cursor, arity, gid bounds) so a scattered request fails exactly like a
	// single-node one; the rewritten request below always has From == 0 and
	// would mask the From/cursor conflict.
	var cur searchCursor
	if _, err := cur.parse(req); err != nil {
		return ScatterResponse{}, err
	}
	// The coordinator applies the From/Size window after merging across
	// nodes; this node must contribute its first From+Size candidates.
	if req.Size > 0 {
		req.Size += req.From
	}
	req.From = 0
	view := &partitionView{partition: sreq.Partition, partitions: sreq.Partitions}
	var resp ScatterResponse
	err := ix.searchShards(ctx, &searchExec{req: req}, view, func(refs []hitRef, total int, parts map[string]*AggPartial) {
		resp = ScatterResponse{Total: total, Gids: make([]int, len(refs)), Hits: make([]event.Event, len(refs))}
		for i := range refs {
			resp.Gids[i] = refs[i].gid
			refs[i].sh.row(refs[i].id).Event(&resp.Hits[i])
		}
		if len(parts) > 0 {
			resp.Partials = make(map[string]AggPartial, len(parts))
			for name, p := range parts {
				resp.Partials[name] = *p
			}
		}
	})
	return resp, err
}

// MergeScatters reduces per-partition scatter responses into a finished
// search result: the cluster-level half of the two-level fan-out, running
// the SAME merge-layer reductions (mergePage under the request's sort order
// with the gid tie-break, combine-then-finalize aggregation partials,
// eventsResult for the window's copy-out and continuation token) the
// intra-node shard merge runs one level down — which is why a cluster answer
// equals a single node's by construction. resps must be indexed by partition
// — resps[p] is the response from the node owning partition p of len(resps)
// — because the back-map from node-local row l on partition p to the
// cluster-global id is l*P + p. Each node's hit list arrives sorted in
// request order and windowed to the candidate budget, and is packed into a
// shard of its own, so the merge reads one row form at both levels; it is
// streaming and the From/Size window is applied once, here.
func MergeScatters(req SearchRequest, resps []ScatterResponse) EventsResult {
	P, sorts := len(resps), resolveSorts(req.Sort)
	srcs := make([]hitSource, P)
	total := 0
	for p := range resps {
		total += resps[p].Total
		refs, sh := make([]hitRef, len(resps[p].Hits)), newShard()
		for i := range refs {
			refs[i] = newRef(sh, sh.addEventLocked(&resps[p].Hits[i]), resps[p].Gids[i]*P+p, sorts)
		}
		srcs[p].refs = refs
	}
	var aggs map[string]AggResult
	if len(req.Aggs) > 0 {
		aggs = make(map[string]AggResult, len(req.Aggs))
		for name, a := range req.Aggs {
			parts := make([]AggPartial, 0, P)
			for p := range resps {
				if ap, ok := resps[p].Partials[name]; ok {
					parts = append(parts, ap)
				}
			}
			aggs[name] = MergeAggPartials(a, parts)
		}
	}
	var m pageMerge
	return eventsResult(req, sorts, m.mergePage(srcs, sorts, req.From, req.Size), total, aggs)
}
