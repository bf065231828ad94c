package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// The scatter API: the per-partition half of cluster search (DESIGN.md §16).
// A coordinator that stripes an index's rows across N nodes cannot use the
// plain _search response — it needs each node's top candidates BEFORE the
// pagination window is applied, the aggregation partials BEFORE they are
// finalized, and sort keys it can compare without re-materializing rows.
// POST /{index}/_scatter returns exactly that: the node runs the ordinary
// shard fan-out pipeline but stops one step earlier, shipping mergeable
// intermediates instead of a finished response. The coordinator then reduces
// the per-node responses with the same merge-layer functions (merge.go) the
// node itself used one level down.

// errBadScatter rejects malformed scatter envelopes; the HTTP layer maps it
// to 400 like any other client error.
var errBadScatter = errors.New("store: invalid scatter request: partition out of range")

// IsBadRequest reports whether err is a malformed-request error (bad
// search_after cursor, bad scatter envelope) that an HTTP layer should map to
// 400. The cluster coordinator uses it so a scattered request fails with the
// same status a direct one would.
func IsBadRequest(err error) bool {
	return errors.Is(err, errBadSearchAfter) || errors.Is(err, errBadScatter)
}

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

// ScatterHit is one merge candidate: the node-local row id (the coordinator
// maps it back to the cluster-global id gid*Partitions+Partition), the
// cursor-rendered sort-key values (one per requested sort field, comparable
// with cmpField and embeddable verbatim in a next_after token), and the hit
// document pre-marshaled by the owning node. Shipping marshaled bytes is
// what keeps a cluster response byte-identical to a single node's: the
// coordinator never decodes and re-encodes a document, so no float64
// round-trip can corrupt int64-magnitude values.
type ScatterHit struct {
	Gid  int             `json:"gid"`
	Sort []any           `json:"sort,omitempty"`
	Doc  json.RawMessage `json:"doc"`
}

// ScatterResponse is one node's mergeable contribution: its full match
// count, its first need=From+Size candidates in request order (all of them
// for an unbounded request), and its combined-but-not-finalized aggregation
// partials — count maps and nested partials per bucket, never rows, so the
// aggregation half of the body is O(buckets) whatever the match count.
type ScatterResponse struct {
	Total    int                   `json:"total"`
	Hits     []ScatterHit          `json:"hits"`
	Partials map[string]AggPartial `json:"partials,omitempty"`
}

// Scatter runs one partition's share of a cluster search against the named
// index. It accounts like a search (latency histogram, searches counter) but
// bypasses the node's query cache: the coordinator caches at the level where
// responses are complete.
func (s *Store) Scatter(ctx context.Context, index string, sreq ScatterRequest) (ScatterResponse, error) {
	ix, ok := s.GetIndex(index)
	if !ok {
		return ScatterResponse{}, fmt.Errorf("index %q not found", index)
	}
	var (
		resp ScatterResponse
		err  error
	)
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
// validation), and render refs and combined partials for the wire while the
// shard locks are still held.
func (ix *Index) scatterCtx(ctx context.Context, sreq ScatterRequest) (ScatterResponse, error) {
	if sreq.Partitions < 1 || sreq.Partition < 0 || sreq.Partition >= sreq.Partitions {
		return ScatterResponse{}, errBadScatter
	}
	req := sreq.Req
	// Validate the original request's cursor shape here (From alongside a
	// cursor, arity, gid bounds) so a scattered request fails exactly like a
	// single-node one; the rewritten request below always has From == 0 and
	// would mask the From/cursor conflict.
	if _, err := parseSearchAfter(req); err != nil {
		return ScatterResponse{}, err
	}
	// The coordinator applies the From/Size window after merging across
	// nodes; this node must contribute its first From+Size candidates.
	need := 0
	if req.Size > 0 {
		need = req.From + req.Size
	}
	nreq := req
	nreq.From = 0
	nreq.Size = need
	view := &partitionView{partition: sreq.Partition, partitions: sreq.Partitions}
	var (
		resp       ScatterResponse
		marshalErr error
	)
	err := ix.searchShards(ctx, nreq, view, func(refs []hitRef, total int, parts map[string]*AggPartial) {
		resp.Total = total
		resp.Hits = make([]ScatterHit, len(refs))
		for i, ref := range refs {
			b, err := json.Marshal(ref.sh.docView(ref.id))
			if err != nil {
				marshalErr = err
				return
			}
			hit := ScatterHit{Gid: ref.gid, Doc: b}
			if len(req.Sort) > 0 {
				hit.Sort = make([]any, len(req.Sort))
				for j, sf := range req.Sort {
					hit.Sort[j] = cursorVal(ref.sh.val(ref.id, sf.Field))
				}
			}
			resp.Hits[i] = hit
		}
		if len(parts) > 0 {
			resp.Partials = make(map[string]AggPartial, len(parts))
			for name, p := range parts {
				resp.Partials[name] = *p
			}
		}
	})
	if err != nil {
		return ScatterResponse{}, err
	}
	if marshalErr != nil {
		return ScatterResponse{}, fmt.Errorf("scatter: marshal hit: %w", marshalErr)
	}
	return resp, nil
}

// GatherResponse is the coordinator's merged search result. It is the wire
// twin of SearchResponse — same fields, same order, same omission rules — with
// hits carried as the raw bytes the owning nodes marshaled, so encoding it
// yields output byte-identical to a single node answering the same request
// over the same rows.
type GatherResponse struct {
	Total     int                  `json:"total"`
	Hits      []json.RawMessage    `json:"hits"`
	Aggs      map[string]AggResult `json:"aggs,omitempty"`
	NextAfter []any                `json:"next_after,omitempty"`
}

// gatherHit is one node's candidate lifted back into cluster-global
// coordinates for the top-level merge.
type gatherHit struct {
	sort []any
	g    int
	doc  json.RawMessage
}

// MergeScatters reduces per-partition scatter responses into a finished
// search response: the cluster-level half of the two-level fan-out, running
// the SAME merge-layer reductions (kwayMerge under the request's sort order
// with the gid tie-break, combine-then-finalize aggregation partials) the
// intra-node shard merge runs one level down. resps must be indexed by
// partition — resps[p] is the response from the node owning partition p of
// len(resps) — because the back-map from node-local row l on partition p to
// the cluster-global id is l*P + p. Each node's hit list arrives sorted in
// request order and windowed to the candidate budget, so the merge is
// streaming and the From/Size window is applied once, here.
func MergeScatters(req SearchRequest, resps []ScatterResponse) GatherResponse {
	P := len(resps)
	lists := make([][]gatherHit, P)
	total := 0
	for p := range resps {
		total += resps[p].Total
		hs := make([]gatherHit, len(resps[p].Hits))
		for i, h := range resps[p].Hits {
			hs[i] = gatherHit{sort: h.Sort, g: h.Gid*P + p, doc: h.Doc}
		}
		lists[p] = hs
	}
	// The node rendered sort keys through cursorVal, the same rendering
	// search_after tokens use, so cmpField over them reproduces the node-side
	// hitLess order exactly (the compatibility cursors already rely on).
	less := func(a, b gatherHit) bool {
		for i, s := range req.Sort {
			if r := cmpField(a.sort[i], b.sort[i], s.Desc); r != 0 {
				return r < 0
			}
		}
		return a.g < b.g
	}
	need := 0
	if req.Size > 0 {
		need = req.From + req.Size
	}
	merged := kwayMerge(lists, less, need)
	if req.From > 0 {
		if req.From >= len(merged) {
			merged = nil
		} else {
			merged = merged[req.From:]
		}
	}
	if req.Size > 0 && len(merged) > req.Size {
		merged = merged[:req.Size]
	}
	out := GatherResponse{Total: total, Hits: make([]json.RawMessage, len(merged))}
	for i := range merged {
		out.Hits[i] = merged[i].doc
	}
	if len(req.Aggs) > 0 {
		out.Aggs = make(map[string]AggResult, len(req.Aggs))
		for name, a := range req.Aggs {
			parts := make([]AggPartial, 0, P)
			for p := range resps {
				if ap, ok := resps[p].Partials[name]; ok {
					parts = append(parts, ap)
				}
			}
			out.Aggs[name] = MergeAggPartials(a, parts)
		}
	}
	// Same continuation rule as the single-node response: a token exactly when
	// the request was bounded and this page filled it, rendered as the last
	// hit's sort keys plus its (cluster-global) id.
	if req.Size > 0 && len(merged) == req.Size {
		last := merged[len(merged)-1]
		na := make([]any, 0, len(req.Sort)+1)
		na = append(na, last.sort...)
		out.NextAfter = append(na, float64(last.g))
	}
	return out
}
