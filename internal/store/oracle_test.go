package store

import "sort"

// The differential tests' reference engine. It shares nothing with the
// sharded pipeline beyond the row storage and the leaf comparators: every
// hot row is materialized in global-id order, filtered one document at a
// time, stable-sorted whole, aggregated serially, and windowed by copying.
// No posting list, numeric column cache, per-shard pre-sort, top-k heap,
// rollup, or merge is consulted, so agreement with Index.Search is evidence
// about all of them.

// oracleRows returns every hot row of ix as a document, in global-id order,
// with the global id of the first. Placement is round-robin, so the m-th
// row past the base lives in shard m%S at local position m/S.
func oracleRows(ix *Index) (rows []Document, base int) {
	for _, sh := range ix.shards {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	n, S := 0, len(ix.shards)
	for _, sh := range ix.shards {
		n += len(sh.events)
	}
	rows = make([]Document, n)
	for m := range rows {
		rows[m] = ix.shards[m%S].docView(int32(m / S))
	}
	return rows, int(ix.base.Load())
}

// oracleCount counts the hot rows matching q.
func oracleCount(ix *Index, q Query) int {
	rows, _ := oracleRows(ix)
	n := 0
	for _, d := range rows {
		if q.Matches(d) {
			n++
		}
	}
	return n
}

// oracleSearch answers req by brute force. A search_after cursor is honoured
// by skipping the prefix of the fully sorted match list that does not sort
// strictly after it (sort keys first, global id as the tie-break); the
// cursor is assumed well-formed.
func oracleSearch(ix *Index, req SearchRequest) SearchResponse {
	rows, base := oracleRows(ix)
	var matched []Document
	var gids []int
	for m, d := range rows {
		if req.Query.Matches(d) {
			matched = append(matched, d)
			gids = append(gids, base+m)
		}
	}
	// Sort a permutation so each document keeps its gid; stability makes
	// ties fall in gid order.
	ord := make([]int, len(matched))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(i, j int) bool {
		for _, s := range req.Sort {
			if r := cmpField(matched[ord[i]][s.Field], matched[ord[j]][s.Field], s.Desc); r != 0 {
				return r < 0
			}
		}
		return false
	})

	resp := SearchResponse{Total: len(matched)}
	if len(req.Aggs) > 0 {
		resp.Aggs = make(map[string]AggResult, len(req.Aggs))
		for name, a := range req.Aggs {
			resp.Aggs[name] = a.apply(matched)
		}
	}

	if len(req.SearchAfter) > 0 {
		vals := req.SearchAfter[:len(req.Sort)]
		after, _ := numeric(req.SearchAfter[len(req.Sort)])
		past := func(i int) bool {
			for k, s := range req.Sort {
				if r := cmpField(matched[i][s.Field], vals[k], s.Desc); r != 0 {
					return r > 0
				}
			}
			return gids[i] > int(after)
		}
		for len(ord) > 0 && !past(ord[0]) {
			ord = ord[1:]
		}
	}
	if req.From >= len(ord) {
		ord = nil
	} else {
		ord = ord[req.From:]
	}
	if req.Size > 0 && len(ord) > req.Size {
		ord = ord[:req.Size]
	}
	resp.Hits = make([]Document, len(ord))
	for i, oi := range ord {
		resp.Hits[i] = matched[oi]
	}
	if req.Size > 0 && len(ord) == req.Size {
		last := ord[len(ord)-1]
		for _, s := range req.Sort {
			resp.NextAfter = append(resp.NextAfter, cursorVal(matched[last][s.Field]))
		}
		resp.NextAfter = append(resp.NextAfter, float64(gids[last]))
	}
	return resp
}
