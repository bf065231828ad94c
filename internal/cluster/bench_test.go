package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// BenchmarkCoordinatorFanout measures the scatter-gather read path at 1, 2,
// and 4 partitions, against the central-gather ablation: a naive coordinator
// that makes every node ship ALL matching hits (marshaled docs and sort keys
// included) and applies the top-k window centrally. The production scatter
// prunes per node — each partition contributes at most From+Size candidates
// — so the gap between the two is the win the per-node candidate budget buys
// (the cluster-level analogue of the shard-level top-k heap in PR 1).
//
// On a single-core host the partitions' scatters serialize, so nodes=4 vs
// nodes=1 measures coordination overhead, not parallel speedup; the
// pruned-vs-central ratio is the committed acceptance number.
func BenchmarkCoordinatorFanout(b *testing.B) {
	const rows = 30_000
	req := store.SearchRequest{
		Query: store.Term(store.FieldSyscall, "write"),
		Size:  50,
		Sort:  []store.SortField{{Field: store.FieldTimeEnter, Desc: true}},
	}
	for _, n := range []int{1, 2, 4} {
		co, mems := benchCluster(b, n, rows)
		b.Run(fmt.Sprintf("scatter-pruned/nodes=%d", n), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := documents(ctx, co, testIndex, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Hits) != req.Size {
					b.Fatalf("got %d hits, want %d", len(resp.Hits), req.Size)
				}
			}
		})
		b.Run(fmt.Sprintf("central-gather/nodes=%d", n), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := centralGather(ctx, mems, testIndex, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Hits) != req.Size {
					b.Fatalf("got %d hits, want %d", len(resp.Hits), req.Size)
				}
			}
		})
	}
}

func benchCluster(b *testing.B, nodes, rows int) (*Coordinator, []*memNode) {
	b.Helper()
	mems := make([]*memNode, nodes)
	ns := make([]Node, nodes)
	for i := range mems {
		mems[i] = newMemNode(b, fmt.Sprintf("mem-%d", i))
		ns[i] = mems[i]
	}
	co, err := New(Config{Clock: clock.NewVirtual(0)}, ns...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const batch = 1000
	for off := 0; off < rows; off += batch {
		if err := co.BulkEvents(ctx, testIndex, clusterEvents(off/batch, batch)); err != nil {
			b.Fatal(err)
		}
	}
	return co, mems
}

// centralGather is the ablation coordinator: the same scatter RPC, but with
// the candidate budget removed (Size=0 makes each node ship its entire match
// set), the window applied only at the top. Identical results, no per-node
// pruning.
func centralGather(ctx context.Context, mems []*memNode, index string, req store.SearchRequest) (store.EventsResult, error) {
	naive := req
	naive.From, naive.Size = 0, 0
	P := len(mems)
	resps := make([]store.ScatterResponse, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			resps[p], errs[p] = mems[p].Scatter(ctx, index, store.ScatterRequest{
				Req: naive, Partition: p, Partitions: P,
			})
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return store.EventsResult{}, err
		}
	}
	return store.MergeScatters(req, resps), nil
}
