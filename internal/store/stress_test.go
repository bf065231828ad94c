package store

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentStress hammers one sharded index with concurrent bulk
// writers, single-doc writers, searchers, aggregators, counters, and a
// correlation loop — the contention pattern of the real pipeline, where
// drain workers bulk-index while dashboards query and the correlation
// algorithm names files. Run under -race; the invariants are:
// no lost documents and consistent totals.
func TestConcurrentStress(t *testing.T) {
	const (
		writers       = 4
		docsPerWriter = 1500
		batch         = 64
	)
	st, ix := storeIndex(t, "stress", WithShards(8))

	syscalls := []string{"read", "write", "openat", "close", "fsync"}
	// Each writer's opens and fsyncs share one file tag, which its opens name.
	mkdoc := func(writer, i int) Document {
		d := Document{
			"session":       "stress",
			"thread_name":   fmt.Sprintf("w%d", writer),
			"syscall":       syscalls[i%len(syscalls)],
			"time_enter_ns": int64(i) * 1000,
			"duration_ns":   float64(i%97) + 1,
		}
		switch d["syscall"] {
		case "openat":
			d["kernel_path"] = fmt.Sprintf("/data/w%d", writer)
			fallthrough
		case "fsync":
			d["file_tag"] = fmt.Sprintf("1 %d 7", writer+1)
		}
		return d
	}

	var (
		writeWG, readWG sync.WaitGroup
		done            atomic.Bool
	)

	// Half the writers index one event at a time; the other half batch like
	// the tracer does.
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			if w%2 == 0 {
				for i := 0; i < docsPerWriter; i++ {
					ix.AddEvents(docEvents(mkdoc(w, i)))
				}
				return
			}
			for i := 0; i < docsPerWriter; i += batch {
				end := i + batch
				if end > docsPerWriter {
					end = docsPerWriter
				}
				docs := make([]Document, 0, end-i)
				for j := i; j < end; j++ {
					docs = append(docs, mkdoc(w, j))
				}
				ix.AddEvents(docEvents(docs...))
			}
		}(w)
	}

	// Readers: searches with sorting, pagination, and aggregations. Totals
	// are racy snapshots while writers run, so only structural invariants
	// are asserted here.
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for !done.Load() {
				resp := ix.Search(SearchRequest{
					Query: Term("syscall", "write"),
					Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
					Size:  10,
					Aggs: map[string]Agg{
						"by_writer": {Terms: &TermsAgg{Field: "thread_name"}},
						"lat":       {Stats: &StatsAgg{Field: "duration_ns"}},
					},
				})
				if len(resp.Hits) > 10 {
					panic("size cap violated")
				}
				sum := 0
				for _, b := range resp.Aggs["by_writer"].Buckets {
					sum += b.Count
				}
				if sum != resp.Total {
					panic(fmt.Sprintf("terms agg counted %d docs, total %d", sum, resp.Total))
				}
				if n := ix.Count(Term("syscall", "write")); n < 0 {
					panic("negative count")
				}
			}
		}()
	}

	// Correlation names tagged rows in place while writes and reads are in
	// flight, and its accounting closes on whatever rows each pass saw.
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for !done.Load() {
			r, err := st.Correlate(context.Background(), "stress", "stress")
			if err != nil {
				panic(err)
			}
			if r.EventsUpdated+r.EventsUnresolved+r.EventsAlreadyResolved != r.EventsWithTag {
				panic(fmt.Sprintf("correlation accounting does not close: %+v", r))
			}
		}
	}()

	writeWG.Wait()
	done.Store(true)
	readWG.Wait()

	total := writers * docsPerWriter
	if got := ix.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	resp := ix.Search(SearchRequest{Query: MatchAll(), Size: -1})
	if resp.Total != total || len(resp.Hits) != total {
		t.Fatalf("match_all total=%d hits=%d, want %d", resp.Total, len(resp.Hits), total)
	}

	// No lost docs: every writer's documents are all present.
	for w := 0; w < writers; w++ {
		if n := ix.Count(Term("thread_name", fmt.Sprintf("w%d", w))); n != docsPerWriter {
			t.Fatalf("writer %d count = %d, want %d", w, n, docsPerWriter)
		}
	}

	// A final quiescent pass names whatever the racing ones left; afterwards
	// every tagged row — each writer's opens and fsyncs — has its path.
	correlate(t, st, "stress", "stress")
	nf, ns := ix.Count(Exists(FieldFilePath)), ix.Count(Terms("syscall", "fsync", "openat"))
	if nf != ns || ns != ix.Count(Exists(FieldFileTag)) {
		t.Fatalf("named %d docs, tagged population %d", nf, ns)
	}
	for w := 0; w < writers; w++ {
		named := Must(Term("thread_name", fmt.Sprintf("w%d", w)), Exists(FieldFilePath))
		if n, m := ix.Count(named), ix.Count(Must(named, Term(FieldFilePath, fmt.Sprintf("/data/w%d", w)))); n == 0 || n != m {
			t.Fatalf("writer %d: %d rows named, %d with its own path", w, n, m)
		}
	}
}

// TestShardedMatchesOracle cross-checks correlation — the store's one
// update — against the oracle's brute-force rule at 1, 4 and 16 shards, and
// with at least three storage blocks in every shard, so that scans and the
// pass cross block boundaries: one session's pass, then every session's,
// must name exactly the rows the oracle names, with the same accounting,
// and the named rows must answer generated requests as the oracle does.
func TestShardedMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { shardedMatchesOracle(t, shards, 1200) })
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d,blocks=3", shards), func(t *testing.T) {
			shardedMatchesOracle(t, shards, shards*(2*blockRows+37))
		})
	}
}

func shardedMatchesOracle(t *testing.T, shards, n int) {
	st, ix := storeIndex(t, "diff", WithShards(shards))
	rng := rand.New(rand.NewSource(int64(n)))
	for _, b := range genBatches(rng, n) {
		ix.AddEvents(b)
	}
	reqs := make([]SearchRequest, 16)
	for i := range reqs {
		reqs[i] = genRequest(rng)
	}
	for _, session := range []string{"s1", ""} {
		want, _ := oracleRows(ix)
		wantRes := oracleCorrelate(want, session)
		if gotRes := correlate(t, st, "diff", session); gotRes != wantRes || gotRes.EventsUpdated == 0 {
			t.Fatalf("correlate %q: sharded %+v, oracle %+v", session, gotRes, wantRes)
		}
		if got, _ := oracleRows(ix); !reflect.DeepEqual(got, want) {
			t.Fatalf("correlate %q: rows diverge from the oracle's", session)
		}
		for _, req := range reqs {
			if got, want := ix.Search(req), oracleSearch(ix, req); !same(got, want) {
				t.Fatalf("correlate %q: %s diverges:\n got %.2000s\nwant %.2000s", session, goLiteral(req), jsonOf(got), jsonOf(want))
			}
		}
	}
}

// domainValues are a term value of every kind: a string, a JSON integer, a
// JSON fraction, a bool, nil, a decimal string, and the string "<nil>".
var domainValues = []any{"s1", json.Number("5"), json.Number("1.5"), true, nil, "5", "<nil>"}
