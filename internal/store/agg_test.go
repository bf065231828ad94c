package store

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// TestHistogramBucketBoundary pins histogram bucketing at epoch-scale
// timestamps, where float64's ulp is 256 ns: events 1 ns before, exactly at,
// and 1 ns after a 100ms bucket edge must land in the oracle's buckets, flat
// and with a sub-aggregation, under a bare session term and a bool query,
// whether the rows are hot or were flushed to a cold segment.
func TestHistogramBucketBoundary(t *testing.T) {
	const edge = int64(1_687_860_000_100_000_000)
	evs := make([]event.Event, 3)
	for i, at := range []int64{edge - 1, edge, edge + 1} {
		evs[i] = event.Event{Session: "edge", Syscall: "read", ThreadName: "w", TimeEnterNS: at, TimeExitNS: at + 10}
	}
	ctx := context.Background()
	hot, cold := memStore(t), openDurable(t, t.TempDir())
	t.Cleanup(func() { hot.Close(); cold.Close() })
	for _, st := range []*Store{hot, cold} {
		if err := st.BulkEvents(ctx, "run", evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := cold.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ix, _ := hot.GetIndex("run")
	if cix, _ := cold.GetIndex("run"); coldRows(cix) != int64(len(evs)) {
		t.Fatalf("fixture: %d cold rows, want %d", coldRows(cix), len(evs))
	}

	flat := Agg{DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 100_000_000}}
	nested := flat
	nested.Aggs = map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: FieldThreadName}}}
	wantKeys := []string{"1687860000000000000", "1687860000100000000"}
	wantCounts := []int{1, 2}
	for name, a := range map[string]Agg{"flat": flat, "nested": nested} {
		for qname, q := range map[string]Query{
			"term": Term(FieldSession, "edge"),
			"bool": Must(Term(FieldSession, "edge"), Term(FieldSyscall, "read")),
		} {
			req := SearchRequest{Query: q, Size: 1, Aggs: map[string]Agg{"h": a}}
			oracle := oracleSearch(ix, req).Aggs["h"]
			for sname, st := range map[string]*Store{"hot": hot, "cold": cold} {
				resp, err := st.Search(ctx, "run", req)
				if err != nil {
					t.Fatal(err)
				}
				got := resp.Aggs["h"]
				if len(got.Buckets) != len(wantKeys) {
					t.Errorf("%s/%s/%s: buckets %+v, want keys %v", name, qname, sname, got.Buckets, wantKeys)
					continue
				}
				for i, b := range got.Buckets {
					if b.Key != wantKeys[i] || b.Count != wantCounts[i] {
						t.Errorf("%s/%s/%s: bucket %d = %s×%d, want %s×%d", name, qname, sname, i, b.Key, b.Count, wantKeys[i], wantCounts[i])
					}
					if name == "nested" && (len(b.Sub["by_thread"].Buckets) != 1 || b.Sub["by_thread"].Buckets[0].Count != wantCounts[i]) {
						t.Errorf("%s/%s/%s: bucket %d sub = %+v", name, qname, sname, i, b.Sub)
					}
				}
				if !reflect.DeepEqual(got, oracle) {
					t.Errorf("%s/%s/%s diverges from the oracle:\n got    %+v\n oracle %+v", name, qname, sname, got, oracle)
				}
			}
		}
	}
}

// TestRollupSurvivesRecovery rebuilds a durable store from disk and checks
// that it answers generated requests (genRequest) exactly as a never-closed
// in-memory twin of the same generated rows does. The tiered arm snapshots
// partway through the ingest, so the recovered index answers from a cold
// segment and hot stripes in one pass.
func TestRollupSurvivesRecovery(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(85))
	evs := slices.Concat(genBatches(rng, 4000)...)
	reqs := make([]SearchRequest, 64)
	for i := range reqs {
		reqs[i] = genRequest(rng)
	}
	live := memStore(t, WithShards(4))
	t.Cleanup(func() { live.Close() })
	if err := live.BulkEvents(ctx, "run", evs); err != nil {
		t.Fatal(err)
	}
	for _, arm := range []string{"wal", "tiered"} {
		tiered := arm == "tiered"
		t.Run(arm, func(t *testing.T) {
			dir := t.TempDir()
			dur := openDurable(t, dir, WithShards(4), WithFsyncPolicy(FsyncOff))
			for i := 0; i < len(evs); i += 1000 {
				if err := dur.BulkEvents(ctx, "run", evs[i:min(i+1000, len(evs))]); err != nil {
					t.Fatal(err)
				}
				if tiered && i == 2000 {
					if err := dur.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			rec := openDurable(t, dir, WithShards(4), WithFsyncPolicy(FsyncOff))
			defer rec.Close()
			if ix, _ := rec.GetIndex("run"); (coldRows(ix) > 0) != tiered || ix.shards[0].len() == 0 {
				t.Fatalf("fixture: %d cold rows, %d hot in shard 0", coldRows(ix), ix.shards[0].len())
			}
			for i, req := range reqs {
				a, err := rec.Search(ctx, "run", req)
				if err != nil {
					t.Fatal(err)
				}
				b, err := live.Search(ctx, "run", req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("recovered shape %d diverges:\n recovered total %d, aggs %+v\n live      total %d, aggs %+v", i, a.Total, a.Aggs, b.Total, b.Aggs)
				}
			}
		})
	}
}

// TestHistogramBucketsFloorAligned: a histogram bucket is interval wide on
// both sides of zero, its key the multiple of interval at or below each of
// its values, and a bucket whose start would fall below MinInt64 starts at
// MinInt64. Keys are written out, over 1 and 4 shards.
func TestHistogramBucketsFloorAligned(t *testing.T) {
	const least = math.MinInt64
	cases := []struct {
		interval int64
		vals     []int64
		want     string
	}{
		{10, []int64{-15, -10, -5, -1, 0, 5, 9, 10}, "-20:1 -10:3 0:3 10:1"},
		{10, []int64{least, least + 7, least + 8}, "-9223372036854775808:2 -9223372036854775800:1"},
		{3, []int64{least, least + 1, least + 2}, "-9223372036854775808:2 -9223372036854775806:1"},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 4} {
			evs := make([]event.Event, len(c.vals))
			for i, v := range c.vals {
				evs[i] = event.Event{Session: "h", RetVal: v}
			}
			ix := NewIndexWithShards("h", shards)
			if err := ix.AddEvents(evs); err != nil {
				t.Fatal(err)
			}
			a := Agg{DateHistogram: &DateHistogramAgg{Field: FieldRetVal, IntervalNS: c.interval}}
			var got []string
			for _, b := range ix.SearchEvents(SearchRequest{Size: 1, Aggs: map[string]Agg{"h": a}}).Aggs["h"].Buckets {
				got = append(got, fmt.Sprintf("%s:%d", b.Key, b.Count))
			}
			if strings.Join(got, " ") != c.want {
				t.Errorf("interval %d over %v, %d shards: buckets %v, want %s", c.interval, c.vals, shards, got, c.want)
			}
		}
	}
}

// TestStatsSumIsExact: stats(time_enter_ns) over 1 500 epoch-scale stamps
// 0–400 ns apart, where float64's ulp is 256 ns, answers one result at 1, 4
// and 16 shards, over hot rows and with the first half in a cold segment:
// the exact least and greatest stamp, and the exact integer sum and mean
// each rounded to the nearest float64. A float64 running sum rounds at every
// row, so its answer moved with the shard count and the tier layout.
func TestStatsSumIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	evs := make([]event.Event, 1500)
	sum, ts := new(big.Int), int64(orderBase)
	for i := range evs {
		ts += int64(rng.Intn(401))
		evs[i] = event.Event{Session: "s", Syscall: "read", TimeEnterNS: ts, TimeExitNS: ts + 10}
		sum.Add(sum, big.NewInt(ts))
	}
	exact := new(big.Float).SetInt(sum)
	want := StatsResult{Count: len(evs), Min: float64(evs[0].TimeEnterNS), Max: float64(ts)}
	want.Sum, _ = exact.Float64()
	want.Avg, _ = new(big.Float).SetPrec(53).Quo(exact, big.NewFloat(float64(len(evs)))).Float64()
	req := SearchRequest{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{"st": {Stats: &StatsAgg{Field: FieldTimeEnter}}}}
	ctx := context.Background()
	for _, shards := range []int{1, 4, 16} {
		hot := memStore(t, WithShards(shards))
		cold := openDurable(t, t.TempDir(), WithShards(shards), WithFsyncPolicy(FsyncOff))
		t.Cleanup(func() { hot.Close(); cold.Close() })
		for _, st := range []*Store{hot, cold} {
			for i := 0; i < len(evs); i += len(evs) / 2 {
				if err := st.BulkEvents(ctx, "sum", evs[i:i+len(evs)/2]); err != nil {
					t.Fatal(err)
				}
				if i == 0 && st == cold {
					if err := cold.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for name, st := range map[string]*Store{"hot": hot, "cold+hot": cold} {
			resp, err := st.Search(ctx, "sum", req)
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Aggs["st"].Stats; got == nil || *got != want {
				t.Errorf("shards=%d %s: stats %+v, want %+v", shards, name, got, want)
			}
		}
	}
}
