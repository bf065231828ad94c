package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// timelineAgg is the Fig. 4 request shape: a date histogram of time_enter_ns
// split by thread name.
func timelineAgg(intervalNS int64) Agg {
	return Agg{
		DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: intervalNS},
		Aggs:          map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: FieldThreadName}}},
	}
}

// TestScatterNestedPartialCarriesNoRows: the aggregation half of a /_scatter
// body for the Fig. 4 request is a tree of bucket counts. It names no
// document field, and over ten times the rows at the same bucket count it is
// the same bytes except for the digits of the counts.
func TestScatterNestedPartialCarriesNoRows(t *testing.T) {
	ctx := context.Background()
	partials := func(n int) []byte {
		st := memStore(t)
		evs := make([]event.Event, n)
		for i := range evs {
			// Five 100ms buckets × three threads, whatever n is.
			at := int64(1_700_000_000_000_000_000) + int64(i%5)*100_000_000 + int64(i)
			evs[i] = event.Event{
				Session: "s", Syscall: "read", Class: "io", ProcName: "db_bench",
				ThreadName: fmt.Sprintf("worker-%d", i%3), TimeEnterNS: at, TimeExitNS: at + 500,
				ArgPath: "/data/sst", RetVal: 4096, Count: 4096,
			}
		}
		if err := st.BulkEvents(ctx, "run", evs); err != nil {
			t.Fatal(err)
		}
		resp, err := st.Scatter(ctx, "run", ScatterRequest{
			Req:        SearchRequest{Query: Term(FieldSession, "s"), Size: 1, Aggs: map[string]Agg{"timeline": timelineAgg(100_000_000)}},
			Partitions: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := MergeAggPartials(timelineAgg(100_000_000), []AggPartial{resp.Partials["timeline"]}); len(got.Buckets) != 5 || len(got.Buckets[0].Sub["by_thread"].Buckets) != 3 {
			t.Fatalf("n=%d: timeline = %+v, want 5 buckets × 3 threads", n, got)
		}
		b, err := json.Marshal(resp.Partials)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small, big := partials(300), partials(3000)
	for _, key := range event.Fields() {
		if bytes.Contains(big, []byte(`"`+key+`"`)) {
			t.Errorf("partials name the document field %q: %s", key, big)
		}
	}
	noDigits := func(b []byte) string {
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, string(b))
	}
	if noDigits(small) != noDigits(big) {
		t.Errorf("partials grew with the row count:\n 300 rows:  %s\n 3000 rows: %s", small, big)
	}
}

// wireFuzzAggs is the aggregation-shape seed set of FuzzAggPartialWire: every
// leaf kind flat, plus the nested shapes the dashboards issue.
func wireFuzzAggs() []Agg {
	stats := Agg{Stats: &StatsAgg{Field: FieldCount}}
	pcts := Agg{Percentiles: &PercentilesAgg{Field: FieldCount}}
	return []Agg{
		{Terms: &TermsAgg{Field: FieldSyscall, Size: 2}},
		{DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 1000}},
		stats,
		pcts,
		timelineAgg(1000),
		{Terms: &TermsAgg{Field: FieldThreadName}, Aggs: map[string]Agg{"p": pcts, "over_time": {
			DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 2500},
			Aggs:          map[string]Agg{"size": stats},
		}}},
		{},
	}
}

// wireFuzzIndex builds a small three-shard index determined by seed; count
// is absent from some rows.
func wireFuzzIndex(seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]event.Event, 1+rng.Intn(48))
	for i := range evs {
		evs[i] = event.Event{
			Session:     "s",
			Syscall:     []string{"read", "write", "close"}[rng.Intn(3)],
			ThreadName:  fmt.Sprintf("t%d", rng.Intn(3)),
			Count:       rng.Intn(4) * 512,
			TimeEnterNS: 1_700_000_000_000_000_000 + int64(rng.Intn(10_000)),
		}
	}
	ix := NewIndexWithShards("fuzz", 3)
	ix.AddEvents(evs)
	return ix
}

// FuzzAggPartialWire fuzzes the scatter partial decoder. Arbitrary bytes that
// decode as an AggPartial must merge without panicking under every shape in
// the seed set, whatever shape produced them. And for partials the shards of
// a seed-determined index generate, the wire must be transparent: finalizing
// the combined in-memory partials equals MergeAggPartials over their JSON
// round-trips.
func FuzzAggPartialWire(f *testing.F) {
	aggs := wireFuzzAggs()
	ix := wireFuzzIndex(1)
	for _, a := range aggs {
		for _, sh := range ix.shards {
			b, err := json.Marshal(sh.partial(a, sh.matchIDs(compileQuery(MatchAll()))))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b, int64(len(b)))
		}
	}
	for _, s := range []string{
		`{}`, `null`, `[]`, `{"subs":{"k":{"by_thread":null,"p":null}}}`,
		`{"term_counts":{"a":-5},"hist_counts":{"12":3},"vals":[3,1,2],"stats":{"count":0,"min":0,"max":0,"sum":0,"avg":0}}`,
		`{"hist_counts":{"not-a-number":1}}`,
		`{"subs":{"1000":{"by_thread":{"subs":{"x":{"y":{"subs":{}}}}}}},"hist_counts":{"1000":1}}`,
	} {
		f.Add([]byte(s), int64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var p AggPartial
		if json.Unmarshal(data, &p) == nil {
			for _, a := range aggs {
				MergeAggPartials(a, []AggPartial{p, p})
			}
		}
		ix := wireFuzzIndex(seed)
		for i, a := range aggs {
			var mem []*AggPartial
			var wire []AggPartial
			for _, sh := range ix.shards {
				p := sh.partial(a, sh.matchIDs(compileQuery(MatchAll())))
				b, err := json.Marshal(p)
				if err != nil {
					t.Fatalf("agg %d: marshal partial: %v", i, err)
				}
				var w AggPartial
				if err := json.Unmarshal(b, &w); err != nil {
					t.Fatalf("agg %d: decode own partial %s: %v", i, b, err)
				}
				mem, wire = append(mem, p), append(wire, w)
			}
			want := finalizePartial(a, combinePartials(a, mem))
			if got := MergeAggPartials(a, wire); !reflect.DeepEqual(got, want) {
				t.Fatalf("agg %d: the wire changed the answer:\n in-memory %+v\n over wire %+v", i, want, got)
			}
		}
	})
}
