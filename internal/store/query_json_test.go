package store

import (
	"encoding/json"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// TestQueryJSONRoundTrip ensures the query DSL survives the HTTP boundary:
// a query built in Go, marshaled, and unmarshaled must match the same
// documents.
func TestQueryJSONRoundTrip(t *testing.T) {
	ix := newFixtureIndex()
	queries := []Query{
		Term("syscall", "read"),
		Terms("syscall", "openat", "unlink"),
		RangeBetween("time_enter_ns", 200, 400),
		Prefix("kernel_path", "/tmp"),
		Exists("file_tag"),
		Must(Term("session", "s1"), Exists("offset")),
		MustNot(Term("proc_name", "app")),
		MatchAll(),
		{Bool: &BoolQuery{Should: []Query{Term("syscall", "read"), Term("syscall", "write")}}},
	}
	for i, q := range queries {
		raw, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("query %d marshal: %v", i, err)
		}
		var back Query
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("query %d unmarshal: %v", i, err)
		}
		want := ix.Count(q)
		got := ix.Count(back)
		if want != got {
			t.Errorf("query %d (%s): count %d != %d after JSON round trip", i, raw, want, got)
		}
	}
}

// TestSearchRequestJSONRoundTrip covers sort, paging, and nested aggs.
func TestSearchRequestJSONRoundTrip(t *testing.T) {
	ix := newFixtureIndex()
	req := SearchRequest{
		Query: Term("session", "s1"),
		Sort:  []SortField{{Field: "time_enter_ns", Desc: true}},
		From:  1,
		Size:  2,
		Aggs: map[string]Agg{
			"tl": {
				DateHistogram: &DateHistogramAgg{Field: "time_enter_ns", IntervalNS: 100},
				Aggs:          map[string]Agg{"p": {Terms: &TermsAgg{Field: "proc_name", Size: 3}}},
			},
			"lat": {Percentiles: &PercentilesAgg{Field: "duration_ns", Percents: []float64{50, 99}}},
			"st":  {Stats: &StatsAgg{Field: "duration_ns"}},
		},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SearchRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	a := ix.Search(req)
	b := ix.Search(back)
	if a.Total != b.Total || len(a.Hits) != len(b.Hits) {
		t.Fatalf("hit mismatch: %d/%d vs %d/%d", a.Total, len(a.Hits), b.Total, len(b.Hits))
	}
	if len(a.Aggs["tl"].Buckets) != len(b.Aggs["tl"].Buckets) {
		t.Fatalf("agg mismatch: %+v vs %+v", a.Aggs["tl"], b.Aggs["tl"])
	}
	if a.Aggs["lat"].Percentiles["99"] != b.Aggs["lat"].Percentiles["99"] {
		t.Fatalf("percentile mismatch")
	}
	if a.Aggs["st"].Stats.Sum != b.Aggs["st"].Stats.Sum {
		t.Fatalf("stats mismatch")
	}
}

// TestValueEqualsCoercionProperty: a term on an integer field equals the
// row's integer whatever Go or JSON type carries the value — every Go
// integer kind, an integral float, a json.Number over all 64 bits, a bool as
// 0/1 — and a number never equals a string field's value. Each term is
// compiled and matched against a stored row, and the oracle's by-name
// evaluator must agree with it.
func TestValueEqualsCoercionProperty(t *testing.T) {
	match := func(e event.Event, q Query) bool {
		sh := newShard()
		sh.addEventLocked(&e)
		got := compileQuery(q).match(sh.row(0))
		if oracle := q.Matches(EventToDoc(&e)); oracle != got {
			t.Errorf("%s on %+v: engine %v, oracle %v", jsonOf(q), e, got, oracle)
		}
		return got
	}
	ret := func(n int64) event.Event { return event.Event{RetVal: n} }
	f := func(n int32, w int64) bool {
		v, small := int64(n), int16(n)
		num := json.Number(strconv.FormatInt(w, 10))
		ok := match(ret(v), Term(FieldRetVal, v)) &&
			match(ret(v), Term(FieldRetVal, float64(n))) &&
			match(ret(v), Term(FieldRetVal, int(n))) &&
			match(ret(v), Term(FieldRetVal, n)) &&
			match(ret(int64(small)), Term(FieldRetVal, small)) &&
			match(ret(int64(small)), Term(FieldRetVal, float32(small))) &&
			match(ret(int64(int8(n))), Term(FieldRetVal, int8(n))) &&
			match(ret(int64(uint16(n))), Term(FieldRetVal, uint16(n))) &&
			match(ret(int64(uint32(n))), Term(FieldRetVal, uint32(n))) &&
			match(ret(int64(uint32(n))), Term(FieldRetVal, uint(uint32(n)))) &&
			match(ret(w), Term(FieldRetVal, num)) &&
			!match(ret(w^1), Term(FieldRetVal, num)) &&
			!match(event.Event{Session: strconv.FormatInt(v, 10)}, Term(FieldSession, v))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if match(ret(5), Term(FieldRetVal, 5.5)) || match(ret(5), Term(FieldRetVal, ^uint64(0))) {
		t.Fatal("a non-integral float or an unsigned past int64 equals an integer")
	}
	if match(event.Event{Session: "5"}, Term(FieldSession, 5)) {
		t.Fatal("string '5' equals number 5")
	}
	if !match(event.Event{Session: "a"}, Term(FieldSession, "a")) || match(event.Event{Session: "b"}, Term(FieldSession, "a")) {
		t.Fatal("string comparison broken")
	}
	if !match(ret(1), Term(FieldRetVal, true)) || !match(ret(0), Term(FieldRetVal, false)) ||
		!match(event.Event{HasOffset: true}, Term(FieldHasOffset, 1)) || !match(event.Event{}, Term(FieldHasOffset, 0)) {
		t.Fatal("bool coercion broken")
	}
}

// TestConcurrentIndexAndSearch exercises the store under a writer and
// several readers, as happens while the tracer streams events and the
// visualizer queries in near real time.
func TestConcurrentIndexAndSearch(t *testing.T) {
	ix := NewIndex("live")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			ix.AddEvents([]event.Event{{Syscall: "write", TimeEnterNS: int64(i)}})
		}
	}()
	for ix.Len() < 2000 {
		resp := ix.Search(SearchRequest{
			Query: Term("syscall", "write"),
			Aggs:  map[string]Agg{"c": {Stats: &StatsAgg{Field: "time_enter_ns"}}},
		})
		if resp.Total != resp.Aggs["c"].Stats.Count {
			t.Fatalf("inconsistent snapshot: %d hits, %d agg count", resp.Total, resp.Aggs["c"].Stats.Count)
		}
	}
	<-done
	if got := ix.Count(MatchAll()); got != 2000 {
		t.Fatalf("final count = %d", got)
	}
}

// TestPercentileAggMatchesNearestRank cross-checks the store's percentile
// aggregation against the metrics package's definition on random data.
func TestPercentileAggMatchesNearestRank(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ix := NewIndex("p")
		for _, v := range raw {
			ix.AddEvents([]event.Event{{RetVal: int64(v)}})
		}
		resp := ix.Search(SearchRequest{
			Query: MatchAll(),
			Aggs:  map[string]Agg{"p": {Percentiles: &PercentilesAgg{Field: FieldRetVal, Percents: []float64{0, 50, 100}}}},
		})
		p := resp.Aggs["p"].Percentiles
		min, max := raw[0], raw[0]
		for _, v := range raw {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return p["0"] == float64(min) && p["100"] == float64(max) &&
			p["50"] >= float64(min) && p["50"] <= float64(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
