package store

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// rollupFixture spreads n typed events over ~n milliseconds of trace time
// (many 100ms rollup buckets) across four sessions and six syscalls.
func rollupFixture(n int) []event.Event {
	syscalls := []string{"read", "write", "openat", "close", "fsync", "lseek"}
	evs := make([]event.Event, n)
	for i := range evs {
		enter := 5_000_000_000 + int64(i)*1_000_000
		evs[i] = event.Event{
			Session:     fmt.Sprintf("s%d", i%4),
			Syscall:     syscalls[i%len(syscalls)],
			Class:       "io",
			RetVal:      int64(i % 512),
			PID:         9,
			TID:         10 + i%2,
			ProcName:    fmt.Sprintf("proc%d", i%3),
			ThreadName:  fmt.Sprintf("w%d", i%2),
			TimeEnterNS: enter,
			TimeExitNS:  enter + 1_500,
		}
	}
	return evs
}

// rollupTwin builds two stores over identical ingest: one with continuous
// rollups at the default 100ms base, one with rollups disabled (the
// ablation), so every aggregation can be checked shape-for-shape.
func rollupTwin(t *testing.T) (on, off *Store) {
	t.Helper()
	var err error
	on, err = Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { on.Close() })
	off, err = Open(WithRollupInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { off.Close() })
	evs := rollupFixture(8_000)
	ctx := context.Background()
	for i := 0; i < len(evs); i += 1024 {
		j := min(i+1024, len(evs))
		if err := on.BulkEvents(ctx, "run", evs[i:j]); err != nil {
			t.Fatal(err)
		}
		if err := off.BulkEvents(ctx, "run", evs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	return on, off
}

// rollupShapes is the aggregation matrix: served shapes (terms over every
// indexed field, histograms at the base interval and exact multiples,
// session-scoped variants) and fallback shapes (sub-aggregations,
// non-divisible intervals, non-indexed fields, filtered queries).
func rollupShapes() []SearchRequest {
	terms := func(f string) map[string]Agg {
		return map[string]Agg{"t": {Terms: &TermsAgg{Field: f}}}
	}
	hist := func(interval int64) map[string]Agg {
		return map[string]Agg{"h": {DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: interval}}}
	}
	shapes := []SearchRequest{
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldSession)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldSyscall)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldProcName)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldThreadName)},
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldClass)},
		{Query: MatchAll(), Size: 1, Aggs: hist(100_000_000)},                 // base
		{Query: MatchAll(), Size: 1, Aggs: hist(300_000_000)},                 // 3x base, rebucketed
		{Query: MatchAll(), Size: 1, Aggs: hist(1_000_000_000)},               // 10x base
		{Query: MatchAll(), Size: 1, Aggs: hist(150_000_000)},                 // not a multiple: fallback
		{Query: MatchAll(), Size: 1, Aggs: terms(FieldRetVal)},                // not an indexed field: fallback
		{Query: Term(FieldSession, "s2"), Size: 1, Aggs: terms(FieldSyscall)}, // session partial
		{Query: Term(FieldSession, "s2"), Size: 1, Aggs: hist(100_000_000)},
		{Query: Term(FieldSession, "nope"), Size: 1, Aggs: terms(FieldSyscall)}, // absent session
		{Query: Term(FieldSyscall, "read"), Size: 1, Aggs: terms(FieldSession)}, // non-session filter: fallback
		{ // sub-aggregation: fallback
			Query: MatchAll(), Size: 1,
			Aggs: map[string]Agg{"h": {
				DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 1_000_000_000},
				Aggs:          map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: FieldThreadName}}},
			}},
		},
		{ // mixed: one served, one fallback, same request
			Query: MatchAll(), Size: 1,
			Aggs: map[string]Agg{
				"t": {Terms: &TermsAgg{Field: FieldSyscall}},
				"s": {Stats: &StatsAgg{Field: FieldRetVal}},
			},
		},
	}
	return shapes
}

// TestRollupDifferential answers every dashboard aggregation twice — once
// from the rollup-maintaining store, once from the scanning ablation — and
// requires identical responses, while the telemetry counters prove the
// served shapes really came from rollup partials.
func TestRollupDifferential(t *testing.T) {
	on, off := rollupTwin(t)
	ctx := context.Background()
	reg := on.Telemetry()
	hits0 := reg.Snapshot().Counters[telemetry.MetricRollupAggHits]
	for i, req := range rollupShapes() {
		a, err := on.Search(ctx, "run", req)
		if err != nil {
			t.Fatalf("shape %d rollup: %v", i, err)
		}
		b, err := off.Search(ctx, "run", req)
		if err != nil {
			t.Fatalf("shape %d ablation: %v", i, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shape %d diverges:\n rollup   %+v\n ablation %+v", i, a.Aggs, b.Aggs)
		}
	}
	if d := reg.Snapshot().Counters[telemetry.MetricRollupAggHits] - hits0; d == 0 {
		t.Error("no aggregation was served from rollup partials")
	}
	if reg.Snapshot().Counters[telemetry.MetricRollupAggMisses] == 0 {
		t.Error("fallback shapes recorded no rollup misses")
	}
}

// TestRollupNumericSessionTermFallsBack covers the coercion edge: a Term on
// session whose value is numeric matches the session string "7" through
// valueEquals' cross-type coercion, which the string-keyed rollup cannot
// mirror, so the session-scoped rollup path must stand down for it while
// answers stay correct via the fallback scan.
func TestRollupNumericSessionTermFallsBack(t *testing.T) {
	on, off := rollupTwin(t)
	ctx := context.Background()
	for _, st := range []*Store{on, off} {
		if err := st.BulkEvents(ctx, "run", []event.Event{{Session: "7", Syscall: "read", TimeEnterNS: 5_000_000_123}}); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []SearchRequest{
		// The numeric-vs-string coercion case itself.
		{Query: Term(FieldSession, 7), Size: 1, Aggs: map[string]Agg{"t": {Terms: &TermsAgg{Field: FieldSyscall}}}},
		{Query: Term(FieldSession, "s1"), Size: 1, Aggs: map[string]Agg{"t": {Terms: &TermsAgg{Field: FieldSyscall}}}},
		// Whole-index terms still serve.
		{Query: MatchAll(), Size: 1, Aggs: map[string]Agg{"t": {Terms: &TermsAgg{Field: FieldSession}}}},
	}
	for i, req := range reqs {
		a, err := on.Search(ctx, "run", req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := off.Search(ctx, "run", req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("numeric-session shape %d diverges:\n rollup   %+v\n ablation %+v", i, a.Aggs, b.Aggs)
		}
	}
}

// TestRollupOverflowFallsBack caps the key budget low enough that the
// fixture blows through it: overflowing shards must drop their rollups and
// every aggregation still answers correctly via the scan path.
func TestRollupOverflowFallsBack(t *testing.T) {
	old := maxRollupKeys
	maxRollupKeys = 8
	defer func() { maxRollupKeys = old }()

	on, off := rollupTwin(t)
	ctx := context.Background()
	for i, req := range rollupShapes() {
		a, err := on.Search(ctx, "run", req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := off.Search(ctx, "run", req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("overflow shape %d diverges:\n rollup   %+v\n ablation %+v", i, a.Aggs, b.Aggs)
		}
	}
}

// TestRollupSurvivesRecovery rebuilds a durable store from disk and checks
// recovered shards serve the same rollup answers as the never-closed twin.
// The tiered arm snapshots partway through the ingest, so the recovered index
// holds cold and hot rows: its hot stripes serve from rollups and its cold
// segments scan, in one pass whose answers must still be the twin's.
func TestRollupSurvivesRecovery(t *testing.T) {
	on, _ := rollupTwin(t)
	ctx := context.Background()
	for _, arm := range []string{"wal", "tiered"} {
		tiered := arm == "tiered"
		t.Run(arm, func(t *testing.T) {
			dir := t.TempDir()
			dur, err := Open(WithDataDir(dir), WithFsyncPolicy(FsyncOff), WithSnapshotInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			evs := rollupFixture(8_000)
			for i := 0; i < len(evs); i += 1024 {
				if err := dur.BulkEvents(ctx, "run", evs[i:min(i+1024, len(evs))]); err != nil {
					t.Fatal(err)
				}
				if tiered && i == 4*1024 {
					if err := dur.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Open(WithDataDir(dir), WithFsyncPolicy(FsyncOff), WithSnapshotInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if ix, _ := rec.GetIndex("run"); (coldRows(ix) > 0) != tiered || ix.shards[0].len() == 0 {
				t.Fatalf("fixture: %d cold rows, %d hot in shard 0", coldRows(ix), ix.shards[0].len())
			}
			hits0 := rec.Telemetry().Snapshot().Counters[telemetry.MetricRollupAggHits]
			for i, req := range rollupShapes() {
				a, err := rec.Search(ctx, "run", req)
				if err != nil {
					t.Fatal(err)
				}
				b, err := on.Search(ctx, "run", req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Aggs, b.Aggs) {
					t.Errorf("recovered shape %d diverges:\n recovered %+v\n live      %+v", i, a.Aggs, b.Aggs)
				}
			}
			if d := rec.Telemetry().Snapshot().Counters[telemetry.MetricRollupAggHits] - hits0; d == 0 {
				t.Error("recovered store served no aggregation from rollups")
			}
		})
	}
}

// TestRollupBucketBoundary pins histogram bucketing at epoch-scale
// timestamps, where float64's ulp is 256 ns: events 1 ns before, exactly at,
// and 1 ns after a 100ms bucket edge must land in the same buckets whether
// the request is rollup-served (a bare session term), scanned (the same rows
// selected through a bool query), scanned on the rollup-less ablation, or
// answered by the oracle — flat and with a sub-aggregation.
func TestRollupBucketBoundary(t *testing.T) {
	const edge = int64(1_687_860_000_100_000_000)
	evs := make([]event.Event, 3)
	for i, at := range []int64{edge - 1, edge, edge + 1} {
		evs[i] = event.Event{Session: "edge", Syscall: "read", ThreadName: "w", TimeEnterNS: at, TimeExitNS: at + 10}
	}
	on, off := memStore(t), memStore(t, WithRollupInterval(0))
	ctx := context.Background()
	for _, st := range []*Store{on, off} {
		t.Cleanup(func() { st.Close() })
		if err := st.BulkEvents(ctx, "run", evs); err != nil {
			t.Fatal(err)
		}
	}
	flat := Agg{DateHistogram: &DateHistogramAgg{Field: FieldTimeEnter, IntervalNS: 100_000_000}}
	nested := flat
	nested.Aggs = map[string]Agg{"by_thread": {Terms: &TermsAgg{Field: FieldThreadName}}}
	served := Term(FieldSession, "edge")
	scanned := Must(Term(FieldSession, "edge"), Term(FieldSyscall, "read"))

	wantKeys := []string{"1687860000000000000", "1687860000100000000"}
	wantCounts := []int{1, 2}
	hits0 := on.Telemetry().Snapshot().Counters[telemetry.MetricRollupAggHits]
	for name, a := range map[string]Agg{"flat": flat, "nested": nested} {
		for qname, q := range map[string]Query{"served": served, "scanned": scanned} {
			req := SearchRequest{Query: q, Size: 1, Aggs: map[string]Agg{"h": a}}
			ix, _ := on.GetIndex("run")
			answers := map[string]AggResult{"oracle": oracleSearch(ix, req).Aggs["h"]}
			for sname, st := range map[string]*Store{"rollup": on, "ablation": off} {
				resp, err := st.Search(ctx, "run", req)
				if err != nil {
					t.Fatal(err)
				}
				answers[sname] = resp.Aggs["h"]
			}
			for who, got := range answers {
				if len(got.Buckets) != len(wantKeys) {
					t.Errorf("%s/%s/%s: buckets %+v, want keys %v", name, qname, who, got.Buckets, wantKeys)
					continue
				}
				for i, b := range got.Buckets {
					if b.Key != wantKeys[i] || b.Count != wantCounts[i] {
						t.Errorf("%s/%s/%s: bucket %d = %s×%d, want %s×%d", name, qname, who, i, b.Key, b.Count, wantKeys[i], wantCounts[i])
					}
					if name == "nested" && (len(b.Sub["by_thread"].Buckets) != 1 || b.Sub["by_thread"].Buckets[0].Count != wantCounts[i]) {
						t.Errorf("%s/%s/%s: bucket %d sub = %+v", name, qname, who, i, b.Sub)
					}
				}
				if !reflect.DeepEqual(got, answers["oracle"]) {
					t.Errorf("%s/%s/%s diverges from the oracle:\n got    %+v\n oracle %+v", name, qname, who, got, answers["oracle"])
				}
			}
		}
	}
	if on.Telemetry().Snapshot().Counters[telemetry.MetricRollupAggHits] == hits0 {
		t.Error("the session-term request was not rollup-served — the differential proves nothing")
	}
}
