package store

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Tests and benchmarks for the terms aggregation over the rows' codes: a
// terms aggregation over a string field counts its rows' dictionary codes,
// and must answer exactly what reading every matched row would.

// codesRows is n rows from time at with syscalls drawn from vocab. Class is
// empty on every row, so every row posts "" in it; proc_name is empty on
// about half.
func codesRows(rng *rand.Rand, n int, vocab []string, at int64) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		ts := at + int64(i)*1000
		evs[i] = event.Event{
			Session:     fmt.Sprintf("s%d", rng.Intn(3)),
			Syscall:     vocab[rng.Intn(len(vocab))],
			ProcName:    []string{"", "app"}[rng.Intn(2)],
			ThreadName:  fmt.Sprintf("w%d", rng.Intn(4)),
			FilePath:    []string{"", "/a", "/b"}[rng.Intn(3)],
			RetVal:      int64(rng.Intn(4)),
			TimeEnterNS: ts, TimeExitNS: ts + 1,
		}
	}
	return evs
}

// codesAggs is a terms aggregation over every indexed field, over a string
// field that is not (file_path) and over one with no codes (ret_val), each
// alone and with a terms sub-aggregation.
func codesAggs() map[string]Agg {
	aggs := make(map[string]Agg)
	for _, f := range []string{FieldSession, FieldSyscall, FieldProcName, FieldThreadName, FieldClass, FieldFilePath, FieldRetVal} {
		sub := FieldThreadName
		if f == sub {
			sub = FieldSyscall
		}
		aggs[f] = Agg{Terms: &TermsAgg{Field: f}}
		aggs[f+"/sub"] = Agg{Terms: &TermsAgg{Field: f}, Aggs: map[string]Agg{"sub": {Terms: &TermsAgg{Field: sub}}}}
	}
	return aggs
}

// termsByRow is the reference terms partial: every id's row read through
// its boxed document value (keyString of EventToDoc's field), grouped by
// term, and each group's terms sub-aggregations the same way.
func termsByRow(sh *shard, a Agg, ids []int32) *AggPartial {
	groups := make(map[string][]int32)
	for _, id := range ids {
		k := keyString(EventToDoc(sh.eventAt(int(id)))[a.Terms.Field])
		groups[k] = append(groups[k], id)
	}
	p := &AggPartial{TermCounts: make(map[string]int)}
	for k, g := range groups {
		p.TermCounts[k] = len(g)
	}
	if len(a.Aggs) > 0 {
		p.Subs = make(map[string]map[string]*AggPartial)
		for k, g := range groups {
			p.Subs[k] = make(map[string]*AggPartial)
			for name, sub := range a.Aggs {
				p.Subs[k][name] = termsByRow(sh, sub, g)
			}
		}
	}
	return p
}

// idSets are the matched sets a shard of n rows is checked over: all of
// them (the posting-list shortcut), a window, every third row, one row, none,
// and the rows from the first of a later batch on.
func idSets(n, from int) map[string][]int32 {
	span := func(lo, hi, step int) []int32 {
		var ids []int32
		for id := lo; id < hi; id += step {
			ids = append(ids, int32(id))
		}
		return ids
	}
	return map[string][]int32{
		"all": span(0, n, 1), "window": span(n/4, 3*n/4, 1), "thirds": span(0, n, 3),
		"one": span(n/2, n/2+1, 1), "none": nil, "later": span(from, n, 1),
	}
}

// checkCodes compares sh's terms partials with the row reference over every
// aggregation and matched set.
func checkCodes(t *testing.T, label string, sh *shard, from int) {
	t.Helper()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for name, ids := range idSets(sh.rows.len(), from) {
		for aname, a := range codesAggs() {
			if got, want := jsonOf(sh.partial(a, ids)), jsonOf(termsByRow(sh, a, ids)); got != want {
				t.Fatalf("%s, %s ids, %s:\n got %s\nwant %s", label, name, aname, got, want)
			}
		}
	}
}

// TestTermsCodesMatchRowScan: terms partials counted from the rows' codes
// equal the row reference, with and without sub-aggregations, at 1 and 4
// shards — over every indexed field, a string field that is not indexed and
// a field with no codes, over rows whose terms a later batch adds to the
// dictionaries, after a snapshot evicts the rows and their dictionaries, on
// a resident cold segment, and for one row of a 5 000-session dictionary.
func TestTermsCodesMatchRowScan(t *testing.T) {
	for _, S := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", S), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(S)))
			ix := NewIndexWithShards("codes", S)
			if err := ix.AddEvents(codesRows(rng, 400*S, []string{"read", "write", "openat"}, 0)); err != nil {
				t.Fatal(err)
			}
			for s, sh := range ix.shards {
				checkCodes(t, fmt.Sprintf("built, shard %d", s), sh, sh.len())
			}
			// A later batch with a syscall none of the earlier rows holds.
			from := ix.shards[0].len()
			if err := ix.AddEvents(codesRows(rng, 100*S, []string{"write", "fsync"}, 1e9)); err != nil {
				t.Fatal(err)
			}
			for s, sh := range ix.shards {
				checkCodes(t, fmt.Sprintf("extended, shard %d", s), sh, from)
			}
			t.Run("evicted", func(t *testing.T) { checkEvictedCodes(t, S) })
		})
	}
	t.Run("sessions=5000", checkSparseCodes)
}

// checkEvictedCodes lets a snapshot evict a durable index's hot rows, and
// checks the rows that follow under another vocabulary, and then the
// resident cold segment the evicted rows went to.
func checkEvictedCodes(t *testing.T, S int) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithShards(S), WithQueryCache(0))
	defer st.Close()
	rng := rand.New(rand.NewSource(7))
	at := time.Now().UnixNano()
	flushed := codesRows(rng, 300*S, []string{"read", "write", "openat", "close"}, at)
	if err := st.BulkEvents(ctx, windowIndex, flushed); err != nil {
		t.Fatal(err)
	}
	ix, _ := st.GetIndex(windowIndex)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.BulkEvents(ctx, windowIndex, codesRows(rng, 50*S, []string{"lseek", "fsync"}, at+1e9)); err != nil {
		t.Fatal(err)
	}
	for s, sh := range ix.shards {
		if got := len(sh.dicts[1].terms); got != 3 {
			t.Fatalf("shard %d: the syscall dictionary holds %d terms after eviction, want \"\", lseek and fsync", s, got)
		}
		checkCodes(t, fmt.Sprintf("after eviction, shard %d", s), sh, 0)
	}

	// A window over the flushed rows opens their segment.
	window := SearchRequest{Query: timeRange(at, at+int64(len(flushed))*1000),
		Size: 1, Aggs: codesAggs()}
	if _, err := st.Search(ctx, windowIndex, window); err != nil {
		t.Fatal(err)
	}
	segs := ix.coldSegments()
	if len(segs) != 1 {
		t.Fatalf("fixture: %d cold segments, want 1", len(segs))
	}
	ix.dur.resident.mu.Lock()
	e := ix.dur.resident.bySeq[segs[0].Seq]
	ix.dur.resident.mu.Unlock()
	if e == nil {
		t.Fatal("the flushed segment is not resident after a window over it")
	}
	if got := e.cs.sh.len(); got != len(flushed) {
		t.Fatalf("the resident segment holds %d of %d rows", got, len(flushed))
	}
	checkCodes(t, "resident cold segment", e.cs.sh, 0)
}

// checkSparseCodes: one matched row of a shard whose session dictionary holds
// 5 000 terms counts right, and without a counter per term.
func checkSparseCodes(t *testing.T) {
	const sessions = 5000
	evs := make([]event.Event, sessions)
	for i := range evs {
		evs[i] = event.Event{Session: fmt.Sprintf("s%04d", i), Syscall: "read", TimeEnterNS: int64(i), TimeExitNS: int64(i) + 1}
	}
	ix := NewIndexWithShards("codes", 1)
	if err := ix.AddEvents(evs); err != nil {
		t.Fatal(err)
	}
	sh := ix.shards[0]
	checkCodes(t, "5 000 sessions", sh, sessions)
	one, agg := []int32{sessions / 2}, Agg{Terms: &TermsAgg{Field: FieldSession}}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reps = 100
	for i := 0; i < reps; i++ {
		sh.partial(agg, one)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= 8*sessions {
		t.Fatalf("one matched row of %d sessions allocated %d B per count: a counter per term", sessions, per)
	}
}

// BenchmarkTermsAgg prices a terms aggregation per matched row on one shard:
// terms(syscall) over a 1 500-row time window of 6 000 rows, the cold_history
// query's shape, and terms(session) over a 10-row window of a shard holding
// 5 000 sessions, where a counter per term would cost more than the rows.
func BenchmarkTermsAgg(b *testing.B) {
	syscalls := []string{"read", "write", "pread64", "openat", "close"}
	for _, arm := range []struct {
		name        string
		rows, match int
		field       string
		row         func(i int) event.Event
	}{
		{"syscall", 6000, 1500, FieldSyscall, func(i int) event.Event {
			return event.Event{Session: "s", Syscall: syscalls[(i*7)%len(syscalls)], ThreadName: fmt.Sprintf("w%d", i%4)}
		}},
		{"session", 5000, 10, FieldSession, func(i int) event.Event {
			return event.Event{Session: fmt.Sprintf("s%04d", i), Syscall: "read"}
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			evs := make([]event.Event, arm.rows)
			for i := range evs {
				evs[i] = arm.row(i)
				evs[i].TimeEnterNS, evs[i].TimeExitNS = int64(i)*1000, int64(i)*1000+1
			}
			ix := NewIndexWithShards("terms", 1)
			if err := ix.AddEvents(evs); err != nil {
				b.Fatal(err)
			}
			// Sorted by time, so the window is a run of the time order and
			// matching it costs its rows, as on a resident segment.
			lo := int64(arm.rows/3) * 1000
			req := SearchRequest{Query: timeRange(lo, lo+int64(arm.match-1)*1000),
				Sort: []SortField{{Field: FieldTimeEnter}}, Size: 1,
				Aggs: map[string]Agg{"by": {Terms: &TermsAgg{Field: arm.field}}}}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if res := ix.SearchEvents(req); res.Total != arm.match {
					b.Fatalf("total %d, want %d", res.Total, arm.match)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*arm.match), "ns/matched-row")
		})
	}
}
