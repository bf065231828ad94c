package store

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// TestTermEqualityDomain writes out, for every kind of field a term can
// name and every kind of value it can carry, how many rows the term counts:
// a string field equals a string; an integer field (has_offset read as 0/1)
// a value intOf accepts or the integer's decimal string, and has_offset
// "true" and "false" too; a nil value a row that lacks the field; and
// nothing else, so the string "<nil>" equals only the rows that hold it. A
// terms query of the one value counts the same, and so does the oracle.
func TestTermEqualityDomain(t *testing.T) {
	docs := []Document{
		{"session": "a", "arg_path2": "a", "file_tag": "1 2 3", "count": int64(5), "offset": int64(0), "has_offset": true},
		{"session": "5", "arg_path2": "5", "count": int64(1)},
		{"session": "a"},
		{"session": "<nil>", "arg_path2": "<nil>", "offset": int64(0), "has_offset": true},
	}
	values := []any{"a", json.Number("5"), json.Number("1.5"), true, nil, "5", "<nil>"}
	want := []struct {
		field  string
		counts []int // one per value
	}{
		{FieldSession, []int{2, 0, 0, 0, 0, 1, 1}},    // an indexed slot: never absent
		{FieldArgPath2, []int{1, 0, 0, 0, 1, 1, 1}},   // a slot absent where ""
		{FieldFileTag, []int{0, 0, 0, 0, 3, 0, 0}},    // the tag rendered, absent where unset
		{FieldCount, []int{0, 1, 0, 1, 2, 1, 0}},      // an integer absent where 0
		{FieldHasOffset, []int{0, 0, 0, 2, 0, 0, 0}},  // 0/1, never absent
		{"no_such_field", []int{0, 0, 0, 0, 4, 0, 0}}, // absent from every row
	}
	for _, shards := range []int{1, 4} {
		ix := NewIndexWithShards("domain", shards)
		if err := ix.AddEvents(docEvents(docs...)); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			for i, v := range values {
				for _, q := range []Query{Term(w.field, v), Terms(w.field, v)} {
					if got, oracle := ix.Count(q), oracleCount(ix, q); got != w.counts[i] || oracle != w.counts[i] {
						t.Errorf("shards=%d: %s = %#v counts %d (oracle %d), want %d",
							shards, w.field, v, got, oracle, w.counts[i])
					}
				}
			}
		}
	}
}

// TestResidualScanAllocsFlat: a query the planner cannot seed — a
// should-wrapped session term and time range — tests every row, and the
// test allocates nothing per row: Count over 4 000 rows allocates within 16
// of the same Count over 1 000 (the match lists' growth on four shards).
func TestResidualScanAllocsFlat(t *testing.T) {
	q := Query{Bool: &BoolQuery{Should: []Query{Must(Term(FieldSession, "s"), RangeGTE(FieldTimeEnter, 0))}}}
	allocs := func(n int) float64 {
		ix := NewIndexWithShards("scan", 4)
		evs := make([]event.Event, n)
		for i := range evs {
			evs[i] = event.Event{Session: "s", Syscall: "read", TimeEnterNS: int64(1_000 + i)}
		}
		if err := ix.AddEvents(evs); err != nil {
			t.Fatal(err)
		}
		if got := ix.Count(q); got != n {
			t.Fatalf("count %d of %d rows", got, n)
		}
		return testing.AllocsPerRun(20, func() { ix.Count(q) })
	}
	small, large := allocs(1_000), allocs(4_000)
	if large > small+16 {
		t.Fatalf("Count over 4 000 rows allocates %.0f, over 1 000 %.0f", large, small)
	}
}

// TestTagTermAllocsFlat: a file_tag term compiles its strings to tags once
// and compares each row's packed tag in place, rendering none: Count of a
// tag term over 4 000 tagged rows on 4 shards allocates within 16 of the
// same Count over 1 000. Each string matches exactly the rows whose tag
// renders as it, so a malformed or non-canonical one matches none.
func TestTagTermAllocsFlat(t *testing.T) {
	terms := []string{"1 3 7", "1 4 7", "01 3 7", "1  3 7", " 1 3 7", "1 3", "0 0 0", "", "x y z"}
	q := Terms(FieldFileTag, "1 3 7", "2 9 7")
	allocs := func(n int) float64 {
		ix := NewIndexWithShards("tags", 4)
		evs := make([]event.Event, n)
		for i := range evs {
			evs[i] = event.Event{Session: "s", Syscall: "read", FileTag: event.FileTag{Dev: 1, Ino: uint64(3 + i%2), BirthNS: 7}, TimeEnterNS: int64(1_000 + i)}
		}
		if err := ix.AddEvents(evs); err != nil {
			t.Fatal(err)
		}
		for _, term := range terms {
			want := 0
			for i := range evs {
				if evs[i].FileTag.String() == term {
					want++
				}
			}
			if got := ix.Count(Term(FieldFileTag, term)); got != want {
				t.Fatalf("term %q counts %d of %d rows, want %d", term, got, n, want)
			}
		}
		if got := ix.Count(q); got != (n+1)/2 {
			t.Fatalf("count %d of %d rows, want %d", got, n, (n+1)/2)
		}
		return testing.AllocsPerRun(20, func() { ix.Count(q) })
	}
	small, large := allocs(1_000), allocs(4_000)
	if large > small+16 {
		t.Fatalf("a tag term's Count over 4 000 rows allocates %.0f, over 1 000 %.0f", large, small)
	}
}

// TestRangeIntervalMatchesBounds: the interval a range clause compiles to
// admits exactly the integers the oracle's four-bound test does, the ends of
// int64 included, where a strict bound at an end admits nothing.
func TestRangeIntervalMatchesBounds(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	pick := func(rng *rand.Rand) *int64 {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			v := edges[rng.Intn(len(edges))]
			return &v
		}
		v := int64(rng.Intn(11) - 5)
		return &v
	}
	rng := rand.New(rand.NewSource(55))
	for range 20_000 {
		r := &RangeQuery{GTE: pick(rng), LTE: pick(rng), GT: pick(rng), LT: pick(rng)}
		lo, hi := r.interval()
		for _, v := range append(edges, int64(rng.Intn(11)-5)) {
			if got := lo <= v && v <= hi; got != r.contains(v) {
				t.Fatalf("%s: [%d, %d] admits %d: %v, the bounds %v", jsonOf(r), lo, hi, v, got, !got)
			}
		}
	}
}
