package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// typedBodySeeds collects real typed bodies off a live server: _search and
// _scatter answers with no hits, with aggregations only, with a continuation
// token, with sparse row ids (a sorted scatter), and with strings at the
// frame's 65 535-byte limit.
func typedBodySeeds(tb testing.TB) [][]byte {
	tb.Helper()
	st := memStore(tb)
	evs := cursorFixture(40)
	evs[7].FilePath = strings.Repeat("x", 0xFFFF)
	evs[7].KernelPath = strings.Repeat("k", 0xFFFF)
	if err := st.BulkEvents(context.Background(), "run", evs); err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	post := func(op string, body any) []byte {
		raw, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/run/"+op, bytes.NewReader(raw))
		req.Header.Set("Accept", event.ContentTypeBinaryV2)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		img, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != event.ContentTypeBinaryV2 {
			tb.Fatalf("%s: status %d, content type %q, %v", op, resp.StatusCode, resp.Header.Get("Content-Type"), err)
		}
		return img
	}
	aggs := map[string]Agg{"timeline": timelineAgg(10_000), "size": {Stats: &StatsAgg{Field: FieldRetVal}}}
	byTime := []SortField{{Field: FieldSyscall}, {Field: FieldTimeEnter, Desc: true}}
	var seeds [][]byte
	for _, req := range []SearchRequest{
		{Query: Term(FieldSession, "nobody"), Size: 5},
		{Query: MatchAll(), Size: 1, From: 90, Aggs: aggs},
		{Query: Term(FieldSession, "s1"), Size: 4, Sort: byTime},
		{Query: Term(FieldSession, "s3"), Size: -1},
	} {
		seeds = append(seeds,
			post("_search", req),
			post("_scatter", ScatterRequest{Req: req, Partition: 1, Partitions: 3}))
	}
	return seeds
}

// FuzzTypedHitsBody fuzzes the one decoder of typed hit bodies, the _search
// and the _scatter ones alike: arbitrary bytes fail with ErrBadHitsBody or
// decode to a body whose own encoding decodes back to the same envelope and
// the same events.
func FuzzTypedHitsBody(f *testing.F) {
	for _, img := range typedBodySeeds(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeHitsBody(data)
		if err != nil {
			if !errors.Is(err, ErrBadHitsBody) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		img, err := b.encode(nil)
		if err != nil {
			t.Fatalf("re-encode a decoded body: %v", err)
		}
		b2, err := decodeHitsBody(img)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		img2, err := b2.encode(nil)
		if err != nil || !bytes.Equal(img, img2) || !reflect.DeepEqual(b.Hits, b2.Hits) {
			t.Fatalf("round trip changed the body (%v):\n first  %q\n second %q", err, img, img2)
		}
	})
}

// TestTypedHitsBodyRejectsMalformed walks the decoder's refusals on a real
// body: each is typed, and none allocates on the word of a length field.
func TestTypedHitsBodyRejectsMalformed(t *testing.T) {
	seeds := typedBodySeeds(t)
	search, scatter := seeds[4], seeds[5] // the sorted page: four hits, a token, sparse gids
	for i, img := range seeds {
		b, err := decodeHitsBody(img)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if i%2 == 1 && len(b.Gids) != len(b.Hits) {
			t.Fatalf("scatter seed %d: %d gids for %d hits", i, len(b.Gids), len(b.Hits))
		}
	}
	if b, _ := decodeHitsBody(search); len(b.Hits) != 4 || b.NextAfter == nil || b.Gids != nil {
		t.Fatalf("search seed decoded to %+v", b)
	}
	envLen := int(binary.LittleEndian.Uint32(scatter))
	reEnvelope := func(env string) []byte {
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(env)))
		return append(append(out, env...), scatter[4+envLen:]...)
	}
	hugeCount := append([]byte(nil), search[:4+int(binary.LittleEndian.Uint32(search))+9]...)
	binary.LittleEndian.PutUint32(hugeCount[len(hugeCount)-4:], 1<<26)
	for name, img := range map[string][]byte{
		"empty":                        nil,
		"length prefix past the body":  binary.LittleEndian.AppendUint32(nil, 1<<31),
		"envelope not JSON":            reEnvelope(`{"total":`),
		"envelope with a wrong type":   reEnvelope(`{"total":"4"}`),
		"fewer gids than hits":         reEnvelope(`{"total":4,"gids":[1,2]}`),
		"trailing bytes":               append(append([]byte(nil), search...), 0),
		"truncated frame":              search[:len(search)-3],
		"a JSON answer":                []byte(`{"total":0,"hits":[]}` + "\n"),
		"frame count without the rows": hugeCount,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeHitsBody(img)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadHitsBody) {
			t.Errorf("%s: err = %v, want ErrBadHitsBody", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(img)+4096) {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(img), grew)
		}
	}
}

// TestMergeScattersOrdersInsideOneUlp: nanosecond sort keys that differ but
// share one float64 are still different keys. A node orders them exactly, and
// so must the coordinator, which reads its keys off the events: its merge
// must land on the node's exact time order and the node's tokens, page after
// page.
func TestMergeScattersOrdersInsideOneUlp(t *testing.T) {
	const P, n = 3, 41
	evs := make([]event.Event, n)
	for i := range evs {
		// Descending by nanosecond, ascending by row: time order is the
		// reverse of row order, which a float64 compare would fall back to.
		evs[i] = event.Event{Session: "ulp", Syscall: "read", TimeEnterNS: 1687859999123456789 + int64(n-i), RetVal: int64(i)}
	}
	if float64(evs[0].TimeEnterNS) != float64(evs[n-1].TimeEnterNS) {
		t.Fatal("fixture keys do not share one float64")
	}
	single := NewIndexWithShards("single", 4)
	single.AddEvents(evs)
	parts := make([]*Index, P)
	for p := range parts {
		parts[p] = NewIndexWithShards("part", 2)
	}
	for g := range evs {
		parts[g%P].AddEvents(evs[g : g+1])
	}
	for _, desc := range []bool{false, true} {
		req := SearchRequest{Query: MatchAll(), Size: 7, Sort: []SortField{{Field: FieldTimeEnter, Desc: desc}}}
		rows := 0
		for page := 0; ; page++ {
			want, err := single.searchEventsCtx(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			resps := make([]ScatterResponse, P)
			for p := range parts {
				if resps[p], err = parts[p].scatterCtx(context.Background(), ScatterRequest{Req: req, Partition: p, Partitions: P}); err != nil {
					t.Fatal(err)
				}
			}
			got := MergeScatters(req, resps)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("desc=%v page %d: coordinator diverged from the node\n node  %+v\n merge %+v", desc, page, want, got)
			}
			for i, e := range got.Hits {
				// Ascending time is descending row, and descending time
				// ascending row.
				want := int64(page*req.Size + i)
				if !desc {
					want = n - 1 - want
				}
				if e.RetVal != want {
					t.Fatalf("desc=%v page %d: hit %d is row %d, want row %d", desc, page, i, e.RetVal, want)
				}
			}
			if rows += len(got.Hits); got.NextAfter == nil {
				break
			}
			req.SearchAfter = got.NextAfter
		}
		if rows != n {
			t.Fatalf("desc=%v: the pages held %d rows, want %d", desc, rows, n)
		}
	}
}
