package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
)

// Tests for the resident segment set: cold queries decode from readers that
// were read and verified once, and those readers leave the set exactly when
// their segments leave the manifest.

// residentState returns the sequences the index's resident set holds, in
// order, and checks its byte account against the readers it holds and the
// budget.
func residentState(t *testing.T, ix *Index) []int {
	t.Helper()
	rs := &ix.dur.resident
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var seqs []int
	var sum int64
	for seq, e := range rs.bySeq {
		seqs = append(seqs, seq)
		sum += e.r.Info().Bytes
	}
	sort.Ints(seqs)
	if sum != rs.bytes {
		t.Fatalf("resident set accounts %d bytes, holds readers of %d", rs.bytes, sum)
	}
	if rs.bytes > rs.budget {
		t.Fatalf("resident set holds %d bytes, budget %d", rs.bytes, rs.budget)
	}
	return seqs
}

// residentRound is one round of rows of session at time base at: 1 ms of
// trace per round, stamps distinct and unsorted inside it (rows <= 180).
func residentRound(session string, r int, at int64, rows int) []event.Event {
	rng := rand.New(rand.NewSource(int64(r)))
	evs := make([]event.Event, rows)
	for i := range evs {
		ts := at + int64(r)*1_000_000 + int64((i*7919)%rows)*5000
		evs[i] = event.Event{
			Session: session, Syscall: []string{"read", "write", "openat"}[rng.Intn(3)],
			RetVal: int64(r*1000 + i), TimeEnterNS: ts, TimeExitNS: ts + 1,
		}
	}
	return evs
}

// TestResidentSegmentsUnderMaintenance runs cold window searches and sorted
// EachEventPage walks while another goroutine snapshots, compacts and sweeps
// retention over the same index. Every answer must be the oracle's: the
// windows lie in the recent part of the history, which retention never
// drops, and the maintenance rows belong to another session. (Those rows do
// shift global ids, so a response is compared without its cursor.) Afterwards the
// resident set must hold only segments the manifest lists, within budget.
// Run under -race.
func TestResidentSegmentsUnderMaintenance(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithRetention(time.Hour), WithQueryCache(0))
	defer st.Close()
	mem := memStore(t)
	defer mem.Close()
	now := time.Now().UnixNano()
	recent, stale := now-int64(time.Minute), now-3*int64(time.Hour)
	const rows = 120
	var times []int64
	bulk := func(evs []event.Event, oracle bool) {
		t.Helper()
		if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
			t.Fatal(err)
		}
		if !oracle {
			return
		}
		if err := mem.BulkEvents(ctx, windowIndex, evs); err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			times = append(times, e.TimeEnterNS)
		}
	}
	// Eight flushed rounds, one segment each, two of them stale; one hot.
	for r := 0; r < 8; r++ {
		if r%4 == 2 {
			bulk(residentRound("win", r, stale, rows), false)
		} else {
			bulk(residentRound("win", r, recent, rows), true)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	bulk(residentRound("win", 8, recent, rows), true)

	fix, _ := mem.GetIndex(windowIndex)
	answer := func(r SearchResponse) string { return jsonOf([]any{r.Total, r.Hits, r.Aggs}) }
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	rng := rand.New(rand.NewSource(29))
	type ask struct {
		req      SearchRequest
		want     string
		walkWant []Document
	}
	asks := make([]ask, 16)
	for i := range asks {
		lo := rng.Intn(len(times))
		hi := min(lo+rng.Intn(3*rows), len(times)-1)
		q := Must(Term(FieldSession, "win"), RangeBetween(FieldTimeEnter, float64(times[lo]), float64(times[hi])))
		sorted := []SortField{{Field: FieldTimeEnter, Desc: i%2 == 1}}
		req := SearchRequest{Query: q, Sort: sorted, Size: 10,
			Aggs: map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}}}
		all := oracleSearch(fix, SearchRequest{Query: q, Sort: sorted, Size: -1})
		asks[i] = ask{req, answer(oracleSearch(fix, req)), all.Hits}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < 12; k++ {
			at := recent
			if k%2 == 0 {
				at = stale
			}
			if err := st.BulkEvents(ctx, windowIndex, residentRound("other", 100+k, at, rows)); err != nil {
				t.Error(err)
				return
			}
			if err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= len(asks) {
					select {
					case <-done:
						return
					default:
					}
				}
				a := asks[(i+g*5)%len(asks)]
				if i%3 == 0 {
					var walked []Document
					err := EachEventPage(ctx, st, windowIndex, SearchRequest{Query: a.req.Query, Sort: a.req.Sort}, 16,
						func(p EventsResult) error {
							for k := range p.Hits {
								walked = append(walked, EventToDoc(&p.Hits[k]))
							}
							return nil
						})
					if err != nil || !reflect.DeepEqual(walked, a.walkWant) {
						t.Errorf("goroutine %d, ask %d: paged walk of %d rows (%v), oracle %d", g, i, len(walked), err, len(a.walkWant))
						return
					}
					continue
				}
				got, err := st.Search(ctx, windowIndex, a.req)
				if err != nil || answer(got) != a.want {
					t.Errorf("goroutine %d, ask %d: search diverged from the oracle (%v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if st.dtm.compactions.Value() == 0 || st.dtm.retentionDrops.Value() == 0 {
		t.Fatalf("fixture: %d compactions, %d retention drops during the run; want both",
			st.dtm.compactions.Value(), st.dtm.retentionDrops.Value())
	}
	ix, _ := st.GetIndex(windowIndex)
	m, ok, err := durable.LoadManifest(ix.dur.dir)
	if err != nil || !ok {
		t.Fatalf("load manifest: ok=%v err=%v", ok, err)
	}
	listed := map[int]bool{}
	for _, sm := range m.Segments {
		listed[sm.Seq] = true
	}
	seqs := residentState(t, ix)
	if len(seqs) == 0 {
		t.Fatal("no segment stayed resident after the cold reads")
	}
	for _, seq := range seqs {
		if !listed[seq] {
			t.Fatalf("resident set holds segment %d, which the manifest %v no longer lists", seq, m.Segments)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs := residentState(t, ix); len(seqs) != 0 {
		t.Fatalf("Close left segments %v resident", seqs)
	}
}

// TestResidentSegmentsOverBudget shrinks one index's budget below its
// compacted segment and to two of its three small ones. The large segment
// still answers but is never retained, and the small ones are evicted least
// recently used.
func TestResidentSegmentsOverBudget(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithQueryCache(0))
	defer st.Close()
	mem := memStore(t)
	defer mem.Close()
	const rows = 180
	at := time.Now().UnixNano()
	// Four rounds compact into one level-1 segment; three more stay level 0.
	for r := 0; r < 7; r++ {
		evs := residentRound("win", r, at, rows)
		for _, s := range []*Store{st, mem} {
			if err := s.BulkEvents(ctx, windowIndex, evs); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if r == 3 {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix, _ := st.GetIndex(windowIndex)
	segs := *ix.dur.segs.Load()
	if len(segs) != 4 || segs[0].Level != 1 {
		t.Fatalf("fixture: segments %+v, want one level-1 and three level-0", segs)
	}
	small := segs[1].Bytes
	for _, sm := range segs[2:] {
		small = max(small, sm.Bytes)
	}
	ix.dur.resident.budget = 2*small + small/2
	if segs[0].Bytes <= ix.dur.resident.budget {
		t.Fatalf("fixture: compacted segment of %d bytes fits the budget %d", segs[0].Bytes, ix.dur.resident.budget)
	}
	fix, _ := mem.GetIndex(windowIndex)
	// Round r's rows lie in [at + r ms, at + r ms + 0.9 ms), well inside the window
	// queried for it.
	round := func(r int) {
		t.Helper()
		lo := float64(at + int64(r)*1_000_000)
		req := SearchRequest{Query: Must(Term(FieldSession, "win"), RangeBetween(FieldTimeEnter, lo, lo+950_000)),
			Sort: []SortField{{Field: FieldTimeEnter}}, Size: 10}
		got, err := st.Search(ctx, windowIndex, req)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if g, w := jsonOf(got), jsonOf(oracleSearch(fix, req)); g != w {
			t.Fatalf("round %d:\n got %s\nwant %s", r, g, w)
		}
	}
	seq := func(i int) int { return segs[i].Seq }
	for _, step := range []struct {
		round int
		want  []int
	}{
		{0, nil},                   // the compacted segment answers, unretained
		{4, []int{seq(1)}},         // first small segment
		{5, []int{seq(1), seq(2)}}, // second; the budget is full
		{4, []int{seq(1), seq(2)}}, // a hit: segment 1 is now the most recent
		{6, []int{seq(1), seq(3)}}, // the third evicts segment 2, least recently used
		{2, []int{seq(1), seq(3)}}, // the compacted segment again: still unretained
		{6, []int{seq(1), seq(3)}},
	} {
		round(step.round)
		if got := residentState(t, ix); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after a read of round %d: resident %v, want %v", step.round, got, step.want)
		}
	}
}

// TestCorruptColdSegmentFailsQuery states the cold tier's integrity contract.
// A segment's bytes are verified once, by the first read after Open: the
// whole-file CRC, the header and the column directory. A segment corrupted on
// disk before that read fails the query with durable.ErrCorruptSegment rather
// than answer. From then on the rows served are the verified in-memory image,
// the same guarantee a hot row has: a later change to the file is not seen.
func TestCorruptColdSegmentFailsQuery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	at := time.Now().UnixNano()
	st := openDurable(t, dir)
	for r := 0; r < 2; r++ {
		if err := st.BulkEvents(ctx, windowIndex, residentRound("win", r, at, 100)); err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openDurable(t, dir, WithQueryCache(0))
	defer st.Close()
	ix, _ := st.GetIndex(windowIndex)
	segs := *ix.dur.segs.Load()
	if len(segs) != 2 {
		t.Fatalf("fixture: %d segments, want 2", len(segs))
	}
	query := func(r int) (SearchResponse, error) {
		lo := float64(at + int64(r)*1_000_000)
		return st.Search(ctx, windowIndex, SearchRequest{
			Query: Must(Term(FieldSession, "win"), RangeBetween(FieldTimeEnter, lo, lo+950_000)), Size: -1})
	}
	before, err := query(0)
	if err != nil || before.Total != 100 {
		t.Fatalf("round 0 before corruption: total %d (%v)", before.Total, err)
	}
	for _, sm := range segs {
		path := filepath.Join(ix.dur.dir, durable.SegmentName(sm.Seq))
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img[len(img)/2] ^= 0x40
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := query(1); !errors.Is(err, durable.ErrCorruptSegment) {
		t.Fatalf("round 1 from a segment corrupted before its first read: total %d, err %v; want ErrCorruptSegment", resp.Total, err)
	}
	after, err := query(0)
	if err != nil || jsonOf(after) != jsonOf(before) {
		t.Fatalf("round 0 from its verified resident image: %v; the answer changed", err)
	}
	if got := residentState(t, ix); !reflect.DeepEqual(got, []int{segs[0].Seq}) {
		t.Fatalf("resident %v, want only the segment verified before the corruption (%d)", got, segs[0].Seq)
	}
}
