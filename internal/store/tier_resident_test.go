package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/durable"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Tests for the resident segment set: cold queries read shards that were
// read, verified and decoded once, those shards follow the path book, and
// they leave the set exactly when their segments leave the manifest.

// residentState returns the sequences the index's resident set holds, in
// order, and checks its byte account against the decoded segments it holds
// and the budget.
func residentState(t *testing.T, ix *Index) []int {
	t.Helper()
	rs := &ix.dur.resident
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var seqs []int
	var sum int64
	for seq, e := range rs.bySeq {
		seqs = append(seqs, seq)
		e.cs.sh.mu.RLock()
		size := e.cs.size()
		e.cs.sh.mu.RUnlock()
		if e.bytes != size {
			t.Fatalf("segment %d accounted at %d bytes, holds %d", seq, e.bytes, size)
		}
		sum += e.bytes
	}
	sort.Ints(seqs)
	if sum != rs.bytes {
		t.Fatalf("resident set accounts %d bytes, its entries %d", rs.bytes, sum)
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

// TestResidentSegmentsOverBudget shrinks one index's budget, in decoded
// bytes, below its compacted segment and to two of its three small ones. The
// large segment still answers, decoding only its window's rows per query, but
// is never retained, and the small ones are evicted least recently used.
func TestResidentSegmentsOverBudget(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithQueryCache(0))
	defer st.Close()
	reg := st.Telemetry()
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
	// A small segment decodes to rows × rowBytes, and its one column and
	// order add a few percent; the compacted one to four times that.
	small := rows * rowBytes
	ix.dur.resident.budget = 2*small + small/2
	if int64(segs[0].EndRow-segs[0].StartRow)*rowBytes <= ix.dur.resident.budget {
		t.Fatalf("fixture: compacted segment %+v fits the budget %d", segs[0], ix.dur.resident.budget)
	}
	fix, _ := mem.GetIndex(windowIndex)
	decoded := reg.Counter(telemetry.MetricSegRowsDecoded, "")
	skipped := reg.Counter(telemetry.MetricSegRowsSkipped, "")
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
	// A compacted round decodes its window and skips the other three rounds'
	// rows, every time; a small one decodes whole at a fill, then nothing.
	seq := func(i int) int { return segs[i].Seq }
	for _, step := range []struct {
		round            int
		want             []int
		decoded, skipped int64
	}{
		{0, nil, rows, 3 * rows},                   // the compacted segment answers, unretained
		{4, []int{seq(1)}, rows, 0},                // first small segment
		{5, []int{seq(1), seq(2)}, rows, 0},        // second; the budget is full
		{4, []int{seq(1), seq(2)}, 0, 0},           // a hit: segment 1 is now the most recent
		{6, []int{seq(1), seq(3)}, rows, 0},        // the third evicts segment 2, least recently used
		{2, []int{seq(1), seq(3)}, rows, 3 * rows}, // the compacted segment again: still unretained
		{6, []int{seq(1), seq(3)}, 0, 0},
	} {
		d0, s0 := decoded.Value(), skipped.Value()
		round(step.round)
		if d, s := int64(decoded.Value()-d0), int64(skipped.Value()-s0); d != step.decoded || s != step.skipped {
			t.Fatalf("a read of round %d decoded %d rows and skipped %d, want %d and %d", step.round, d, s, step.decoded, step.skipped)
		}
		if got := residentState(t, ix); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after a read of round %d: resident %v, want %v", step.round, got, step.want)
		}
	}
}

// TestCorruptColdSegmentFailsQuery states the cold tier's integrity contract.
// A segment's bytes are verified once, by the first read after Open: the
// whole-file CRC, the header and the column directory. A segment corrupted on
// disk before that read fails the query with durable.ErrCorruptSegment rather
// than answer. From then on the rows served are those decoded from the
// verified image, the same guarantee a hot row has: a later change to the
// file is not seen.
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

// TestResidentSegmentsFollowTheBook: a correlation pass names cold rows by
// adding to the path book, never by writing them. A segment made resident
// before the pass is decoded again, named by the new book, by the next window
// read, while the rows of the entry it replaces stay unnamed, though the
// pass tallied them and a concurrent reader shared them throughout. Run
// under -race.
func TestResidentSegmentsFollowTheBook(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithQueryCache(0))
	defer st.Close()
	const rows, path = 200, "/var/log/app.log"
	at := time.Now().UnixNano()
	tag := event.FileTag{Dev: 8, Ino: 42, BirthNS: 7}
	evs := make([]event.Event, rows)
	for i := range evs {
		evs[i] = event.Event{Session: "s", Syscall: "write", FileTag: tag, TimeEnterNS: at + int64(i)*1000, TimeExitNS: at + int64(i)*1000 + 1}
	}
	evs[0].Syscall, evs[0].KernelPath = "openat", path
	if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ix, _ := st.GetIndex(windowIndex)
	if coldRows(ix) != rows {
		t.Fatalf("fixture: %d cold rows, want %d", coldRows(ix), rows)
	}
	// window reads rows [1, rows) and reports how many of them carry path.
	window := func() (int, error) {
		resp, err := st.SearchEvents(ctx, windowIndex, SearchRequest{
			Query: Must(Term(FieldSyscall, "write"), RangeBetween(FieldTimeEnter, float64(at+1000), float64(at+rows*1000))), Size: -1})
		if err == nil && resp.Total != rows-1 {
			err = fmt.Errorf("total %d, want %d", resp.Total, rows-1)
		}
		named := 0
		for i := range resp.Hits {
			if resp.Hits[i].FilePath == path {
				named++
			}
		}
		return named, err
	}
	if named, err := window(); err != nil || named != 0 {
		t.Fatalf("before the pass: %d of %d rows named (%v)", named, rows-1, err)
	}
	seq := (*ix.dur.segs.Load())[0].Seq
	ix.dur.resident.mu.Lock()
	held := ix.dur.resident.bySeq[seq].cs
	ix.dur.resident.mu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			// Each read is named by one book: none of its rows, or all.
			if named, err := window(); err != nil || named != 0 && named != rows-1 {
				t.Errorf("during the pass: %d of %d rows named (%v)", named, rows-1, err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	res, err := st.Correlate(ctx, windowIndex, "s")
	close(done)
	wg.Wait()
	if err != nil || res.EventsUpdated != rows {
		t.Fatalf("pass: %+v (%v), want all %d rows updated", res, err, rows)
	}
	if named, err := window(); err != nil || named != rows-1 {
		t.Fatalf("after the pass: %d of %d rows named (%v)", named, rows-1, err)
	}
	for k := range held.gids {
		if p := held.sh.rows.at(k).FilePath; p != "" {
			t.Fatalf("the entry resident before the pass had its row %d written: file_path %q", k, p)
		}
	}
	ix.dur.resident.mu.Lock()
	replaced := ix.dur.resident.bySeq[seq].cs != held
	ix.dur.resident.mu.Unlock()
	if !replaced {
		t.Fatal("the entry named by the old book is still resident")
	}
}

// TestResidentSegmentsAccountTheirBytes: the resident set's byte account,
// taken from the types at a fill and again as columns, orders and code
// columns are built, is the heap the decoded segments actually hold, within
// a quarter.
func TestResidentSegmentsAccountTheirBytes(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithQueryCache(0))
	defer st.Close()
	const segments, rows = 4, 5000
	at := int64(1687859999000000000) &^ (1<<20 - 1) // the window bounds below are exact in float64
	syscalls := []string{"read", "write", "pread64", "openat", "close"}
	for s := 0; s < segments; s++ {
		evs := make([]event.Event, rows)
		for i := range evs {
			ts := at + int64(s)*1e9 + int64(i)*1000
			evs[i] = event.Event{Session: "acct", Syscall: syscalls[i%len(syscalls)], ThreadName: fmt.Sprintf("w%d", i%4),
				PID: 100, TID: 101 + i%4, RetVal: int64(i), TimeEnterNS: ts, TimeExitNS: ts + 700}
		}
		if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	ix, _ := st.GetIndex(windowIndex)
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache too
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	for s := 0; s < segments; s++ {
		lo := float64(at + int64(s)*1e9)
		resp, err := st.Search(ctx, windowIndex, SearchRequest{
			Query: Must(Term(FieldSession, "acct"), RangeBetween(FieldTimeEnter, lo, lo+1e6)),
			Sort:  []SortField{{Field: FieldTimeEnter}}, Size: 10,
			Aggs: map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}}})
		if err != nil || resp.Total != 1001 {
			t.Fatalf("segment %d: total %d (%v)", s, resp.Total, err)
		}
	}
	grown := heap() - before
	if got := residentState(t, ix); len(got) != segments {
		t.Fatalf("resident %v, want all %d segments", got, segments)
	}
	acct := ix.dur.resident.size()
	if acct < grown*3/4 || acct > grown*5/4 {
		t.Fatalf("resident set accounts %d bytes; the heap grew by %d", acct, grown)
	}
	t.Logf("accounted %d bytes, heap grew by %d (%.2f)", acct, grown, float64(acct)/float64(grown))
}

// TestDurableResidentFillIsSingleFlight: eight queries that read one
// segment for the first time together decode it once. The file is read and
// verified once, its rows are decoded once, and the eight answers are equal.
// Run under -race.
func TestDurableResidentFillIsSingleFlight(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithQueryCache(0))
	defer st.Close()
	const rows, readers = 20000, 8
	at := time.Now().UnixNano()
	evs := make([]event.Event, rows)
	for i := range evs {
		ts := at + int64(i)*1000
		evs[i] = event.Event{Session: "fill", Syscall: []string{"read", "write", "openat"}[i%3],
			ThreadName: fmt.Sprintf("w%d", i%4), TimeEnterNS: ts, TimeExitNS: ts + 1}
	}
	if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ix, _ := st.GetIndex(windowIndex)
	if coldRows(ix) != rows {
		t.Fatalf("fixture: %d cold rows, want %d", coldRows(ix), rows)
	}
	v0, d0 := ix.rtm.segVerified.Value(), ix.rtm.rowsDecoded.Value()
	req := SearchRequest{Query: Must(Term(FieldSession, "fill"), RangeBetween(FieldTimeEnter, float64(at), float64(at+rows/2*1000))),
		Sort: []SortField{{Field: FieldTimeEnter}}, Size: 10,
		Aggs: map[string]Agg{"by_syscall": {Terms: &TermsAgg{Field: FieldSyscall}}}}
	answers := make([]string, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range answers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			resp, err := st.Search(ctx, windowIndex, req)
			if err != nil || resp.Total != rows/2+1 {
				t.Errorf("reader %d: total %d (%v), want %d", g, resp.Total, err, rows/2+1)
				return
			}
			answers[g] = jsonOf(resp)
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if v, d := ix.rtm.segVerified.Value()-v0, ix.rtm.rowsDecoded.Value()-d0; v != 1 || d != rows {
		t.Fatalf("%d first reads verified %d segments and decoded %d rows, want 1 and %d", readers, v, d, rows)
	}
	for g, a := range answers {
		if a != answers[0] {
			t.Fatalf("reader %d answered\n%s\nreader 0\n%s", g, a, answers[0])
		}
	}
}

// TestColdTermRunIsAccounted: a time-sorted page of one of two sessions over
// a resident cold segment builds that session's run on the segment, and no
// time order. The segment's byte account grows by 12 B per run entry (an id
// and its value), and a later page, resumed and descending, adds nothing.
func TestColdTermRunIsAccounted(t *testing.T) {
	ctx := context.Background()
	st := openDurable(t, t.TempDir(), WithShards(1), WithQueryCache(0))
	defer st.Close()
	const rows = 150
	evs := append(residentRound("a", 0, orderBase, rows), residentRound("b", 0, orderBase, rows)...)
	if err := st.BulkEvents(ctx, windowIndex, evs); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ix, _ := st.GetIndex(windowIndex)
	accounted := func() int64 {
		t.Helper()
		if got := residentState(t, ix); len(got) != 1 {
			t.Fatalf("resident %v, want the one segment", got)
		}
		return ix.dur.resident.size()
	}
	// A windowed count opens the segment and builds its time column alone.
	if n := ix.Count(RangeGTE(FieldTimeEnter, orderBase)); n != 2*rows {
		t.Fatalf("count %d, want %d", n, 2*rows)
	}
	before := accounted()
	req := SearchRequest{Query: Term(FieldSession, "a"), Sort: []SortField{{Field: FieldTimeEnter}}, Size: 10}
	res, err := st.SearchEvents(ctx, windowIndex, req)
	if err != nil || res.Total != rows || res.NextAfter == nil {
		t.Fatalf("page: total %d, next %v (%v)", res.Total, res.NextAfter, err)
	}
	if grown := accounted() - before; grown != 12*rows {
		t.Fatalf("the sorted page grew the segment's account by %d bytes, want %d (12 per run entry)", grown, 12*rows)
	}
	rs := &ix.dur.resident
	rs.mu.Lock()
	for _, e := range rs.bySeq {
		if c := e.cs.sh.cols[FieldTimeEnter]; c.order != nil || len(e.cs.sh.runs) != 1 {
			t.Errorf("the segment holds order %v and %d runs, want the session's run alone", c.order != nil, len(e.cs.sh.runs))
		}
	}
	rs.mu.Unlock()
	after := accounted()
	req.SearchAfter, req.Sort[0].Desc = res.NextAfter, true
	if _, err := st.SearchEvents(ctx, windowIndex, req); err != nil {
		t.Fatal(err)
	}
	if got := accounted(); got != after {
		t.Fatalf("a later page moved the account from %d to %d bytes", after, got)
	}
}
