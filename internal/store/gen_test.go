package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// The generated differential: one seeded generator draws the rows
// (genRows) and the requests (genRequest) from shared value pools, so that
// terms, bounds and cursors land on values the rows hold, and every request
// is checked against the oracle (oracle_test.go) on every layout the rows
// take (genFixture). Two relations of Rigger and Su need no oracle: ternary
// logic partitioning (a count splits exactly over a predicate and its
// negation) and pivoted query synthesis (a query built to match a stored
// row returns it). A failing check shrinks to a small case, printed as a Go
// literal to keep as a regression.

const genIndex = "gen"

// The pools: every string a row holds and a request asks for ("", a
// decimal string, "<nil>", names, two paths one a prefix of the other), the
// prefixes asked for (of those and of a rendered file tag), and every
// integer a row holds beside its stamps (absent zero, small values, the
// int32 edges and one past them, float64's last exact integer and one past,
// the int64 edges).
var (
	genStrings  = []string{"", "s0", "s1", "5", "<nil>", "read", "write", "openat", "stat", "/p/q", "/p/q2"}
	genPrefixes = []string{"", "s", "s1", "/p", "/p/q", "<", "r", "5", "8 ", "9 1"}
	genInts     = []int64{0, 1, -1, 5, 7, 512, 4096, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1,
		math.MinInt32 - 1, 1<<32 + 5, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
)

// genStamp is stamp step k, 3 ns past orderBase per step: float64's ulp is
// 256 ns there, so about 85 distinct stamps share each float64. Rows walk
// the steps; requests draw bounds and cursors from the first genStamps.
func genStamp(k int) int64 { return orderBase + 3*int64(k) }

const genStamps = 640

// genKinds and genFields are every schema field and one name it lacks, by
// the kind the schema table gives each (kindName).
var (
	genKinds  = []string{"keyword", "string", "tag", "time", "int", "flag", "unknown"}
	genFields = func() map[string][]string {
		out := map[string][]string{}
		for _, f := range append(event.Fields(), "no_such_field") {
			out[kindName(f)] = append(out[kindName(f)], f)
		}
		return out
	}()
)

// genField draws a kind, then a field of it: every kind is as likely as any
// other however many fields it has.
func genField(rng *rand.Rand) string { return pick(rng, genFields[pick(rng, genKinds)]) }

// pick draws one of vs; ptr points at a copy of v.
func pick[T any](rng *rand.Rand, vs []T) T { return vs[rng.Intn(len(vs))] }

func ptr[T any](v T) *T { return &v }

// genEvent draws an event stamped at stamp, every field from the pools:
// strings often empty, integers zero where zero is absent, offsets with and
// without has_offset, a zero tag or one of a few reused ones, and one time
// in thirty int64 edges for times.
func genEvent(rng *rand.Rand, stamp int64) event.Event {
	str := func() string { return pick(rng, genStrings) }
	num := func() int64 { return pick(rng, genInts) }
	small := func() int {
		if rng.Intn(3) == 0 {
			return int(num())
		}
		return pick(rng, []int{0, 0, 1, 3, 5, 7, 512})
	}
	e := event.Event{
		Session: pick(rng, genStrings[:5]), Syscall: pick(rng, genStrings[4:9]), Class: str(),
		RetVal: num(), FD: small(), ArgPath: str(), ArgPath2: str(), Count: small(), ArgOff: num(),
		Whence: small(), Flags: small(), Mode: pick(rng, []uint32{0, 0o644, math.MaxUint32}),
		AttrName: str(), PID: small(), TID: small(), ProcName: pick(rng, genStrings[:3]), ThreadName: str(),
		TimeEnterNS: stamp, TimeExitNS: stamp + pick(rng, []int64{0, 3, 700}),
		FileType: str(), Offset: num(), HasOffset: rng.Intn(3) > 0, KernelPath: str(),
		FilePath: pick(rng, []string{"", "", "", "/p/q"}),
	}
	if rng.Intn(30) == 0 {
		e.TimeEnterNS, e.TimeExitNS = num(), num()
	}
	if rng.Intn(3) > 0 {
		e.FileTag = event.FileTag{Dev: pick(rng, []uint64{0, 8, 9}), Ino: pick(rng, []uint64{0, 1, 2, 100}), BirthNS: pick(rng, []int64{0, 5, stamp})}
	}
	return e
}

// genBatches draws n rows (none: one empty batch) from two streams whose
// stamps overlap, in batches of 1 to 48, alternating as two drain workers
// ship them. A stream's step mostly repeats or advances by one, sometimes
// steps back a little or jumps, so batches sort partly before rows already
// stored and equal stamps run across batches.
func genBatches(rng *rand.Rand, n int) [][]event.Event {
	k := [2]int{rng.Intn(20), rng.Intn(20)}
	var out [][]event.Event
	for rows := 0; rows < n || len(out) == 0; {
		w := len(out) % 2
		b := make([]event.Event, min(1+rng.Intn(48), n-rows))
		for i := range b {
			switch r := rng.Intn(10); {
			case r < 3:
			case r < 8:
				k[w]++
			case r < 9:
				k[w] -= rng.Intn(6)
			default:
				k[w] += rng.Intn(12)
			}
			b[i] = genEvent(rng, genStamp(k[w]))
		}
		out, rows = append(out, b), rows+len(b)
	}
	return out
}

// genRows draws a fixture's rows: none or a few one time in eight, more
// than two 512-row blocks' worth one time in eight, else 40 to 400.
func genRows(rng *rand.Rand) [][]event.Event {
	switch rng.Intn(8) {
	case 0:
		return genBatches(rng, pick(rng, []int{0, 1, 3}))
	case 1:
		return genBatches(rng, 1100+rng.Intn(400))
	}
	return genBatches(rng, 40+rng.Intn(360))
}

// genInt renders n in one of the forms a term value takes that hold it: an
// integer of any width, a float64, a JSON number or its decimal string.
func genInt(rng *rand.Rand, n int64) any {
	forms := []any{n, int(n), json.Number(strconv.FormatInt(n, 10)), strconv.FormatInt(n, 10)}
	if int64(int8(n)) == n {
		forms = append(forms, int8(n))
	}
	if int64(int16(n)) == n {
		forms = append(forms, int16(n))
	}
	if int64(int32(n)) == n {
		forms = append(forms, int32(n))
	}
	if n >= 0 && n <= math.MaxUint16 {
		forms = append(forms, uint16(n))
	}
	if n >= 0 {
		forms = append(forms, uint64(n))
	}
	if f := float64(n); f < math.MaxInt64 && int64(f) == n {
		forms = append(forms, f)
	}
	return pick(rng, forms)
}

// genNumber draws an integer for field: mostly a stamp step for the times,
// else one of genInts.
func genNumber(rng *rand.Rand, field string) int64 {
	if (field == FieldTimeEnter || field == FieldTimeExit) && rng.Intn(8) > 0 {
		return genStamp(rng.Intn(genStamps+8) - 4)
	}
	return pick(rng, genInts)
}

// genValue draws a term value: one of domainValues (one of every kind), a
// string rows hold, or an integer they hold in one of genInt's forms.
func genValue(rng *rand.Rand, field string) any {
	switch rng.Intn(4) {
	case 0:
		return pick(rng, domainValues)
	case 1:
		return pick(rng, genStrings)
	}
	return genInt(rng, genNumber(rng, field))
}

// genRange draws one bound or two, each strict or not, on or one beside a
// value rows hold; a pair may be empty.
func genRange(rng *rand.Rand, field string) *RangeQuery {
	bound := func() *int64 {
		n := genNumber(rng, field)
		if d := pick(rng, []int64{0, 0, 1, -1}); (d > 0 && n < math.MaxInt64) || (d < 0 && n > math.MinInt64) {
			n += d
		}
		return ptr(n)
	}
	r := &RangeQuery{Field: field}
	switch rng.Intn(3) {
	case 0:
		r.GT = bound()
	case 1:
		r.GTE = bound()
	}
	switch rng.Intn(3) {
	case 0:
		r.LT = bound()
	case 1:
		r.LTE = bound()
	}
	return r
}

// genQuery draws a term, terms, range, prefix or exists on a field of any
// kind; a bool of must, should and must_not lists, three deep at most and
// at the top one time in two; match_all; the zero query; the empty bool;
// and two clauses set, of which only the first in field order counts.
func genQuery(rng *rand.Rand, depth int) Query {
	f := genField(rng)
	r := rng.Intn(20)
	if depth == 0 && rng.Intn(2) == 0 {
		r = 12 // the bool case
	}
	switch {
	case r < 4:
		return Term(f, genValue(rng, f))
	case r < 6:
		vals := make([]any, 1+rng.Intn(4))
		for i := range vals {
			vals[i] = genValue(rng, f)
		}
		return Terms(f, vals...)
	case r < 9:
		if rng.Intn(5) < 2 {
			f = FieldTimeEnter
		}
		return Query{Range: genRange(rng, f)}
	case r < 10:
		return Prefix(f, pick(rng, genPrefixes))
	case r < 12:
		return Exists(f)
	case r < 16 && depth < 3:
		b := &BoolQuery{}
		for _, list := range []*[]Query{&b.Must, &b.Should, &b.MustNot} {
			for range rng.Intn(3) {
				*list = append(*list, genQuery(rng, depth+1))
			}
		}
		return Query{Bool: b}
	case r < 17:
		return MatchAll()
	case r < 18:
		q, o := genQuery(rng, 3), genQuery(rng, depth+1)
		q.Term, q.Terms, q.Range = either(q.Term, o.Term), either(q.Terms, o.Terms), either(q.Range, o.Range)
		q.Prefix, q.Exists, q.Bool = either(q.Prefix, o.Prefix), either(q.Exists, o.Exists), either(q.Bool, o.Bool)
		q.MatchAll = q.MatchAll || o.MatchAll
		return q
	case r < 19:
		return Query{Bool: &BoolQuery{}}
	}
	return Query{}
}

// either returns a unless it is nil, then b.
func either[T any](a, b *T) *T {
	if a != nil {
		return a
	}
	return b
}

// genAggs draws one to three aggregations of every kind: terms with and
// without a size, histograms at intervals from one ns up (one not positive
// counts as one), percentiles with default and explicit percents, stats;
// a bucketing one nests more, two levels deep.
func genAggs(rng *rand.Rand, depth int) map[string]Agg {
	out := map[string]Agg{}
	for i := range 1 + rng.Intn(3) {
		f := genField(rng)
		var a Agg
		switch rng.Intn(4) {
		case 0:
			a.Terms = &TermsAgg{Field: f, Size: pick(rng, []int{0, 0, 1, 3})}
		case 1:
			if rng.Intn(3) == 0 {
				f = FieldTimeEnter
			}
			a.DateHistogram = &DateHistogramAgg{Field: f, IntervalNS: pick(rng, []int64{0, -5, 1, 3, 7, 10, 256, 1000, 1 << 20, 1e9})}
		case 2:
			a.Percentiles = &PercentilesAgg{Field: f}
			if rng.Intn(2) == 0 {
				a.Percentiles.Percents = []float64{pick(rng, []float64{0, 1, 50}), pick(rng, []float64{90, 99.9, 100})}
			}
		case 3:
			a.Stats = &StatsAgg{Field: f}
		}
		if (a.Terms != nil || a.DateHistogram != nil) && depth < 2 && rng.Intn(3) == 0 {
			a.Aggs = genAggs(rng, depth+1)
		}
		out["a"+strconv.Itoa(i)] = a
	}
	return out
}

// genRequest draws a request: a query, one time in three a keyword term
// (a session's, as dashboards and the diagnosis pass ask) alone or beside
// it, one in six match_all; no sort or one or two keys, the first
// time_enter_ns one time in three; a page size, all hits where not
// positive; an offset one time in five; aggregations two times in three;
// and one time in three a resumed cursor, a key per sort field (a stamp
// step for time) and a gid.
func genRequest(rng *rand.Rand) SearchRequest {
	req := SearchRequest{Query: genQuery(rng, 0), Size: pick(rng, []int{-1, 0, 1, 2, 7, 10, 50, 1000})}
	switch rng.Intn(6) {
	case 0, 1:
		f := pick(rng, genFields["keyword"])
		req.Query = pick(rng, []Query{Term(f, pick(rng, genStrings)), Must(Term(f, pick(rng, genStrings)), req.Query)})
	case 2:
		req.Query = MatchAll()
	}
	for i := range pick(rng, []int{0, 1, 1, 2}) {
		f := genField(rng)
		if i == 0 && rng.Intn(3) == 0 {
			f = FieldTimeEnter
		}
		req.Sort = append(req.Sort, SortField{Field: f, Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(5) == 0 {
		req.From = pick(rng, []int{1, 3, 17})
	}
	if rng.Intn(3) > 0 {
		req.Aggs = genAggs(rng, 0)
	}
	if rng.Intn(3) == 0 && req.Size > 0 {
		req.From = 0
		for _, s := range req.Sort {
			v := any(genNumber(rng, s.Field))
			if s.Field != FieldTimeEnter {
				v = pick(rng, []any{nil, pick(rng, genStrings), v})
			}
			req.SearchAfter = append(req.SearchAfter, v)
		}
		req.SearchAfter = append(req.SearchAfter, rng.Intn(1600))
	}
	return req
}

// pivotQuery synthesizes a query doc satisfies: one to three predicates on
// its own values — a term of a value it holds in one of genInt's forms, a
// terms list holding it, a range around it, a prefix of it, exists of a
// field it has, a term of nil on one it lacks — one time in three a should
// beside a random query. checkPivots keeps it where the oracle agrees.
func pivotQuery(rng *rand.Rand, doc Document) Query {
	var must []Query
	for range 1 + rng.Intn(3) {
		f := genField(rng)
		v, has := doc[f]
		n, isNum := intOf(v)
		s, _ := v.(string)
		var p Query
		switch r := rng.Intn(4); {
		case !has:
			p = pick(rng, []Query{Term(f, nil), MustNot(Exists(f))})
		case r == 0 && isNum:
			p = Term(f, genInt(rng, n))
		case r == 0:
			p = Term(f, s)
		case r == 1:
			p = Terms(f, genValue(rng, f), v)
		case r == 2 && isNum:
			p = Query{Range: &RangeQuery{Field: f, GTE: ptr(n - int64(rng.Intn(2))), LTE: ptr(n)}}
		case r == 2:
			p = Prefix(f, s[:rng.Intn(len(s)+1)])
		default:
			p = Exists(f)
		}
		must = append(must, p)
	}
	if rng.Intn(3) == 0 {
		return Query{Bool: &BoolQuery{Should: []Query{genQuery(rng, 2), Must(must...)}}}
	}
	return Must(must...)
}

// genCase is one generated check whole: the rows and shard count, the
// request, the page size of its EachRow walk and the predicate its count
// is partitioned by.
type genCase struct {
	Shards  int
	Batches [][]event.Event
	Req     SearchRequest
	Walk    int
	Pred    Query
}

// genArm is one layout of the rows a request is checked on; st is nil over
// HTTP.
type genArm struct {
	tier string
	b    interface {
		Backend
		Search(ctx context.Context, index string, req SearchRequest) (SearchResponse, error)
	}
	st *Store
}

// genFixture holds one set of rows in every layout: an in-memory mirror
// that ingests two thirds of the batches, is checked as hot stripes, then
// takes the rest as a tail appended after the checks built its runs; two
// durable stores of every row, the first half of the batches in a cold
// segment (of more than one 512-row block when the rows are many), the
// next sixth in another and the last third hot, one resident and one with
// a budget of one byte, so that every query decodes the blocks it reads;
// and a Client over HTTP to the resident one. The oracle reads the mirror.
type genFixture struct {
	tb                testing.TB
	batches           [][]event.Event
	head              int
	mirror, dur, over *Store
	client            *Client
}

func newGenFixture(tb testing.TB, shards int, batches [][]event.Event) *genFixture {
	tb.Helper()
	fx := &genFixture{tb: tb, batches: batches, head: len(batches) * 2 / 3, mirror: memStore(tb, WithShards(shards))}
	durable := func() *Store {
		return openDurable(tb, tb.TempDir(), WithShards(shards), WithFsyncPolicy(FsyncOff), WithQueryCache(0))
	}
	fx.dur, fx.over = durable(), durable()
	srv := httptest.NewServer(NewServer(fx.dur))
	fx.client = NewClient(srv.URL)
	tb.Cleanup(func() { srv.Close(); fx.mirror.Close(); fx.dur.Close(); fx.over.Close() })
	fx.ingest(fx.mirror, append([][]event.Event{nil}, batches[:fx.head]...))
	for i, b := range batches {
		for _, st := range []*Store{fx.dur, fx.over} {
			fx.ingest(st, [][]event.Event{b})
			if i == len(batches)/2 || i == fx.head-1 {
				if err := st.Snapshot(); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	ix, _ := fx.over.GetIndex(genIndex)
	ix.dur.resident.budget = 1
	return fx
}

func (fx *genFixture) ingest(st *Store, batches [][]event.Event) {
	for _, b := range batches {
		if err := st.BulkEvents(context.Background(), genIndex, b); err != nil {
			fx.tb.Fatal(err)
		}
	}
}

// arms returns the layouts of phase 0, the mirror's head as hot stripes, or
// of phase 1, every row, appending the mirror's tail first.
func (fx *genFixture) arms(phase int) []genArm {
	if phase == 0 {
		return []genArm{{"hot", fx.mirror, fx.mirror}}
	}
	if fx.head < len(fx.batches) {
		fx.ingest(fx.mirror, fx.batches[fx.head:])
		fx.head = len(fx.batches)
	}
	return []genArm{{"tail", fx.mirror, fx.mirror}, {"cold", fx.dur, fx.dur}, {"over-budget", fx.over, fx.over}, {"client", fx.client, nil}}
}

// same reports whether two responses are equal, or render the same JSON as
// one decoded from a Client's does the oracle's.
func same(a, b SearchResponse) bool {
	return a.Total == b.Total && slices.EqualFunc(a.Hits, b.Hits, maps.Equal) && slices.Equal(a.NextAfter, b.NextAfter) &&
		reflect.DeepEqual(a.Aggs, b.Aggs) || jsonOf(a) == jsonOf(b)
}

// check asks c's request of arm and requires the oracle's answer to it: the
// search and up to three more pages of its
// cursor, the count, and an EachRow walk of at most nine pages, which on a
// *Store counts one search per page and caches none; and that the count
// splits over c's predicate and its negation.
func (fx *genFixture) check(arm genArm, c genCase) error {
	ctx := context.Background()
	oix, _ := fx.mirror.GetIndex(genIndex)
	req := c.Req
	for p := 0; p < 4; p++ {
		got, err := arm.b.Search(ctx, genIndex, req)
		if want := oracleSearch(oix, req); err != nil || !same(got, want) {
			return fmt.Errorf("page %d (%v):\n got %.3000s\nwant %.3000s", p, err, jsonOf(got), jsonOf(want))
		}
		if got.NextAfter == nil {
			break
		}
		req.From, req.SearchAfter = 0, got.NextAfter
	}
	n, err := arm.b.Count(ctx, genIndex, c.Req.Query)
	if want := oracleSearch(oix, SearchRequest{Query: c.Req.Query, Size: 1}).Total; err != nil || n != want {
		return fmt.Errorf("count %d (%v), oracle %d", n, err, want)
	}
	with, err1 := arm.b.Count(ctx, genIndex, Must(c.Req.Query, c.Pred))
	without, err2 := arm.b.Count(ctx, genIndex, Must(c.Req.Query, MustNot(c.Pred)))
	if err1 != nil || err2 != nil || with+without != n {
		return fmt.Errorf("count %d splits into %d (%v) with %s and %d (%v) without", n, with, err1, jsonOf(c.Pred), without, err2)
	}
	all := oracleSearch(oix, SearchRequest{Query: c.Req.Query, Sort: c.Req.Sort, Size: -1}).Hits
	walk := max(c.Walk, len(all)/8)
	var searches, puts uint64
	if arm.st != nil {
		searches, puts = arm.st.tm.searches.Value(), arm.st.tm.cacheMisses.Value()
	}
	var walked []Document
	wctx, stop := context.WithCancel(ctx) // a walk that never ends fails
	defer stop()
	err = EachRow(wctx, arm.b, genIndex, c.Req, walk, func(r Row) {
		var e event.Event
		r.Event(&e)
		if walked = append(walked, EventToDoc(&e)); len(walked) > len(all) {
			stop()
		}
	})
	if err != nil || !slices.EqualFunc(walked, all, maps.Equal) {
		return fmt.Errorf("EachRow, pages of %d: %d rows (%v), oracle %d, or in another order", walk, len(walked), err, len(all))
	}
	if arm.st == nil {
		return nil
	}
	if n, want := arm.st.tm.searches.Value()-searches, uint64(len(all)/walk+1); n != want {
		return fmt.Errorf("EachRow, pages of %d: %d searches counted, want %d", walk, n, want)
	}
	if n := arm.st.tm.cacheMisses.Value() - puts; n != 0 {
		return fmt.Errorf("EachRow put %d pages in the query cache", n)
	}
	return nil
}

// checkPivots requires each of n stored rows back from every phase 1 arm
// under a query synthesized to match it.
func (fx *genFixture) checkPivots(rng *rand.Rand, n int) error {
	oix, _ := fx.mirror.GetIndex(genIndex)
	rows, _ := oracleRows(oix)
	for i := 0; i < n && len(rows) > 0; i++ {
		doc := rows[rng.Intn(len(rows))]
		q := pivotQuery(rng, doc)
		for tries := 0; !q.Matches(doc) && tries < 20; tries++ {
			q = pivotQuery(rng, doc)
		}
		for _, arm := range fx.arms(1) {
			res, err := arm.b.SearchEvents(context.Background(), genIndex, SearchRequest{Query: q, Size: -1})
			hits := res.Documents().Hits
			if q.Matches(doc) && (err != nil || !slices.ContainsFunc(hits, func(h Document) bool { return maps.Equal(h, doc) })) {
				return fmt.Errorf("pivot %s on %s: %d hits (%v), none the row %s", jsonOf(q), arm.tier, len(hits), err, jsonOf(doc))
			}
		}
	}
	return nil
}

// The fixed budget of TestGeneratedDifferential: seeds, requests per seed.
const genSeeds, genRequests = 12, 96

// genShards are the shard counts a seed's requests are dealt over in turn.
var genShards = []int{1, 4, 16}

// TestGeneratedDifferential runs the fixed budget: per seed, generated rows
// at 1, 4 and 16 shards, each checking a third of the requests on every arm
// (check), then pivoted queries on stored rows. The budget must cover every
// cell — field kind, operator, sort kind, tier — that the
// hand-written request lists it replaced covered (handCells). Under -v it
// logs each seed's cells.
func TestGeneratedDifferential(t *testing.T) {
	covered := map[string]bool{}
	for seed := int64(1); seed <= genSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cells := runSeed(t, rand.New(rand.NewSource(seed)), genRequests)
			maps.Copy(covered, cells)
			if testing.Verbose() {
				t.Logf("%d cells: %s", len(cells), strings.Join(sortedKeys(cells), " "))
			}
		})
	}
	var missing []string
	for _, c := range handCells {
		if !covered[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		t.Errorf("the budget covers %d cells, but not these %d of the hand lists': %s", len(covered), len(missing), strings.Join(missing, " "))
	}
}

// FuzzDifferential is a seed of TestGeneratedDifferential drawn from the
// fuzz input: eight bytes per draw, then a source seeded by their hash.
func FuzzDifferential(f *testing.F) {
	// "\x00\x04e," once pivoted on a float64 term of MinInt64, and
	// "\xcc\xa1 (\xc5\xf1" does under this generator: a Client must send it
	// as the integer the store reads it as, and a server read the decimal
	// encoding/json writes for it, which no int64 literal spells, as that
	// float64.
	for _, s := range []string{"", "\x00", "seed", "\xff\xff\xff\xff\xff\xff\xff\x7f", "\x00\x04e,", "\xcc\xa1 (\xc5\xf1"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		runSeed(t, rand.New(&byteSource{data, rand.NewSource(int64(h.Sum64()))}), 8)
	})
}

type byteSource struct {
	data []byte
	rest rand.Source
}

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return s.rest.Int63()
	}
	var b [8]byte
	s.data = s.data[copy(b[:], s.data):]
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}

// runSeed draws rows and n requests (a quarter as many over 1 000 rows),
// checks each at 1 shard or 4 on every arm of a fixture, then ten pivots
// at each, and returns the cells covered over more than three rows. A failing check fails t with its case shrunk.
func runSeed(t *testing.T, rng *rand.Rand, n int) map[string]bool {
	batches := genRows(rng)
	rows := 0
	for _, b := range batches {
		rows += len(b)
	}
	if rows > 1000 {
		n = max(1, n/4)
	}
	cases := make([]genCase, n)
	for i := range cases {
		cases[i] = genCase{genShards[i%len(genShards)], batches, genRequest(rng), pick(rng, []int{1, 3, 7, 50, 1000}), genQuery(rng, 1)}
	}
	cells := map[string]bool{}
	for _, shards := range genShards {
		fx := newGenFixture(t, shards, batches)
		own := slices.DeleteFunc(slices.Clone(cases), func(c genCase) bool { return c.Shards != shards })
		for phase := range 2 {
			for _, arm := range fx.arms(phase) {
				for _, c := range own {
					if err := fx.check(arm, c); err != nil {
						failCase(t, c, fmt.Errorf("%s: %w", arm.tier, err))
					}
					if rows > 3 {
						requestCells(c.Req, arm.tier, cells)
					}
				}
			}
		}
		if err := fx.checkPivots(rng, 10); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
	return cells
}

// runCase checks c alone on a fixture of its own.
func runCase(tb testing.TB, c genCase) error {
	fx := newGenFixture(tb, c.Shards, c.Batches)
	for phase := range 2 {
		for _, arm := range fx.arms(phase) {
			if err := fx.check(arm, c); err != nil {
				return fmt.Errorf("%s: %w", arm.tier, err)
			}
		}
	}
	return nil
}

// failCase shrinks c, which failed with err, while it fails alone, and
// fails t with the smallest failing case as a Go literal.
func failCase(t *testing.T, c genCase, err error) {
	t.Helper()
	if runCase(t, c) == nil {
		t.Fatalf("%v\n(the case passes alone; request %s)", err, goLiteral(c.Req))
	}
	for tries, shrunk := 0, true; shrunk && tries < 200; {
		shrunk = false
		for _, s := range shrinks(c) {
			if tries++; runCase(t, s) != nil {
				c, shrunk = s, true
				break
			}
		}
	}
	t.Fatalf("%v\nshrunk to %v\nregression case:\n%s", err, runCase(t, c), goLiteral(c))
}

// shrinks returns c's one-step simplifications: either half of its batches
// or of one batch; each aggregation, its first sort key, its offset and
// cursor dropped; its query or predicate replaced by one of its parts.
func shrinks(c genCase) []genCase {
	var out []genCase
	with := func(edit func(*genCase)) {
		s := c
		s.Batches = slices.Clone(c.Batches)
		edit(&s)
		out = append(out, s)
	}
	if h := len(c.Batches) / 2; h > 0 {
		with(func(s *genCase) { s.Batches = s.Batches[:h] })
		with(func(s *genCase) { s.Batches = s.Batches[h:] })
	}
	for i, b := range c.Batches {
		if h := len(b) / 2; h > 0 {
			with(func(s *genCase) { s.Batches[i] = b[:h] })
			with(func(s *genCase) { s.Batches[i] = b[h:] })
		}
	}
	for name := range c.Req.Aggs {
		with(func(s *genCase) { s.Req.Aggs = maps.Clone(s.Req.Aggs); delete(s.Req.Aggs, name) })
	}
	if len(c.Req.Sort) > 0 {
		with(func(s *genCase) { s.Req.Sort, s.Req.SearchAfter = s.Req.Sort[1:], nil })
	}
	if c.Req.From != 0 || c.Req.SearchAfter != nil {
		with(func(s *genCase) { s.Req.From, s.Req.SearchAfter = 0, nil })
	}
	for _, q := range queryParts(c.Req.Query) {
		with(func(s *genCase) { s.Req.Query = q })
	}
	for _, q := range queryParts(c.Pred) {
		with(func(s *genCase) { s.Pred = q })
	}
	return out
}

// queryParts returns each clause q sets, alone, where it sets more than
// one; and each sub-query of its bool, and its bool without it.
func queryParts(q Query) []Query {
	var out []Query
	for _, part := range []Query{{Term: q.Term}, {Terms: q.Terms}, {Range: q.Range}, {Prefix: q.Prefix}, {Exists: q.Exists}, {Bool: q.Bool}} {
		if !reflect.DeepEqual(part, Query{}) {
			out = append(out, part)
		}
	}
	if len(out) < 2 {
		out = nil
	}
	if b := q.Bool; b != nil {
		lists := [3][]Query{b.Must, b.Should, b.MustNot}
		for l, list := range lists {
			for i, sub := range list {
				rest := lists
				rest[l] = slices.Delete(slices.Clone(list), i, i+1)
				out = append(out, sub, Query{Bool: &BoolQuery{Must: rest[0], Should: rest[1], MustNot: rest[2]}})
			}
		}
	}
	return out
}

// goLiteral renders v as Go source: composite literals without their zero
// fields, pointers as &T{...} or ptr(v), and interface values converted to
// their dynamic type.
func goLiteral(v any) string {
	var b strings.Builder
	writeLiteral(&b, reflect.ValueOf(v))
	return b.String()
}

func writeLiteral(b *strings.Builder, v reflect.Value) {
	name := strings.ReplaceAll(v.Type().String(), "store.", "")
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		e := v.Elem()
		switch {
		case v.IsNil():
			b.WriteString("nil")
		case v.Kind() == reflect.Pointer && e.Kind() == reflect.Struct:
			b.WriteString("&")
			writeLiteral(b, e)
		case v.Kind() == reflect.Interface && (e.Type() == reflect.TypeOf("") || e.Kind() == reflect.Bool):
			writeLiteral(b, e)
		default:
			conv := "ptr"
			if v.Kind() == reflect.Interface {
				conv = e.Type().String()
			}
			fmt.Fprintf(b, "%s(", conv)
			writeLiteral(b, e)
			b.WriteString(")")
		}
	case reflect.Struct:
		b.WriteString(name + "{")
		for i := range v.NumField() {
			if !v.Field(i).IsZero() {
				fmt.Fprintf(b, "%s: ", v.Type().Field(i).Name)
				writeLiteral(b, v.Field(i))
				b.WriteString(", ")
			}
		}
		b.WriteString("}")
	case reflect.Slice, reflect.Map:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteString(name + "{")
		if v.Kind() == reflect.Slice {
			for i := range v.Len() {
				writeLiteral(b, v.Index(i))
				b.WriteString(",\n")
			}
		}
		keys := []reflect.Value{}
		if v.Kind() == reflect.Map {
			keys = v.MapKeys()
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			fmt.Fprintf(b, "%q: ", k.String())
			writeLiteral(b, v.MapIndex(k))
			b.WriteString(", ")
		}
		b.WriteString("}")
	case reflect.String:
		fmt.Fprintf(b, "%q", v.String())
	default:
		fmt.Fprintf(b, "%v", v.Interface())
	}
}

// kindName is the kind of field a coverage cell names: an indexed string
// slot (keyword), another string slot, file_tag, time_enter_ns, another
// integer, has_offset, or a name the schema lacks.
func kindName(field string) string {
	switch f := fieldOf(field); {
	case f.indexed():
		return "keyword"
	case f.kind == slotKind:
		return "string"
	case f.kind == tagKind:
		return "tag"
	case field == FieldTimeEnter:
		return "time"
	case f.kind == intKind:
		return "int"
	case f.kind == flagKind:
		return "flag"
	}
	return "unknown"
}

// requestCells adds the cells req covers on tier, each kind/op/sort/tier:
// the field kind and operator of each query clause and aggregation ("-" for
// the bool lists, match_all, the zero query, two clauses set, an offset and
// a cursor), the kind of the first sort key ("+" for a second, none
// without), and the tier.
func requestCells(req SearchRequest, tier string, cells map[string]bool) {
	sortKind := "none"
	if len(req.Sort) > 0 {
		sortKind = kindName(req.Sort[0].Field) + strings.Repeat("+", len(req.Sort)-1)
	}
	add := func(kind, op string) { cells[kind+"/"+op+"/"+sortKind+"/"+tier] = true }
	var query func(q Query)
	query = func(q Query) {
		set := 0
		leaf := func(op, field string) { add(kindName(field), op); set++ }
		if q.Term != nil {
			leaf("term", q.Term.Field)
		}
		if q.Terms != nil {
			leaf("terms", q.Terms.Field)
		}
		if q.Range != nil {
			leaf("range", q.Range.Field)
		}
		if q.Prefix != nil {
			leaf("prefix", q.Prefix.Field)
		}
		if q.Exists != nil {
			leaf("exists", q.Exists.Field)
		}
		if q.MatchAll {
			add("-", "match_all")
			set++
		}
		if b := q.Bool; b != nil {
			set++
			for op, list := range map[string][]Query{"must": b.Must, "should": b.Should, "must_not": b.MustNot} {
				if len(list) > 0 {
					add("-", op)
				}
				for _, sub := range list {
					query(sub)
				}
			}
			if len(b.Must)+len(b.Should)+len(b.MustNot) == 0 {
				add("-", "empty_bool")
			}
		}
		if set == 0 {
			add("-", "zero")
		} else if set > 1 {
			add("-", "precedence")
		}
	}
	query(req.Query)
	var aggs func(m map[string]Agg)
	aggs = func(m map[string]Agg) {
		for _, a := range m {
			switch {
			case a.Terms != nil:
				add(kindName(a.Terms.Field), "agg_terms")
			case a.DateHistogram != nil:
				add(kindName(a.DateHistogram.Field), "agg_histogram")
			case a.Percentiles != nil:
				add(kindName(a.Percentiles.Field), "agg_percentiles")
			case a.Stats != nil:
				add(kindName(a.Stats.Field), "agg_stats")
			}
			aggs(a.Aggs)
		}
	}
	aggs(req.Aggs)
	if req.From > 0 {
		add("-", "from")
	}
	if len(req.SearchAfter) > 0 {
		add("-", "cursor")
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// handCells is every cell the hand-written request lists this suite
// replaced covered, on the tiers their tests checked them against the
// oracle: the flat and nested matrix with its term-domain shapes on hot
// stripes; the sorted matrix with its resumed cursors on hot stripes, an
// appended tail and resident cold segments; the term-domain shapes beside a
// time window on resident and over-budget cold segments; and the sorted
// shapes' walks on hot stripes, cold segments and over HTTP.
var handCells = strings.Fields(`
-/cursor/flag/cold -/cursor/flag/hot -/cursor/flag/tail -/cursor/int+/cold -/cursor/int+/hot
-/cursor/int+/tail -/cursor/int/cold -/cursor/int/hot -/cursor/int/tail -/cursor/keyword+/cold
-/cursor/keyword+/hot -/cursor/keyword+/tail -/cursor/tag/cold -/cursor/tag/hot
-/cursor/tag/tail -/cursor/time/cold -/cursor/time/hot -/cursor/time/tail -/cursor/unknown/cold
-/cursor/unknown/hot -/cursor/unknown/tail -/empty_bool/time/client -/empty_bool/time/cold
-/empty_bool/time/hot -/empty_bool/time/over-budget -/empty_bool/time/tail -/from/none/hot
-/from/time/cold -/from/time/hot -/from/time/tail -/match_all/int+/client -/match_all/int+/cold
-/match_all/int+/hot -/match_all/int+/tail -/match_all/int/client -/match_all/int/cold
-/match_all/int/hot -/match_all/int/tail -/match_all/none/hot -/match_all/time/client
-/match_all/time/cold -/match_all/time/hot -/match_all/time/over-budget -/match_all/time/tail
-/must/none/hot -/must/time/client -/must/time/cold -/must/time/hot -/must/time/over-budget
-/must/time/tail -/must_not/none/hot -/must_not/time/client -/must_not/time/cold
-/must_not/time/hot -/must_not/time/over-budget -/must_not/time/tail -/precedence/none/hot
-/precedence/time/client -/precedence/time/cold -/precedence/time/hot
-/precedence/time/over-budget -/precedence/time/tail -/should/time/client -/should/time/cold
-/should/time/hot -/should/time/over-budget -/should/time/tail flag/agg_histogram/time/cold
flag/agg_histogram/time/hot flag/agg_histogram/time/tail flag/agg_stats/time/cold
flag/agg_stats/time/hot flag/agg_stats/time/tail flag/agg_terms/time/cold
flag/agg_terms/time/hot flag/agg_terms/time/tail flag/term/none/hot flag/term/time/client
flag/term/time/cold flag/term/time/hot flag/term/time/over-budget flag/terms/none/hot
flag/terms/time/cold flag/terms/time/over-budget int/agg_histogram/none/hot
int/agg_histogram/time/cold int/agg_histogram/time/hot int/agg_histogram/time/tail
int/agg_percentiles/none/hot int/agg_percentiles/time/cold int/agg_percentiles/time/hot
int/agg_percentiles/time/tail int/agg_stats/none/hot int/agg_stats/time/cold
int/agg_stats/time/hot int/agg_stats/time/tail int/agg_terms/none/hot int/agg_terms/time/cold
int/agg_terms/time/hot int/agg_terms/time/tail int/exists/none/hot int/exists/time/client
int/exists/time/cold int/exists/time/hot int/exists/time/over-budget int/range/none/hot
int/range/time/client int/range/time/cold int/range/time/hot int/range/time/tail
int/term/none/hot int/term/time/client int/term/time/cold int/term/time/hot
int/term/time/over-budget int/term/time/tail int/terms/none/hot int/terms/time/client
int/terms/time/cold int/terms/time/hot int/terms/time/over-budget int/terms/time/tail
keyword/agg_terms/none/hot keyword/agg_terms/time/hot keyword/term/flag/client
keyword/term/flag/cold keyword/term/flag/hot keyword/term/flag/tail keyword/term/int+/client
keyword/term/int+/cold keyword/term/int+/hot keyword/term/int+/tail keyword/term/int/client
keyword/term/int/cold keyword/term/int/hot keyword/term/int/tail keyword/term/keyword+/client
keyword/term/keyword+/cold keyword/term/keyword+/hot keyword/term/keyword+/tail
keyword/term/none/hot keyword/term/tag/client keyword/term/tag/cold keyword/term/tag/hot
keyword/term/tag/tail keyword/term/time/client keyword/term/time/cold keyword/term/time/hot
keyword/term/time/over-budget keyword/term/time/tail keyword/term/unknown/client
keyword/term/unknown/cold keyword/term/unknown/hot keyword/term/unknown/tail
keyword/terms/none/hot keyword/terms/time/client keyword/terms/time/cold keyword/terms/time/hot
keyword/terms/time/over-budget keyword/terms/time/tail string/term/none/hot
string/term/time/client string/term/time/cold string/term/time/hot string/term/time/over-budget
string/terms/none/hot string/terms/time/cold string/terms/time/over-budget
tag/agg_histogram/time/cold tag/agg_histogram/time/hot tag/agg_histogram/time/tail
tag/agg_stats/time/cold tag/agg_stats/time/hot tag/agg_stats/time/tail tag/agg_terms/none/hot
tag/agg_terms/time/cold tag/agg_terms/time/hot tag/agg_terms/time/tail tag/exists/none/hot
tag/exists/time/client tag/exists/time/cold tag/exists/time/hot tag/prefix/none/hot
tag/term/none/hot tag/term/time/cold tag/term/time/over-budget tag/terms/none/hot
tag/terms/time/cold tag/terms/time/over-budget time/agg_histogram/none/hot time/range/none/hot
time/range/time/client time/range/time/cold time/range/time/hot time/range/time/over-budget
time/range/time/tail unknown/term/none/hot unknown/term/time/cold unknown/term/time/over-budget
unknown/terms/none/hot unknown/terms/time/cold unknown/terms/time/over-budget
`)
