package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/dsrhaslab/dio-go/internal/store"
)

const coldIndex = "history"

// coldEnv is a tiered diod reopened cold over a preloaded history: the first
// coldSnapshots trace-minutes sit in compacted cold segments, the rest are
// hot rows recovered from the WAL.
type coldEnv struct {
	stack     *stack
	hist      *coldHistory
	snapshotS float64
	compactS  float64
}

func setupCold(cfg runConfig, rec *recorder, hist *coldHistory) (*coldEnv, error) {
	dir, err := freshDir(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, err
	}
	env := &coldEnv{hist: hist}
	err = func() error {
		st, err := openStore(dir, retentionForever)
		if err != nil {
			return err
		}
		ctx := context.Background()
		for c := 0; c < cfg.sz.coldChunks; c++ {
			if err := st.BulkEvents(ctx, coldIndex, hist.chunk(c)); err != nil {
				st.Close()
				return fmt.Errorf("preload chunk %d: %w", c, err)
			}
			if c >= cfg.sz.coldSnapshots {
				continue
			}
			start := time.Now()
			if err := st.Snapshot(); err != nil {
				st.Close()
				return fmt.Errorf("snapshot %d: %w", c, err)
			}
			env.snapshotS += time.Since(start).Seconds()
			if c == cfg.sz.coldSnapshots-1 {
				start = time.Now()
				if err := st.Compact(); err != nil {
					st.Close()
					return fmt.Errorf("compact: %w", err)
				}
				env.compactS = time.Since(start).Seconds()
			}
		}
		// Close and reopen so nothing is warm when the timed phase starts.
		if err := st.Close(); err != nil {
			return err
		}
		env.stack, err = startStack(dir, retentionForever, rec)
		return err
	}()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return env, nil
}

func (e *coldEnv) discard() error {
	err := e.stack.stop()
	os.RemoveAll(e.stack.dir)
	return err
}

var errScanDone = errors.New("scan page budget reached")

// coldReader is the single closed-loop client of cold_history.
type coldReader struct {
	cfg  runConfig
	env  *coldEnv
	rec  *recorder
	res  *result
	rng  *rand.Rand
	rows int
}

// window runs one time-window query over global events [g0, g1) and checks
// the answer against the closed-form expectation.
func (r *coldReader) window(span string, g0, g1 int, lat *samples, meter *opMeter) {
	h := r.env.hist
	req := store.SearchRequest{
		Query: store.Must(
			store.Term(store.FieldSession, coldSession),
			store.RangeBetween(store.FieldTimeEnter, float64(h.timeOf(g0)), float64(h.timeOf(g1-1))),
		),
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
		Size: 10,
		Aggs: map[string]store.Agg{"by_syscall": {Terms: &store.TermsAgg{Field: store.FieldSyscall}}},
	}
	id := r.rec.beginQuery(span, 0)
	cpu0, start := cpuTime(), time.Now()
	got, err := r.env.stack.query.SearchEvents(context.Background(), coldIndex, req)
	d, cpu := time.Since(start), cpuTime()-cpu0
	r.rec.endQuery(id)
	r.res.op(err)
	if err != nil {
		return
	}
	lat.addDur(d)
	if meter != nil {
		meter.observe(d, cpu)
	}
	total, buckets := h.expect(g0, g1)
	if got.Total != total {
		r.res.fail("window [%d,%d): total %d, want %d", g0, g1, got.Total, total)
	}
	seen := 0
	for _, b := range got.Aggs["by_syscall"].Buckets {
		seen++
		if b.Count != buckets[b.Key] {
			r.res.fail("window [%d,%d): terms(syscall) %s = %d, want %d", g0, g1, b.Key, b.Count, buckets[b.Key])
		}
	}
	if seen != len(buckets) {
		r.res.fail("window [%d,%d): %d syscall buckets, want %d", g0, g1, seen, len(buckets))
	}
	for i, e := range got.Hits {
		if want := h.timeOf(g0 + i); e.TimeEnterNS != want {
			r.res.fail("window [%d,%d): hit %d at %d, want %d", g0, g1, i, e.TimeEnterNS, want)
			break
		}
	}
}

// scan pages a time-ascending cursor from global event g0 for at most
// coldScanPages pages, checking every page is strictly time-ordered and
// gap-free, and returns the events scanned.
func (r *coldReader) scan(span string, g0, limit int, lat *samples) int {
	h := r.env.hist
	req := store.SearchRequest{
		Query: store.Must(
			store.Term(store.FieldSession, coldSession),
			store.RangeBetween(store.FieldTimeEnter, float64(h.timeOf(g0)), float64(h.timeOf(limit-1))),
		),
		Sort: []store.SortField{{Field: store.FieldTimeEnter}},
	}
	next, pages := g0, 0
	id := r.rec.beginQuery(span, 0)
	start := time.Now()
	err := store.EachEventPage(context.Background(), r.env.stack.query, coldIndex, req, r.cfg.sz.coldPageSize,
		func(page store.EventsResult) error {
			lat.addDur(time.Since(start))
			r.rec.endQuery(id)
			r.res.attempted++
			for _, e := range page.Hits {
				if want := h.timeOf(next); e.TimeEnterNS != want {
					return fmt.Errorf("scan from %d: event %d at %d, want %d (pages must be strictly time-ordered)",
						g0, next, e.TimeEnterNS, want)
				}
				next++
			}
			if pages++; pages >= r.cfg.sz.coldScanPages {
				return errScanDone
			}
			id = r.rec.beginQuery(span, 0)
			start = time.Now()
			return nil
		})
	switch {
	case err == nil:
		// The range ran out before the page budget: the span opened for a
		// next page has no request behind it.
		r.rec.abandonQuery(id)
	case !errors.Is(err, errScanDone):
		r.rec.endQuery(id)
		r.res.failed++
		r.res.fail("%v", err)
	}
	return next - g0
}

func runCold(cfg runConfig, rec *recorder, res *result) error {
	m := res.metrics
	sz := cfg.sz
	hist := newColdHistory(cfg.seed, sz.coldChunks, sz.coldChunkRows)
	env, setupS, err := timeSetups(sz.setupRepeats,
		func() (*coldEnv, error) { return setupCold(cfg, rec, hist) }, (*coldEnv).discard)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(env.stack.dir)
	m.setN("setup_s", setupS, sz.setupRepeats)
	m.set("store.snapshot_s", env.snapshotS)
	m.set("store.compact_s", env.compactS)

	r := &coldReader{cfg: cfg, env: env, rec: rec, res: res, rng: rand.New(rand.NewSource(cfg.seed + 1)), rows: sz.coldChunkRows}
	coldEnd := sz.coldSnapshots * sz.coldChunkRows
	total := sz.coldChunks * sz.coldChunkRows
	var coldLat, coldPage, hotLat, hotPage samples
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	// until repeats fn, at least once, until pct percent of the phase is over.
	until := func(pct time.Duration, fn func()) {
		for fn(); time.Since(start) < cfg.dur*pct/100; {
			fn()
		}
	}

	// Slice 1 (60 % of the phase): seeded window queries on cold ranges, a
	// quarter of a trace-minute each; one in six spans four trace-minutes.
	// The trace-minutes are visited in a seeded permutation, cycled, so every
	// run sends the same share of its queries to each cold segment (a query
	// pays for the whole segment it opens, and segments differ in size).
	var meter opMeter
	queries, order := 0, r.rng.Perm(sz.coldSnapshots)
	until(60, func() {
		c := order[queries%len(order)]
		g0 := c*r.rows + r.rng.Intn(r.rows/2)
		g1 := g0 + r.rows/4
		if queries++; queries%6 == 0 {
			g0 = min(c, sz.coldSnapshots-4)*r.rows + r.rng.Intn(r.rows/2)
			g1 = g0 + 3*r.rows + r.rows/4
		}
		r.window("store.cold_query", g0, g1, &coldLat, &meter)
	})

	// Slice 2 (25 %): bounded cursor scans from seeded cold starts.
	scanStart, scanned := time.Now(), 0
	until(85, func() {
		g0 := r.rng.Intn(coldEnd - sz.coldScanPages*sz.coldPageSize)
		scanned += r.scan("store.cursor.cold_page", g0, coldEnd, &coldPage)
	})
	scanWall := time.Since(scanStart)

	// Slice 3 (15 %): the control — the same query and cursor scan on the
	// hot rows, which a change to the cold path must not move.
	until(100, func() {
		g0 := coldEnd + r.rng.Intn(total-coldEnd-r.rows/4)
		r.window("store.hot_query", g0, g0+r.rows/4, &hotLat, nil)
		r.scan("store.cursor.hot_page", coldEnd+r.rng.Intn(r.rows/2), total, &hotPage)
	})
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)

	if count, ok := env.stack.countEvents(rec, res, coldIndex); ok && count != total {
		res.fail("store holds %d events, preloaded %d", count, total)
	}
	var scrape time.Duration
	var series int
	if rec != nil {
		scrape, series, err = scrapeMetrics(env.stack.url)
		res.op(err)
	}
	storeSnap := env.stack.st.Telemetry().Snapshot()
	mw, dir := env.stack.mw, env.stack.dir
	if err := env.stack.stop(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	env.stack.release()
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	recov, err := recoverStore(dir, coldIndex, retentionForever, sz.recoverRepeats)
	if err != nil {
		return err
	}
	if recov.count != total {
		res.fail("recovered %d events, preloaded %d", recov.count, total)
	}
	if coldLat.n() == 0 || coldPage.n() == 0 || hotLat.n() == 0 {
		res.fail("a slice of the timed phase completed no operation (cold %d, pages %d, hot %d)",
			coldLat.n(), coldPage.n(), hotLat.n())
	}
	res.info["cold_queries"] = coldLat.n()
	res.info["cold_pages"] = coldPage.n()
	res.info["events_preloaded"] = total

	// End-to-end: the op is one cold window query.
	n := coldLat.n()
	meter.report(m)
	m.set("disk_bytes_per_event", float64(disk)/float64(total))
	m.set("heap_bytes_per_event", recov.heapBytes/float64(total))

	m.set("peak_rss_mb", peakRSSMB())
	m.setN("recovery_s", median(recov.secs), len(recov.secs))
	m.setN("op_ms_p50", coldLat.q(0.5), n)
	m.setN("cold_query_ms_p50", coldLat.q(0.5), n)
	m.setN("store.cold_query_ms_p80", coldLat.q(0.8), n)
	m.setN("cold_scan_events_per_s", float64(scanned)/scanWall.Seconds(), coldPage.n())
	m.setN("store.cursor.cold_page_ms_p50", coldPage.q(0.5), coldPage.n())
	m.setN("store.cursor.hot_page_ms_p50", hotPage.q(0.5), hotPage.n())
	m.setN("store.hot_query_ms_p50", hotLat.q(0.5), hotLat.n())
	if rec == nil {
		return nil
	}
	m.setN("store.server.search_ms_p50", mw.searchMS.q(0.5), mw.searchMS.n())
	m.setN("store.server.search_ms_p90", mw.searchMS.q(0.9), mw.searchMS.n())
	m.set("store.client.query_overhead_ms_p50", rec.overheadP50("store.server.search"))
	storeLayerMetrics(m, storeSnap, float64(total))
	if opened := m.vals["store.tier.segments_opened"]; opened > 0 {
		m.set("store.tier.ms_per_segment_opened", (coldLat.sum()+coldPage.sum())/opened)
	}
	m.set("telemetry.scrape_ms", ms(scrape))
	m.set("telemetry.series", float64(series))
	m.set("proc.allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(max(scanned, 1)))
	m.set("proc.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("proc.heap_mb_end", float64(after.HeapAlloc)/(1<<20))
	return probeSegments(cfg, m, hist)
}
