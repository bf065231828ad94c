package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

const (
	liveIndex   = "events"
	liveSession = "live"
	liveRings   = 2 // tracee tasks, per-CPU rings and drain workers
)

// liveEnv is one live pipeline: a kernel on the wall clock with a free disk,
// the tracer with its defaults and the default resilience ladder, shipping
// over loopback HTTP into a durable diod-equivalent.
type liveEnv struct {
	stack   *stack
	k       *kernel.Kernel
	tracer  *core.Tracer
	backend *ackBackend
	gens    []*opGen
}

// freeDisk makes the simulated device cost nothing, so the Real clock's
// yield-spinning Sleep never runs and event stamps are creation stamps.
var freeDisk = kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0}

func setupLive(cfg runConfig, rec *recorder, dash bool) (*liveEnv, error) {
	dir, err := freshDir(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, err
	}
	s, err := startStack(dir, 0, rec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fail := func(err error) (*liveEnv, error) {
		s.stop()
		os.RemoveAll(dir)
		return nil, err
	}
	k := kernel.New(kernel.Config{Clock: clock.NewReal(time.Now().UnixNano()), Disk: freeDisk})
	if err := k.MkdirAll("/bench"); err != nil {
		return fail(err)
	}
	env := &liveEnv{stack: s, k: k}
	env.backend = &ackBackend{Client: store.NewClient(s.url), clk: k.Clock(), rec: rec}
	env.tracer, err = core.NewTracer(core.Config{
		SessionName: liveSession,
		Index:       liveIndex,
		NumCPU:      liveRings,
		Backend:     env.backend,
		Resilience:  &resilience.Config{},
	})
	if err != nil {
		return fail(err)
	}
	if err := env.tracer.Start(k); err != nil {
		return fail(err)
	}
	proc := k.NewProcess("app")
	for i := 0; i < liveRings; i++ {
		env.gens = append(env.gens, newOpGen(proc.NewTask(fmt.Sprintf("w%d", i)), cfg.seed*1000003+int64(i)))
	}
	// Warm-up, the bulk of set-up: push a fixed number of syscalls through
	// the whole pipeline and wait for their acks, so the connections, buffer
	// pools and the index exist before the timed phase; the dashboard
	// workload also renders its panels once.
	warmup := cfg.sz.saturateWarmup
	if dash {
		warmup = cfg.sz.dashWarmup
	}
	for i := 0; i < warmup; i++ {
		env.gens[i%len(env.gens)].step()
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st := env.tracer.Stats()
		if st.Shipped+st.Dropped >= uint64(warmup) {
			break
		}
		if time.Now().After(deadline) {
			env.tracer.Stop()
			return fail(fmt.Errorf("warm-up: %d of %d syscalls acked after 30 s", st.Shipped, warmup))
		}
	}
	if dash && !new(dashboard).refreshOnce(s.query, k.Clock(), rec) {
		env.tracer.Stop()
		return fail(fmt.Errorf("warm-up: a dashboard panel failed"))
	}
	return env, nil
}

func (e *liveEnv) discard() error {
	_, err := e.tracer.Stop()
	if serr := e.stack.stop(); err == nil {
		err = serr
	}
	os.RemoveAll(e.stack.dir)
	return err
}

// dashboard is the closed-loop reader of live_dashboard: four panels per
// refresh through store.Client, one refresh after another.
type dashboard struct {
	refresh samples
	panels  [4]samples
	meter   opMeter
	tried   int
	failed  int
}

var panelNames = [4]string{"viz.histogram", "viz.timeline", "viz.latest", "viz.window"}

// refreshOnce renders the four panels and reports whether all succeeded.
func (d *dashboard) refreshOnce(c *store.Client, clk clock.Clock, rec *recorder) bool {
	ctx := context.Background()
	panels := [4]func() error{
		func() error { _, err := viz.SyscallHistogram(c, liveIndex, liveSession); return err },
		func() error { _, err := viz.SyscallTimeline(c, liveIndex, liveSession, int64(time.Second)); return err },
		func() error {
			_, err := store.SearchEvents(ctx, c, liveIndex, store.SearchRequest{
				Query: store.Term(store.FieldSession, liveSession),
				Sort:  []store.SortField{{Field: store.FieldTimeEnter, Desc: true}},
				Size:  50,
			})
			return err
		},
		func() error {
			_, err := c.Search(ctx, liveIndex, store.SearchRequest{
				Query: store.Must(
					store.Term(store.FieldSession, liveSession),
					store.RangeGTE(store.FieldTimeEnter, float64(clk.NowNS()-int64(2*time.Second))),
				),
				Size: 1,
				Aggs: map[string]store.Agg{"by_thread": {Terms: &store.TermsAgg{Field: store.FieldThreadName}}},
			})
			return err
		},
	}
	rid := rec.begin("viz.refresh", 0)
	c0, t0 := cpuTime(), time.Now()
	ok := true
	for i, panel := range panels {
		pid := rec.beginQuery(panelNames[i], rid)
		p0 := time.Now()
		err := panel()
		d.tried++
		if err != nil {
			d.failed++
			ok = false
		} else {
			d.panels[i].addDur(time.Since(p0))
		}
		rec.endQuery(pid)
	}
	rec.end(rid)
	if ok {
		wall := time.Since(t0)
		d.refresh.addDur(wall)
		d.meter.observe(wall, cpuTime()-c0)
	}
	return ok
}

// run refreshes back to back for dur: one client, no think time, so the
// refresh rate is the reciprocal of the refresh latency.
func (d *dashboard) run(c *store.Client, clk clock.Clock, dur time.Duration, rec *recorder) {
	for start := time.Now(); time.Since(start) < dur; {
		d.refreshOnce(c, clk, rec)
	}
}

// runLive is ingest_saturate (dash=false: open loop above capacity, no
// queries) and live_dashboard (dash=true: lossless rate beside a dashboard).
func runLive(cfg runConfig, rec *recorder, res *result, dash bool) error {
	m := res.metrics
	rate := cfg.sz.saturateRate
	if dash {
		rate = cfg.sz.dashboardRate
	}
	env, setupS, err := timeSetups(cfg.sz.setupRepeats,
		func() (*liveEnv, error) { return setupLive(cfg, rec, dash) }, (*liveEnv).discard)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(env.stack.dir)
	m.setN("setup_s", setupS, cfg.sz.setupRepeats)

	// Timed phase.
	var late samples
	var board dashboard
	var pendingMax float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	now := env.k.Clock().NowNS()
	env.backend.winLo.Store(now + int64(cfg.dur/5))
	env.backend.winHi.Store(now + int64(cfg.dur))
	ackedBefore := env.backend.acked.Load()
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for _, g := range env.gens {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOpenLoop(g, float64(rate)/float64(len(env.gens)), cfg.dur, rec, &late)
		}()
	}
	if dash {
		wg.Add(1)
		go func() {
			defer wg.Done()
			board.run(env.stack.query, env.k.Clock(), cfg.dur, rec)
		}()
	}
	// The traced pass samples the ring backlog every 100 ms.
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if rec != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-t.C:
					if p := env.tracer.Telemetry().Gauges[telemetry.MetricRingPending]; p > pendingMax {
						pendingMax = p
					}
				}
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start), cpuTime()-cpu0
	ackedInPhase := env.backend.acked.Load() - ackedBefore
	close(stopSampler)
	sampler.Wait()
	runtime.ReadMemStats(&after)
	res.wall = wall

	// Quiescence: close open visits, stop the tracer, and check the books.
	for _, g := range env.gens {
		g.finish()
	}
	stopStart := time.Now()
	stats, err := env.tracer.Stop()
	stopDrain := time.Since(stopStart)
	if err != nil {
		res.fail("tracer stop: %v", err)
	}
	ledger := env.tracer.Ledger()
	if !ledger.Balanced() || ledger.Pending != 0 {
		res.fail("ledger does not balance at quiescence: %+v", ledger)
	}
	acked := env.backend.acked.Load()
	if stats.Shipped != acked {
		res.fail("tracer shipped %d events, backend acked %d", stats.Shipped, acked)
	}
	issued, genFailed := 0, 0
	var tallies [numOps]int
	for _, g := range env.gens {
		issued += g.issued
		genFailed += g.failed
		for i, n := range g.counts {
			tallies[i] += n
		}
	}
	if stats.Retries > 0 || stats.Requeued > 0 {
		res.fail("the ship path retried %d times and spilled %d events in a fault-free run", stats.Retries, stats.Requeued)
	}
	if env.backend.BinaryDisabled() {
		res.fail("the client fell back from the binary bulk frame to NDJSON")
	}
	if uint64(issued) != stats.Captured {
		res.fail("generators issued %d syscalls, tracer captured %d", issued, stats.Captured)
	}
	if count, ok := env.stack.countEvents(rec, res, liveIndex); ok && uint64(count) != acked {
		res.fail("store holds %d events, backend acked %d", count, acked)
	}
	lost := stats.Dropped + stats.SpillDropped + stats.ParseErrors
	if dash {
		// Lossless by construction: the store's per-syscall counts must equal
		// the generators' own tallies exactly.
		if lost != 0 {
			res.fail("lossless workload lost %d events", lost)
		}
		id := rec.beginQuery("verify.histogram", 0)
		hist, err := viz.SyscallHistogram(env.stack.query, liveIndex, liveSession)
		rec.endQuery(id)
		res.op(err)
		if err == nil {
			got := map[string]int{}
			for i, l := range hist.Labels {
				got[l] = int(hist.Values[i])
			}
			for i, name := range opNames {
				if got[name] != tallies[i] {
					res.fail("terms(syscall) %s = %d, generators issued %d", name, got[name], tallies[i])
				}
			}
		}
		if n := board.refresh.n(); n < 100 && cfg.dur >= defaultSecs*time.Second {
			res.fail("only %d dashboard refreshes completed, want >= 100", n)
		}
	}
	res.attempted += int(env.backend.flushes.Load()) + board.tried + issued
	res.failed += int(env.backend.flushErrs.Load()) + board.failed + genFailed
	res.info["syscall_sequence_hash"] = seqHash(env.gens)
	res.info["syscalls_issued"] = issued
	res.info["events_acked"] = acked

	var scrape time.Duration
	var series int
	if rec != nil {
		scrape, series, err = scrapeMetrics(env.stack.url)
		res.op(err)
	}
	tracerSnap := env.tracer.Telemetry()
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
	recov, err := recoverStore(dir, liveIndex, 0, cfg.sz.recoverRepeats)
	if err != nil {
		return err
	}
	if uint64(recov.count) != acked {
		res.fail("recovered %d events, backend acked %d", recov.count, acked)
	}

	// End-to-end metrics. On live_dashboard the op is one refresh, metered per
	// refresh. On ingest_saturate the op is one event acked: the open loop has
	// no per-op interval, so its rate is the acks inside the steady window
	// [20 %, 100 %] of the phase over the window's length, and its cost the
	// phase's CPU over the phase's acks. (A median over 100 ms intervals was
	// tried: the typical interval keeps up with the offered rate, so it
	// reported the offered rate and hid the stalls that cost the throughput.)
	// The tracer has stopped, so nothing appends to these any more.
	env.backend.mu.Lock()
	lat, flushMS, sample := env.backend.latMS, env.backend.flushMS, env.backend.sample
	env.backend.mu.Unlock()
	ev := float64(max(acked, 1))
	window := cfg.dur - cfg.dur/5
	ingestRate := float64(env.backend.ackedWindow.Load()) / window.Seconds()
	if dash {
		board.meter.report(m)
		m.setN("op_ms_p50", board.refresh.q(0.5), board.refresh.n())
	} else {
		m.setN("ops_per_s", ingestRate, int(env.backend.ackedWindow.Load()))
		m.setN("cpu_us_per_op", float64(cpu.Microseconds())/float64(max(ackedInPhase, 1)), int(ackedInPhase))
		m.setN("op_ms_p50", quantile(lat, 0.5), len(lat))
	}
	m.set("disk_bytes_per_event", float64(disk)/ev)
	m.set("heap_bytes_per_event", recov.heapBytes/ev)

	// The ISSUE's named figures, kept as unbounded per-layer metrics.
	m.set("peak_rss_mb", peakRSSMB())
	m.setN("recovery_s", median(recov.secs), len(recov.secs))
	m.set("ingest_events_per_s", ingestRate)
	m.set("drop_fraction", float64(lost)/float64(max(stats.Captured, 1)))
	m.set("cpu_us_per_event", float64(cpu.Microseconds())/float64(max(ackedInPhase, 1)))
	m.setN("capture_to_query_ms_p50", quantile(lat, 0.5), len(lat))
	m.setN("capture_to_query_ms_p90", quantile(lat, 0.9), len(lat))
	if dash {
		m.setN("dash_refresh_ms_p50", board.refresh.q(0.5), board.refresh.n())
		m.setN("dash_refresh_ms_p90", board.refresh.q(0.9), board.refresh.n())
		for i, name := range panelNames {
			m.setN(name+"_ms_p50", board.panels[i].q(0.5), board.panels[i].n())
		}
	}
	if rec == nil {
		return nil
	}

	// Per-layer metrics from the traced pass.
	flushes := float64(max(env.backend.flushes.Load(), 1))
	m.set("ebpf.ring_dropped", float64(stats.Dropped))
	m.set("ebpf.ring_pending_max", pendingMax)
	parse := mergeHist(tracerSnap, telemetry.MetricParseNS)
	m.set("core.parse_ns_per_event", parse.Sum/float64(max(stats.Parsed, 1)))
	m.set("core.drain_ms_p50", mergeHist(tracerSnap, telemetry.MetricDrainNS).Quantile(0.5)/1e6)
	m.setN("core.flush_ms_p50", quantile(flushMS, 0.5), len(flushMS))
	m.setN("core.flush_ms_p99", quantile(flushMS, 0.99), len(flushMS))
	m.set("core.flushes", float64(env.backend.flushes.Load()))
	var flushSum float64
	for _, f := range flushMS {
		flushSum += f
	}
	m.set("core.flush_busy_share", flushSum/(ms(wall)*liveRings))
	m.set("core.batch_fill", ev/flushes/512)
	m.set("core.stop_drain_s", stopDrain.Seconds())
	m.set("resilience.attempts", float64(tracerSnap.Counters[telemetry.MetricShipAttempts]))
	m.set("resilience.retries", float64(tracerSnap.Counters[telemetry.MetricRetries]))
	m.set("resilience.spilled", float64(tracerSnap.Counters[telemetry.MetricRequeued]))
	m.setN("store.server.bulk_ms_p50", mw.bulkMS.q(0.5), mw.bulkMS.n())
	m.setN("store.server.bulk_ms_p99", mw.bulkMS.q(0.99), mw.bulkMS.n())
	m.set("store.server.bulk_busy_share", mw.bulkMS.sum()/ms(wall))
	m.set("store.server.bulk_bytes_per_event", float64(mw.bulkBytes.Load())/ev)
	m.set("store.client.bulk_overhead_ms_p50", rec.overheadP50("store.server.bulk"))
	if dash {
		m.setN("store.server.search_ms_p50", mw.searchMS.q(0.5), mw.searchMS.n())
		m.setN("store.server.search_ms_p90", mw.searchMS.q(0.9), mw.searchMS.n())
		m.set("store.client.query_overhead_ms_p50", rec.overheadP50("store.server.search"))
	}
	storeLayerMetrics(m, storeSnap, ev)
	m.set("telemetry.scrape_ms", ms(scrape))
	m.set("telemetry.series", float64(series))
	m.set("proc.allocs_per_event", float64(after.Mallocs-before.Mallocs)/ev)
	m.set("proc.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("proc.heap_mb_end", float64(after.HeapAlloc)/(1<<20))
	m.setN("gen.lateness_ms_p99", late.q(0.99), late.n())
	return probeIngest(cfg, m, sample, dir)
}

// mergeHist sums every histogram of snap whose name starts with prefix (the
// per-worker labeled series share one set of bounds).
func mergeHist(snap telemetry.Snapshot, prefix string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if out.Counts == nil {
			out.Bounds = h.Bounds
			out.Counts = make([]uint64, len(h.Counts))
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Count += h.Count
		out.Sum += h.Sum
	}
	return out
}

// storeLayerMetrics reads the store-side layers from the store's own
// telemetry registry, so the breakdown and GET /metrics cannot disagree.
func storeLayerMetrics(m *metricSet, snap telemetry.Snapshot, events float64) {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	m.set("store.index.bulk_ns_per_event", snap.Histograms[telemetry.MetricBulkNS].Sum/max(c(telemetry.MetricBulkDocs), 1))
	m.set("store.shard_imbalance", snap.Gauges[telemetry.MetricShardImbalance])
	m.set("store.querycache.hit_ratio", ratio(c(telemetry.MetricQueryCacheHits), c(telemetry.MetricQueryCacheMisses)))
	m.set("store.querycache.evictions", c(telemetry.MetricQueryCacheEvictions))
	m.set("store.rollup.hit_ratio", ratio(c(telemetry.MetricRollupAggHits), c(telemetry.MetricRollupAggMisses)))
	m.set("store.rollup.rebuilds", c(telemetry.MetricRollupRebuilds))
	m.set("store.tier.segments_opened", c(telemetry.MetricSegmentsOpened))
	m.set("store.tier.segments_pruned", c(telemetry.MetricSegmentsPruned))
	m.set("store.tier.prune_ratio", ratio(c(telemetry.MetricSegmentsPruned), c(telemetry.MetricSegmentsOpened)))
	m.set("durable.wal_append_ns_per_event", snap.Histograms[telemetry.MetricWALAppendNS].Sum/events)
	m.set("durable.wal_fsync_ms_p50", snap.Histograms[telemetry.MetricWALFsyncNS].Quantile(0.5)/1e6)
	m.set("durable.wal_fsyncs", c(telemetry.MetricWALFsyncs))
	m.set("durable.wal_bytes_per_event", c(telemetry.MetricWALBytes)/events)
}

// scrapeMetrics times one GET /metrics and counts the series it returns.
func scrapeMetrics(url string) (time.Duration, int, error) {
	start := time.Now()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	series := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && line[0] != '#' {
			series++
		}
	}
	return d, series, nil
}
