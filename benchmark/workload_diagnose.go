package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

const (
	sessionIndex = "sessions"
	sessionBuggy = "A"
	sessionClean = "B"
	// analysisTimeout replaces store.Client's 10 s default request deadline,
	// which _diagnose outgrows on large sessions; a timeout is a failed op.
	analysisTimeout = 120 * time.Second
)

// goldenDFG maps "seed/events" to the DFG fingerprint of the buggy session,
// recorded for the default and held-out seeds at full and smoke size.
//
//go:embed testdata/dfg-golden.json
var goldenDFG []byte

type diagEnv struct {
	stack  *stack
	events uint64
}

// traceSession generates one session through the real tracer on a virtual
// ticking clock, so the same seed stores the same event bytes.
func traceSession(cfg runConfig, s *stack, rec *recorder, name string, buggy bool) (uint64, error) {
	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, time.Microsecond)})
	if err := k.MkdirAll("/bench"); err != nil {
		return 0, err
	}
	backend := &ackBackend{Client: store.NewClient(s.url), rec: rec}
	// One ring and one drain worker (the tracer's default): batches then ship
	// in generation order, so the rows' layout in the index, and with it the
	// cost of every later scan, is the same run after run. With two workers
	// the interleaving of their batches moved _diagnose by ±10 % per process.
	tracer, err := core.NewTracer(core.Config{
		SessionName: name,
		Index:       sessionIndex,
		Backend:     backend,
		Resilience:  &resilience.Config{},
	})
	if err != nil {
		return 0, err
	}
	if err := tracer.Start(k); err != nil {
		return 0, err
	}
	gen := newSessionGen(k, cfg.seed, buggy)
	gen.run(cfg.sz.sessionEvents, func() {
		// The virtual clock lets the generator outrun the drain workers; hold
		// it back so the rings never overflow and the session stays lossless.
		for {
			st := tracer.Stats()
			if st.Captured-st.Parsed < 8192 {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	})
	stats, err := tracer.Stop()
	if err != nil {
		return 0, err
	}
	if gen.failed > 0 {
		return 0, fmt.Errorf("session %s: %d generated syscalls failed", name, gen.failed)
	}
	if stats.Retries > 0 || stats.Requeued > 0 || backend.flushErrs.Load() > 0 {
		return 0, fmt.Errorf("session %s: the ship path retried %d times, spilled %d events and failed %d flushes in a fault-free run",
			name, stats.Retries, stats.Requeued, backend.flushErrs.Load())
	}
	if stats.Shipped != uint64(gen.issued) || backend.acked.Load() != stats.Shipped {
		return 0, fmt.Errorf("session %s is not lossless: issued %d, captured %d, shipped %d, acked %d (ring dropped %d)",
			name, gen.issued, stats.Captured, stats.Shipped, backend.acked.Load(), stats.Dropped)
	}
	return stats.Shipped, nil
}

func setupDiagnose(cfg runConfig, rec *recorder) (*diagEnv, error) {
	dir, err := freshDir(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, err
	}
	s, err := startStack(dir, 0, rec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &diagEnv{stack: s}
	for _, sess := range []struct {
		name  string
		buggy bool
	}{{sessionBuggy, true}, {sessionClean, false}} {
		n, err := traceSession(cfg, s, rec, sess.name, sess.buggy)
		if err != nil {
			s.stop()
			os.RemoveAll(dir)
			return nil, err
		}
		env.events += n
	}
	return env, nil
}

func (e *diagEnv) discard() error {
	err := e.stack.stop()
	os.RemoveAll(e.stack.dir)
	return err
}

// tick ships one event of an unrelated session into the sessions' index, as a
// tracer elsewhere would on a live backend. Every mutation bumps the index
// epoch the query cache is keyed by, so the analysis that follows streams
// the session through the cursor instead of replaying 130 cached pages.
func tick(rec *recorder, res *result, c *store.Client, n int) {
	batch := []event.Event{{
		Session: "tick", Syscall: "fsync", Class: "file", ProcName: "other", ThreadName: "other",
		PID: 1, TID: 1, TimeEnterNS: kernel.BaseTimestampNS + int64(n), TimeExitNS: kernel.BaseTimestampNS + int64(n) + 1,
	}}
	id := rec.beginFlush("tick.bulk", batch)
	err := c.BulkEvents(context.Background(), sessionIndex, batch)
	rec.endFlush(id)
	res.op(err)
}

// timedOp runs one analysis request under a client-side span and reports
// whether it succeeded; meter, when not nil, takes it as one interval.
func timedOp(rec *recorder, res *result, span string, lat *samples, meter *opMeter, fn func() error) bool {
	id := rec.beginQuery(span, 0)
	cpu0, start := cpuTime(), time.Now()
	err := fn()
	d, cpu := time.Since(start), cpuTime()-cpu0
	rec.endQuery(id)
	res.op(err)
	if err != nil {
		return false
	}
	lat.addDur(d)
	if meter != nil {
		meter.observe(d, cpu)
	}
	return true
}

func runDiagnose(cfg runConfig, rec *recorder, res *result) error {
	m := res.metrics
	env, setupS, err := timeSetups(cfg.sz.setupRepeats,
		func() (*diagEnv, error) { return setupDiagnose(cfg, rec) }, (*diagEnv).discard)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(env.stack.dir)
	m.setN("setup_s", setupS, cfg.sz.setupRepeats)

	ctx := context.Background()
	env.stack.query.SetRequestTimeout(analysisTimeout)
	dc := diagnose.NewClient(env.stack.query)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	// File-path correlation, once per session (a second pass is a no-op).
	var corrLat samples
	var corr store.CorrelationResult
	for _, name := range []string{sessionBuggy, sessionClean} {
		var r store.CorrelationResult
		ok := timedOp(rec, res, "store.correlate", &corrLat, nil, func() (err error) {
			r, err = env.stack.query.Correlate(ctx, sessionIndex, name)
			return err
		})
		if !ok {
			continue
		}
		if r.EventsUpdated+r.EventsUnresolved+r.EventsAlreadyResolved != r.EventsWithTag {
			res.fail("correlate %s: accounting does not close: %+v", name, r)
		}
		corr.TagsResolved += r.TagsResolved
		corr.EventsUpdated += r.EventsUpdated
		corr.EventsUnresolved += r.EventsUnresolved
	}

	// The rest of the phase: 70 % _diagnose, 15 % _dfg, 15 % _diff, each
	// slice a closed loop that runs at least once, a tick before each request.
	rest := cfg.dur - time.Since(start)
	if rest < 0 {
		rest = 0
	}
	ticks := 0
	slice := func(share time.Duration, fn func()) {
		for t0 := time.Now(); ; {
			tick(rec, res, env.stack.query, ticks)
			ticks++
			fn()
			if time.Since(t0) >= rest*share/100 {
				return
			}
		}
	}
	var meter opMeter
	var diagLat, dfgLat, diffLat samples
	var firstReport []byte
	var findings int
	slice(70, func() {
		var rep diagnose.Report
		ok := timedOp(rec, res, "diagnose.run", &diagLat, &meter, func() (err error) {
			rep, err = dc.Diagnose(ctx, sessionIndex, sessionBuggy)
			return err
		})
		if !ok {
			return
		}
		raw, err := json.Marshal(rep)
		switch {
		case err != nil:
			res.fail("marshal report: %v", err)
		case firstReport == nil:
			firstReport, findings = raw, len(rep.Findings)
		case !bytes.Equal(raw, firstReport):
			res.fail("_diagnose reports differ between calls on the same session")
		}
	})
	var httpFP string
	slice(15, func() {
		var g *diagnose.DFG
		ok := timedOp(rec, res, "diagnose.dfg", &dfgLat, nil, func() (err error) {
			g, err = dc.DFG(ctx, sessionIndex, sessionBuggy)
			return err
		})
		if !ok {
			return
		}
		if fp := g.Fingerprint(); httpFP == "" {
			httpFP = fp
		} else if fp != httpFP {
			res.fail("_dfg fingerprints differ between calls on the same session")
		}
	})
	slice(15, func() {
		var d diagnose.DiffResult
		ok := timedOp(rec, res, "diagnose.diff", &diffLat, nil, func() (err error) {
			d, err = dc.Diff(ctx, sessionIndex, sessionBuggy, sessionClean)
			return err
		})
		if ok && d.HealthA >= d.HealthB {
			res.fail("buggy session scores %d, clean session %d: want buggy below clean", d.HealthA, d.HealthB)
		}
	})
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)

	// The DFG over HTTP must equal an in-process build and the golden.
	local, err := diagnose.BuildDFG(ctx, env.stack.st, sessionIndex, sessionBuggy, 0)
	res.op(err)
	if err == nil && local.Fingerprint() != httpFP {
		res.fail("DFG fingerprint over HTTP %s != in-process %s", httpFP, local.Fingerprint())
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenDFG, &golden); err != nil {
		return fmt.Errorf("testdata/dfg-golden.json: %w", err)
	}
	key := fmt.Sprintf("%d/%d", cfg.seed, cfg.sz.sessionEvents)
	if want, ok := golden[key]; ok && want != httpFP {
		res.fail("DFG fingerprint %s != golden %s for %s", httpFP, want, key)
	}
	res.info["dfg_fingerprint"] = httpFP
	res.info["dfg_golden_key"] = key
	var scrape time.Duration
	var series int
	if rec != nil {
		// A tick first, so the probe's pages are not the ones just cached.
		tick(rec, res, env.stack.query, ticks)
		ticks++
		if err := probeDiagnose(m, env.stack.st); err != nil {
			return err
		}
		scrape, series, err = scrapeMetrics(env.stack.url)
		res.op(err)
	}
	stored := env.events + uint64(ticks)
	if count, ok := env.stack.countEvents(rec, res, sessionIndex); ok && uint64(count) != stored {
		res.fail("store holds %d events, sessions and ticks shipped %d", count, stored)
	}
	storeSnap := env.stack.st.Telemetry().Snapshot()
	dir := env.stack.dir
	if err := env.stack.stop(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	env.stack.release()
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	recov, err := recoverStore(dir, sessionIndex, 0, cfg.sz.recoverRepeats)
	if err != nil {
		return err
	}
	if uint64(recov.count) != stored {
		res.fail("recovered %d events, sessions and ticks shipped %d", recov.count, stored)
	}
	res.info["events_stored"] = stored
	res.info["diagnose_calls"] = diagLat.n()

	// End-to-end: the op is one _diagnose of the buggy session.
	n := diagLat.n()
	meter.report(m)
	m.set("disk_bytes_per_event", float64(disk)/float64(max(stored, 1)))
	m.set("heap_bytes_per_event", recov.heapBytes/float64(max(stored, 1)))

	m.set("peak_rss_mb", peakRSSMB())
	m.setN("recovery_s", median(recov.secs), len(recov.secs))
	m.setN("op_ms_p50", diagLat.q(0.5), n)
	m.setN("diagnose_s", diagLat.q(0.5)/1000, n)
	m.setN("correlate_s", corrLat.sum()/1000, corrLat.n())
	m.setN("diagnose.dfg_s", dfgLat.q(0.5)/1000, dfgLat.n())
	m.setN("diagnose.diff_s", diffLat.q(0.5)/1000, diffLat.n())
	if dfg := dfgLat.q(0.5); dfg > 0 {
		m.set("diagnose.engine_over_dfg", diagLat.q(0.5)/dfg)
	}
	m.set("diagnose.findings", float64(findings))
	m.set("store.correlate.tags_resolved", float64(corr.TagsResolved))
	m.set("store.correlate.events_updated", float64(corr.EventsUpdated))
	m.set("store.correlate.events_unresolved", float64(corr.EventsUnresolved))
	if rec == nil {
		return nil
	}
	storeLayerMetrics(m, storeSnap, float64(env.events))
	m.set("telemetry.scrape_ms", ms(scrape))
	m.set("telemetry.series", float64(series))
	m.set("proc.allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(max(env.events, 1)))
	m.set("proc.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("proc.heap_mb_end", float64(after.HeapAlloc)/(1<<20))
	return nil
}
