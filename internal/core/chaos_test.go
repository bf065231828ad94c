package core

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// chaosResilience is a fast-converging resilience config for chaos tests:
// millisecond-scale backoffs and cooldowns so a full retry → breaker →
// spill → replay cycle fits in a unit test.
func chaosResilience() *resilience.Config {
	return &resilience.Config{
		Policy: resilience.Policy{
			MaxAttempts:      3,
			BaseBackoff:      200 * time.Microsecond,
			MaxBackoff:       time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  5 * time.Millisecond,
		},
		SpillEvents: 1 << 16,
	}
}

// virtualResilience is the default ship path on a virtual clock: backoffs
// and breaker cooldowns cost no wall time, so a test against a backend that
// never recovers still runs in milliseconds.
func virtualResilience() *resilience.Config {
	return &resilience.Config{Policy: resilience.Policy{Clock: clock.NewVirtual(0)}}
}

// runChaosWorkload writes events spread over enough flush intervals that the
// drain workers ship many separate batches while faults are being injected.
func runChaosWorkload(t *testing.T, k *kernel.Kernel, writes int) {
	t.Helper()
	task := k.NewProcess("chaos").NewTask("chaos")
	fd, err := task.Openat(kernel.AtFDCWD, "/tmp/chaos.log", kernel.OWronly|kernel.OCreat, 0o644)
	if err != nil {
		t.Fatalf("openat: %v", err)
	}
	for i := 0; i < writes; i++ {
		task.Write(fd, []byte("x"))
		if i%100 == 99 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	task.Close(fd)
}

// assertExactAccounting is the chaos invariant: every captured event is
// either shipped or counted in exactly one drop counter — zero unaccounted
// loss, the property the whole resilience ladder exists to protect.
func assertExactAccounting(t *testing.T, st Stats) {
	t.Helper()
	if st.Captured == 0 {
		t.Fatal("no events captured")
	}
	if got := st.Shipped + st.Dropped + st.SpillDropped + st.ParseErrors; got != st.Captured {
		t.Fatalf("unaccounted loss: shipped(%d) + dropped(%d) + spillDropped(%d) + parseErrors(%d) = %d, captured = %d",
			st.Shipped, st.Dropped, st.SpillDropped, st.ParseErrors, got, st.Captured)
	}
}

// assertLedgerBalanced asserts the same invariant through the runtime
// telemetry snapshot (DESIGN.md §9) instead of the Stop statistics: after
// Stop the pipeline is quiescent, so the conservation ledger must close with
// nothing pending.
func assertLedgerBalanced(t *testing.T, tr *Tracer) {
	t.Helper()
	l := tr.Ledger()
	if l.Captured == 0 {
		t.Fatal("telemetry ledger captured nothing")
	}
	if l.Pending != 0 {
		t.Fatalf("ledger pending = %d after Stop, want 0", l.Pending)
	}
	if !l.Balanced() {
		t.Fatalf("telemetry ledger does not close: %+v (outstanding %d)", l, l.Outstanding())
	}
}

// statsSeries names, for each count Stats reports, the telemetry series that
// must read the same memory.
func statsSeries(st Stats) map[string]uint64 {
	var flushes uint64
	for _, w := range st.Workers {
		flushes += w.Flushes
	}
	return map[string]uint64{
		telemetry.MetricCaptured:      st.Captured,
		telemetry.MetricFiltered:      st.Filtered,
		telemetry.MetricRingDropped:   st.Dropped,
		telemetry.MetricParsed:        st.Parsed,
		telemetry.MetricParseErrors:   st.ParseErrors,
		telemetry.MetricShipped:       st.Shipped - st.Replayed,
		telemetry.MetricShipErrors:    st.ShipErrors,
		telemetry.MetricFlushes:       flushes,
		telemetry.MetricRetries:       st.Retries,
		telemetry.MetricRequeued:      st.Requeued,
		telemetry.MetricReplayed:      st.Replayed,
		telemetry.MetricSpillDropped:  st.SpillDropped,
		telemetry.MetricBreakerOpens:  st.BreakerOpens,
		telemetry.MetricBreakerCloses: st.Resilience.BreakerCloses,
	}
}

// assertStatsMatchTelemetry: every tracer, shipper and breaker count in Stats
// equals its series in the snapshot.
func assertStatsMatchTelemetry(t *testing.T, st Stats, snap telemetry.Snapshot) {
	t.Helper()
	for name, want := range statsSeries(st) {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), Stats says %d", name, got, ok, want)
		}
	}
}

// assertLedgerMatchesStats: each ledger term equals the Stats field it
// names, and the ledger closes with nothing pending.
func assertLedgerMatchesStats(t *testing.T, st Stats, l telemetry.Ledger) {
	t.Helper()
	want := telemetry.Ledger{
		Captured:     st.Captured,
		Shipped:      st.Shipped,
		RingDropped:  st.Dropped,
		SpillDropped: st.SpillDropped,
		ParseErrors:  st.ParseErrors,
	}
	if l != want {
		t.Fatalf("ledger %+v, Stats terms %+v", l, want)
	}
	if !l.Balanced() {
		t.Fatalf("ledger does not close: %+v (outstanding %d)", l, l.Outstanding())
	}
}

// refusingBackend fails every bulk request with an unclassified error, as a
// backend whose port refuses connections does.
type refusingBackend struct{ store.Backend }

func (refusingBackend) BulkEvents(context.Context, string, []event.Event) error {
	return errors.New("dial tcp: connection refused")
}

// rejectingBackend answers every bulk request with a permanent rejection.
type rejectingBackend struct{ store.Backend }

func (rejectingBackend) BulkEvents(context.Context, string, []event.Event) error {
	return resilience.Permanent(errors.New("mapping rejected"))
}

// TestLedgerClosesOnEveryShipFailure: a tracer built with Resilience left nil
// ships through the ladder, so a failing backend loses no event uncounted —
// each ends in SpillDropped, and the ledger and Stats agree term by term.
// The overflow arm sets only what it needs (a spill queue smaller than one
// batch) on a virtual clock.
func TestLedgerClosesOnEveryShipFailure(t *testing.T) {
	overflow := virtualResilience()
	overflow.SpillEvents = 8
	for _, tc := range []struct {
		name       string
		backend    func(store.Backend) store.Backend
		resilience *resilience.Config
	}{
		{"refused", func(b store.Backend) store.Backend { return refusingBackend{b} }, nil},
		{"permanent", func(b store.Backend) store.Backend { return rejectingBackend{b} }, nil},
		{"spill-overflow", func(b store.Backend) store.Backend { return refusingBackend{b} }, overflow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTracedKernel(t)
			tr, err := NewTracer(Config{
				Backend:       tc.backend(memStore(t)),
				BatchSize:     16,
				FlushInterval: time.Millisecond,
				Resilience:    tc.resilience,
			})
			if err != nil {
				t.Fatalf("NewTracer: %v", err)
			}
			if err := tr.Start(k); err != nil {
				t.Fatalf("Start: %v", err)
			}
			runTelemetryWorkload(t, k, 100)
			st, err := tr.Stop()
			if err == nil {
				t.Fatal("Stop returned nil despite ship failures")
			}
			if st.Captured == 0 || st.Shipped != 0 || st.SpillDropped != st.Captured {
				t.Fatalf("every captured event must end in SpillDropped: %+v", st)
			}
			assertLedgerMatchesStats(t, st, tr.Ledger())
			assertStatsMatchTelemetry(t, st, tr.Telemetry())
		})
	}
}

func TestTracerChaosExactAccounting(t *testing.T) {
	k := newTracedKernel(t)
	inner := memStore(t)
	faulty := resilience.NewFaultyBackend(inner, 1)
	faulty.SetErrorRate(0.3)
	faulty.ScriptOutage(10, 16) // one scripted full outage mid-run

	tr, err := NewTracer(Config{
		SessionName:   "chaos",
		Index:         "events",
		Backend:       faulty,
		BatchSize:     32,
		FlushInterval: time.Millisecond,
		Resilience:    chaosResilience(),
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	runChaosWorkload(t, k, 3000)

	// The backend recovers before shutdown, as in a real transient incident;
	// the final flush must then deliver everything still parked.
	faulty.SetErrorRate(0)
	st, _ := tr.Stop() // a non-nil error only reports the transient failures

	assertExactAccounting(t, st)
	assertLedgerBalanced(t, tr)
	assertLedgerMatchesStats(t, st, tr.Ledger())
	assertStatsMatchTelemetry(t, st, tr.Telemetry())
	if st.SpillDropped != 0 {
		t.Fatalf("events dropped despite recovery: %+v", st.Resilience)
	}
	if st.Retries == 0 {
		t.Fatal("no retries under 30% fault injection")
	}
	if st.BreakerOpens == 0 {
		t.Fatal("breaker never opened during the scripted outage")
	}
	if st.Resilience == nil || st.Resilience.BreakerCloses == 0 {
		t.Fatalf("breaker never closed after recovery: %+v", st.Resilience)
	}
	if st.Resilience.BreakerState != "closed" {
		t.Fatalf("breaker state = %s after recovery", st.Resilience.BreakerState)
	}
	if st.Requeued == 0 || st.Replayed != st.Requeued {
		t.Fatalf("spill was not fully replayed: %+v", st.Resilience)
	}
	// The store holds exactly the shipped events: nothing duplicated by
	// retries-after-spill, nothing missing.
	n, err := inner.Count(context.Background(), "events", store.Term(store.FieldSession, "chaos"))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if uint64(n) != st.Shipped {
		t.Fatalf("store holds %d events, stats say %d shipped", n, st.Shipped)
	}
}

func TestTracerChaosOverHTTP(t *testing.T) {
	k := newTracedKernel(t)
	st := memStore(t)
	chaos := resilience.NewFaultHandler(store.NewServer(st), 1)
	chaos.SetErrorRate(0.3)
	srv := httptest.NewServer(chaos)
	t.Cleanup(srv.Close)
	client := store.NewClient(srv.URL)

	tr, err := NewTracer(Config{
		SessionName:   "chaos-http",
		Index:         "events",
		Backend:       client,
		BatchSize:     16,
		FlushInterval: time.Millisecond,
		Resilience:    chaosResilience(),
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Keep generating load until the fault handler has demonstrably injected
	// failures into the live ship path (the seeded dice decide exactly when).
	for round := 0; round < 20 && chaos.Injected() == 0; round++ {
		runChaosWorkload(t, k, 300)
	}
	if chaos.Injected() == 0 {
		t.Fatal("fault handler injected nothing")
	}
	chaos.SetErrorRate(0) // recover before shutdown
	stats, _ := tr.Stop()

	assertExactAccounting(t, stats)
	assertLedgerBalanced(t, tr)
	if stats.SpillDropped != 0 {
		t.Fatalf("events dropped despite recovery: %+v", stats.Resilience)
	}
	if stats.Retries == 0 {
		t.Fatal("no retries despite injected 503s")
	}
	n, err := st.Count(context.Background(), "events", store.Term(store.FieldSession, "chaos-http"))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if uint64(n) != stats.Shipped {
		t.Fatalf("store holds %d events, stats say %d shipped", n, stats.Shipped)
	}
}

func TestTracerChaosPermanentOutageCountsDrops(t *testing.T) {
	k := newTracedKernel(t)
	faulty := resilience.NewFaultyBackend(memStore(t), 1)
	faulty.SetErrorRate(1) // dead for the whole session, shutdown included

	tr, _ := NewTracer(Config{
		SessionName:   "dead",
		Index:         "events",
		Backend:       faulty,
		BatchSize:     32,
		FlushInterval: time.Millisecond,
		Resilience:    chaosResilience(),
	})
	tr.Start(k)
	runChaosWorkload(t, k, 500)
	st, err := tr.Stop()
	if err == nil {
		t.Fatal("Stop must report the delivery failure")
	}
	assertExactAccounting(t, st)
	assertLedgerBalanced(t, tr)
	if st.Shipped != 0 {
		t.Fatalf("shipped %d events through a dead backend", st.Shipped)
	}
	if st.SpillDropped == 0 {
		t.Fatal("lost events were not counted")
	}
}

// countingFailBackend fails every BulkEvents with a distinct error message.
type countingFailBackend struct {
	store.Backend
	calls atomic64
}

type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) next() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	return a.n
}

func (c *countingFailBackend) BulkEvents(context.Context, string, []event.Event) error {
	return resilience.Permanent(fmt.Errorf("backend unavailable (failure %d)", c.calls.next()))
}

func TestTracerErrorListBoundedAndDistinct(t *testing.T) {
	k := newTracedKernel(t)
	tr, _ := NewTracer(Config{
		Backend:       &countingFailBackend{Backend: memStore(t)},
		BatchSize:     1, // one failing flush per event
		FlushInterval: time.Millisecond,
		Resilience:    virtualResilience(),
	})
	tr.Start(k)
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/e", kernel.OWronly|kernel.OCreat, 0o644)
	for i := 0; i < 28; i++ {
		task.Write(fd, []byte("x"))
	}
	task.Close(fd)
	st, err := tr.Stop()
	if err == nil {
		t.Fatal("Stop returned nil despite ship failures")
	}
	if st.ShipErrors < 10 {
		t.Fatalf("ship errors = %d, want many", st.ShipErrors)
	}
	msg := err.Error()
	if !strings.Contains(msg, "failure 1)") {
		t.Fatalf("first error lost from report: %s", msg)
	}
	if got := strings.Count(msg, "backend unavailable"); got != 8 {
		t.Fatalf("retained %d errors, want 8 (bounded): %s", got, msg)
	}
	if !strings.Contains(msg, "more distinct errors omitted") {
		t.Fatalf("overflow not reported: %s", msg)
	}
}

// errShort produces an undecodable ring record.
var errShortRecord = []byte{0x01, 0x02, 0x03}

func TestTracerCountsParseErrors(t *testing.T) {
	k := newTracedKernel(t)
	backend := memStore(t)
	tr, _ := NewTracer(Config{
		SessionName:   "parse",
		Index:         "events",
		Backend:       backend,
		FlushInterval: time.Millisecond,
	})
	tr.Start(k)
	task := k.NewProcess("app").NewTask("app")
	fd, _ := task.Openat(kernel.AtFDCWD, "/tmp/p", kernel.OWronly|kernel.OCreat, 0o644)
	task.Close(fd)
	// Inject corrupt records directly into the rings, as a kernel-side bug
	// or torn write would.
	for _, ring := range tr.prog.Rings().Rings() {
		ring.Write(errShortRecord)
	}
	st, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.ParseErrors != uint64(len(tr.prog.Rings().Rings())) {
		t.Fatalf("parse errors = %d, want %d", st.ParseErrors, len(tr.prog.Rings().Rings()))
	}
	if st.Shipped != 2 {
		t.Fatalf("valid events shipped = %d, want 2", st.Shipped)
	}
	var workerParseErrs uint64
	for _, w := range st.Workers {
		workerParseErrs += w.ParseErrors
	}
	if workerParseErrs != st.ParseErrors {
		t.Fatalf("worker parse errors %d != total %d", workerParseErrs, st.ParseErrors)
	}
}
