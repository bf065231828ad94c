package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// runTelemetryWorkload traces a small open/write/close burst.
func runTelemetryWorkload(t *testing.T, k *kernel.Kernel, writes int) {
	t.Helper()
	task := k.NewProcess("tm").NewTask("tm")
	fd, err := task.Openat(kernel.AtFDCWD, "/tmp/tm.log", kernel.OWronly|kernel.OCreat, 0o644)
	if err != nil {
		t.Fatalf("openat: %v", err)
	}
	for i := 0; i < writes; i++ {
		task.Write(fd, []byte("x"))
	}
	task.Close(fd)
}

func TestTracerTelemetrySnapshot(t *testing.T) {
	k := newTracedKernel(t)
	tr, err := NewTracer(Config{
		SessionName:   "tm",
		Index:         "events",
		Backend:       memStore(t),
		FlushInterval: time.Millisecond,
		Resilience:    chaosResilience(),
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	runTelemetryWorkload(t, k, 200)
	st, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}

	s := tr.Telemetry()
	// The snapshot agrees with the Stop statistics stage by stage.
	if got := s.Counters[telemetry.MetricCaptured]; got != st.Captured {
		t.Fatalf("captured: telemetry %d, stats %d", got, st.Captured)
	}
	if got := s.Counters[telemetry.MetricParsed]; got != st.Parsed {
		t.Fatalf("parsed: telemetry %d, stats %d", got, st.Parsed)
	}
	if got := s.Counters[telemetry.MetricShipped] + s.Counters[telemetry.MetricReplayed]; got != st.Shipped {
		t.Fatalf("shipped: telemetry %d, stats %d", got, st.Shipped)
	}
	if got := s.Counters[telemetry.MetricRingProduced] + s.Counters[telemetry.MetricRingDropped]; got != st.Captured {
		t.Fatalf("ring produce(%d)+drop(%d) != captured %d",
			s.Counters[telemetry.MetricRingProduced], s.Counters[telemetry.MetricRingDropped], st.Captured)
	}
	// Per-worker drain and parse histograms exist and saw work.
	var drainObs uint64
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, telemetry.MetricDrainNS) {
			drainObs += h.Count
		}
	}
	if drainObs == 0 {
		t.Fatal("no per-worker drain cycles recorded")
	}
	if s.Histograms[telemetry.MetricFlushNS].Count == 0 {
		t.Fatal("no flush latency recorded")
	}
	if len(s.Windows[telemetry.MetricFlushWindow]) == 0 {
		t.Fatal("no windowed flush latency recorded")
	}
	assertLedgerBalanced(t, tr)
}

func TestTracerTelemetryDisabled(t *testing.T) {
	k := newTracedKernel(t)
	tr, err := NewTracer(Config{
		SessionName:      "off",
		Backend:          memStore(t),
		FlushInterval:    time.Millisecond,
		DisableTelemetry: true,
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	if tr.TelemetryRegistry() != nil {
		t.Fatal("DisableTelemetry left a registry")
	}
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	runTelemetryWorkload(t, k, 50)
	st, err := tr.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Captured == 0 || st.Shipped == 0 {
		t.Fatalf("pipeline broken with telemetry off: %+v", st)
	}
	s := tr.Telemetry()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("disabled telemetry produced a non-empty snapshot")
	}
}

// TestMetricsEndpointAllStages is the acceptance check for the tentpole: a
// co-located tracer attaches its registry to the store server, and one GET
// /metrics scrape exposes instruments from all five pipeline stages.
func TestMetricsEndpointAllStages(t *testing.T) {
	k := newTracedKernel(t)
	st := memStore(t)
	srv := store.NewServer(st)

	tr, err := NewTracer(Config{
		SessionName:   "metrics",
		Index:         "events",
		Backend:       st,
		FlushInterval: time.Millisecond,
		Resilience:    chaosResilience(),
		AutoCorrelate: true,
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	srv.ExposeTelemetry(tr.TelemetryRegistry())
	srv.ExposeTelemetry(tr.TelemetryRegistry()) // idempotent: no duplicate output

	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	runTelemetryWorkload(t, k, 100)
	if _, err := tr.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		telemetry.MetricCaptured,                  // stage 1: ebpf
		telemetry.MetricParsed,                    // stage 2: core drain
		telemetry.MetricShipAttempts,              // stage 3: resilience
		telemetry.MetricBulkDocs,                  // stage 4: store
		telemetry.MetricCorrelateRuns,             // stage 5: correlation
		telemetry.MetricShardImbalance,            // store gauge
		`dio_core_drain_ns_bucket{worker="0",le=`, // per-worker labeled histogram
		`dio_store_docs{index="events"}`,          // per-index gauge
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q\n%s", want, out)
		}
	}
	samples := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dio_ebpf_captured_total ") {
			samples++
		}
	}
	if samples != 1 {
		t.Fatalf("dio_ebpf_captured_total emitted %d times; duplicate registry attachment?", samples)
	}
}
