package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Nil metrics and a nil registry must be usable no-ops: this is how
	// DisableTelemetry makes instrumentation free.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(42)

	var r *Registry
	if r.Counter("x", "") != nil || r.Histogram("x", "", nil) != nil || r.Window("x", "", 1) != nil {
		t.Fatal("nil registry handed out live metrics")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.CounterFunc("y", "", func() uint64 { return 1 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dio_test_total", "help")
	b := r.Counter("dio_test_total", "other help ignored")
	if a != b {
		t.Fatal("re-registering a counter returned a different instance")
	}
	h1 := r.Histogram("dio_test_ns", "", nil)
	h2 := r.Histogram("dio_test_ns", "", []float64{1, 2, 3})
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different instance")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // bucket le=10
	}
	for i := 0; i < 10; i++ {
		h.Observe(15) // bucket le=20
	}
	h.Observe(1e9) // +Inf bucket
	s := h.Snapshot()
	if s.Count != 21 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Quantile(0.5); got < 10 || got > 20 {
		t.Fatalf("p50 = %g, want within (10, 20]", got)
	}
	// The +Inf bucket is estimated at the last finite bound.
	if got := s.Quantile(0.999); got != 30 {
		t.Fatalf("p99.9 = %g, want 30", got)
	}
	wantMean := (10*5 + 10*15 + 1e9) / 21.0
	if got := s.Mean(); math.Abs(got-wantMean) > 1 {
		t.Fatalf("mean = %g, want ~%g", got, wantMean)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean not zero")
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dio_x_total", "things").Add(7)
	var kept atomic.Uint64 // a count its owner keeps; the registry only reads it
	kept.Store(9)
	r.CounterFunc("dio_kept_total", "kept elsewhere", kept.Load)
	r.GaugeFunc("dio_depth", "queue depth", func() float64 { return 3 })
	r.Histogram("dio_lat_ns", "latency", []float64{100, 200}).Observe(150)
	r.Histogram(`dio_lab_ns{worker="0"}`, "labeled", []float64{100}).Observe(50)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dio_x_total counter",
		"dio_x_total 7",
		"# TYPE dio_kept_total counter",
		"dio_kept_total 9",
		"dio_depth 3",
		`dio_lat_ns_bucket{le="100"} 0`,
		`dio_lat_ns_bucket{le="200"} 1`,
		`dio_lat_ns_bucket{le="+Inf"} 1`,
		"dio_lat_ns_count 1",
		`dio_lab_ns_bucket{worker="0",le="100"} 1`,
		`dio_lab_ns_sum{worker="0"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Snapshot exposition agrees on the same lines.
	var sb2 strings.Builder
	if err := r.Snapshot().WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "dio_x_total 7") {
		t.Fatalf("snapshot exposition missing counter:\n%s", sb2.String())
	}
	// A CounterFunc is read when snapshotted, never copied at registration.
	kept.Add(1)
	if got := r.Snapshot().Counters["dio_kept_total"]; got != 10 {
		t.Fatalf("counter func snapshot = %d, want 10", got)
	}
}

func TestLedgerFromSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricCaptured, "").Add(100)
	r.Counter(MetricShipped, "").Add(80)
	r.Counter(MetricReplayed, "").Add(5)
	r.Counter(MetricRingDropped, "").Add(7)
	r.Counter(MetricSpillDropped, "").Add(3)
	r.Counter(MetricParseErrors, "").Add(1)
	r.GaugeFunc(MetricSpillPending, "", func() float64 { return 4 })

	l := LedgerFromSnapshot(r.Snapshot())
	if l.Shipped != 85 {
		t.Fatalf("shipped = %d, want sync+replayed = 85", l.Shipped)
	}
	if l.Accounted() != 85+7+3+1+4 {
		t.Fatalf("accounted = %d", l.Accounted())
	}
	if !l.Balanced() || l.Outstanding() != 0 {
		t.Fatalf("ledger should balance: %+v", l)
	}
	r.Counter(MetricCaptured, "").Add(10)
	l = LedgerFromSnapshot(r.Snapshot())
	if l.Balanced() || l.Outstanding() != 10 {
		t.Fatalf("outstanding = %d, want 10", l.Outstanding())
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines that
// race registration (same and distinct names), recording, and snapshotting.
// Run under -race this is the telemetry stress test the satellite asks for.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("dio_shared_total", "").Inc()
				r.Counter("dio_mine_total", "").Add(1)
				r.Histogram("dio_shared_ns", "", nil).Observe(float64(i))
				r.Gauge("dio_depth", "").Set(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.WriteText(&strings.Builder{})
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["dio_shared_total"]; got != goroutines*iters {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*iters)
	}
	if got := s.Histograms["dio_shared_ns"].Count; got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
}
