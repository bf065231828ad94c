// Package telemetry is DIO's self-accounting layer: a stdlib-only metrics
// registry that every pipeline stage records into, so the tracer's own
// behavior — ring drops, drain latency, breaker state, spill depth, index
// latency — is observable live instead of only post-mortem through
// Tracer.Stop(). Recorder and uringscope ship the same kind of first-class
// tracer self-accounting; the paper's overhead/drop analysis (§III-E,
// Fig. 7) needs it to be reproducible at runtime.
//
// Hot paths are lock-free: counters and gauges are single atomic words,
// histogram observation is two atomic adds plus an atomic bucket increment.
// The registry mutex is taken only on metric registration (once per name)
// and on snapshot/exposition, never per event.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/dio-go/internal/metrics"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is a
// valid no-op, so instrumented code can hold counters unconditionally and a
// disabled registry costs one predictable branch per record.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram upper bounds used for latency
// metrics, in nanoseconds: roughly 1-2.5-5 per decade from 1µs to 10s.
var DefaultLatencyBuckets = []float64{
	1e3, 2.5e3, 5e3, // 1µs .. 5µs
	1e4, 2.5e4, 5e4, // 10µs .. 50µs
	1e5, 2.5e5, 5e5, // 100µs .. 500µs
	1e6, 2.5e6, 5e6, // 1ms .. 5ms
	1e7, 2.5e7, 5e7, // 10ms .. 50ms
	1e8, 2.5e8, 5e8, // 100ms .. 500ms
	1e9, 2.5e9, 5e9, // 1s .. 5s
	1e10, // 10s
}

// Histogram is a fixed-bucket histogram with a lock-free observe path. The
// bucket bounds are upper bounds (le semantics); observations above the last
// bound land in the implicit +Inf bucket. Sum is accumulated in integer
// units (callers observe nanoseconds), so there is no floating-point CAS
// loop on the hot path.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search the bucket; bounds are ascending.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v))
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations in (Bounds[i-1], Bounds[i]]. Counts has one extra entry
	// for the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram counters. Buckets are read individually, so
// a snapshot taken during concurrent observation may be off by in-flight
// samples — fine for monitoring, exact at quiescence.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    float64(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the containing bucket, the standard fixed-bucket estimator.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the best point estimate is the last finite bound.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metric is one registered entry; exactly one field is set.
type metric struct {
	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	histogram   *Histogram
	window      *metrics.WindowedRecorder
	help        string
}

// Registry is a named collection of metrics. Registration is idempotent per
// (name, kind): re-registering returns the existing metric, so independent
// components can share a registry without coordination. A nil *Registry is
// valid and hands out nil metrics, making telemetry free to disable.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name string) *metric {
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{}
		r.metrics[name] = m
		r.order = append(r.order, name)
	}
	return m
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name)
	if m.counter == nil {
		m.counter = &Counter{}
		m.help = help
	}
	return m.counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name)
	if m.gauge == nil {
		m.gauge = &Gauge{}
		m.help = help
	}
	return m.gauge
}

// CounterFunc registers a pull-style counter read at snapshot and scrape
// time: the series for a count a component already keeps (events captured,
// spill drops, breaker trips), so one fact has one counter and the registry
// reads it rather than keeping a second. fn must be monotonic and must not
// call back into the registry. Registering the name again replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name)
	m.counterFunc = fn
	m.help = help
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time — the
// shape used for values that already exist as state elsewhere (spill depth,
// breaker position, shard imbalance) so the hot path pays nothing.
// Registering the name again replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name)
	m.gaugeFunc = fn
	m.help = help
}

// Forget drops the named series, whatever its kind, so a scrape no longer
// reports it and the registry no longer holds what its gauge function
// captured. Registering the name again starts a fresh series.
func (r *Registry) Forget(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.metrics, name)
	r.order = slices.DeleteFunc(r.order, func(n string) bool { return n == name })
}

// Histogram returns the named histogram, registering it with bounds on
// first use (nil bounds selects DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name)
	if m.histogram == nil {
		m.histogram = newHistogram(bounds)
		m.help = help
	}
	return m.histogram
}

// Window returns the named windowed latency recorder (windowNS bucket
// width), registering it on first use. Windows feed the "DIO observing DIO"
// time-series dashboards; unlike histograms they keep raw samples, so they
// are reserved for batch-level (not per-event) observations.
func (r *Registry) Window(name, help string, windowNS int64) *metrics.WindowedRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name)
	if m.window == nil {
		m.window = metrics.NewWindowedRecorder(windowNS)
		m.help = help
	}
	return m.window
}

// Snapshot is a point-in-time copy of a registry: plain maps, safe to
// serialize, compare, and render after the pipeline has moved on.
type Snapshot struct {
	Counters   map[string]uint64                `json:"counters,omitempty"`
	Gauges     map[string]float64               `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot     `json:"histograms,omitempty"`
	Windows    map[string][]metrics.WindowPoint `json:"windows,omitempty"`
}

// Snapshot copies every metric's current value. CounterFuncs and GaugeFuncs
// are evaluated under the registry lock, so they must be cheap reads and
// must not call back into the same registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
		Windows:    make(map[string][]metrics.WindowPoint),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, m := range r.metrics {
		switch {
		case m.counter != nil:
			s.Counters[name] = m.counter.Value()
		case m.counterFunc != nil:
			s.Counters[name] = m.counterFunc()
		case m.gauge != nil:
			s.Gauges[name] = float64(m.gauge.Value())
		case m.gaugeFunc != nil:
			s.Gauges[name] = m.gaugeFunc()
		case m.histogram != nil:
			s.Histograms[name] = m.histogram.Snapshot()
		case m.window != nil:
			s.Windows[name] = m.window.Series()
		}
	}
	return s
}

// WriteText renders the registry in the Prometheus text exposition format
// (counters/gauges/histograms; windows are snapshot-only). Metrics are
// emitted in registration order with names sorted within a write for
// deterministic output across runs.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	lookup := make(map[string]*metric, len(names))
	for _, n := range names {
		lookup[n] = r.metrics[n]
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		m := lookup[name]
		if err := writeMetricText(w, name, m); err != nil {
			return err
		}
	}
	return nil
}

func writeMetricText(w io.Writer, name string, m *metric) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	base, labels := splitLabels(name)
	if m.help != "" {
		p("# HELP %s %s\n", base, m.help)
	}
	switch {
	case m.counter != nil:
		p("# TYPE %s counter\n%s %d\n", base, name, m.counter.Value())
	case m.counterFunc != nil:
		p("# TYPE %s counter\n%s %d\n", base, name, m.counterFunc())
	case m.gauge != nil:
		p("# TYPE %s gauge\n%s %d\n", base, name, m.gauge.Value())
	case m.gaugeFunc != nil:
		p("# TYPE %s gauge\n%s %g\n", base, name, m.gaugeFunc())
	case m.histogram != nil:
		s := m.histogram.Snapshot()
		p("# TYPE %s histogram\n", base)
		var cum uint64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			p("%s %d\n", labeledName(base, labels, fmt.Sprintf("%g", b)), cum)
		}
		cum += s.Counts[len(s.Bounds)]
		p("%s %d\n", labeledName(base, labels, "+Inf"), cum)
		p("%s_sum%s %g\n%s_count%s %d\n", base, labels, s.Sum, base, labels, s.Count)
	}
	return err
}

// splitLabels separates a registered name like `dio_store_docs{index="x"}`
// into base name and label block (labels may be empty).
func splitLabels(name string) (base, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}

// labeledName renders a histogram bucket line name with the le label merged
// into any existing label block.
func labeledName(base, labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("%s_bucket{le=%q}", base, le)
	}
	// labels is `{k="v",...}`; splice le before the closing brace.
	return fmt.Sprintf("%s_bucket%s,le=%q}", base, labels[:len(labels)-1], le)
}

// WriteText renders a snapshot in the same text format (counters, gauges,
// and histograms), for callers that hold a Snapshot rather than a live
// Registry.
func (s Snapshot) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		base, _ := splitLabels(name)
		p("# TYPE %s counter\n%s %d\n", base, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, _ := splitLabels(name)
		p("# TYPE %s gauge\n%s %g\n", base, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := splitLabels(name)
		h := s.Histograms[name]
		p("# TYPE %s histogram\n", base)
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			p("%s %d\n", labeledName(base, labels, fmt.Sprintf("%g", b)), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		p("%s %d\n", labeledName(base, labels, "+Inf"), cum)
		p("%s_sum%s %g\n%s_count%s %d\n", base, labels, h.Sum, base, labels, h.Count)
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
