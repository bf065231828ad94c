package viz

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/metrics"
	"github.com/dsrhaslab/dio-go/internal/store"
)

func TestTableRenderAligned(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"xxxxxx", "1"}, {"y", "2"}},
	}
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Fatalf("title line = %q", lines[0])
	}
	// All table lines share the same width.
	w := len(lines[1])
	for _, l := range lines[2:] {
		if len(l) != w {
			t.Fatalf("misaligned line %q (want width %d)", l, w)
		}
	}
	if !strings.Contains(out, "long_column") || !strings.Contains(out, "xxxxxx") {
		t.Fatalf("content missing: %q", out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestHistogramRender(t *testing.T) {
	h := &Histogram{
		Labels: []string{"read", "write"},
		Values: []float64{100, 50},
		Width:  10,
	}
	out := h.String()
	if !strings.Contains(out, "read") || !strings.Contains(out, "##########") {
		t.Fatalf("histogram = %q", out)
	}
	// write bar is half the width.
	if !strings.Contains(out, "#####") {
		t.Fatalf("histogram = %q", out)
	}
}

func TestHistogramZeroMax(t *testing.T) {
	h := &Histogram{Labels: []string{"x"}, Values: []float64{0}}
	if out := h.String(); !strings.Contains(out, "x") {
		t.Fatalf("histogram = %q", out)
	}
}

func TestTimeSeriesTableAndSpark(t *testing.T) {
	ts := &TimeSeries{
		Title:         "t",
		BucketStartNS: []int64{0, 100, 200},
		Series: map[string][]float64{
			"db_bench":     {10, 5, 0},
			"rocksdb:low0": {0, 8, 9},
		},
		ValueLabel: "syscalls",
	}
	tbl := ts.Table()
	if len(tbl.Columns) != 3 || tbl.Columns[1] != "db_bench" {
		t.Fatalf("columns = %v", tbl.Columns)
	}
	if tbl.Rows[1][2] != "8" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	out := ts.String()
	if !strings.Contains(out, "db_bench") || !strings.Contains(out, "rocksdb:low0") {
		t.Fatalf("spark chart = %q", out)
	}
}

func TestGroupDigits(t *testing.T) {
	cases := map[int64]string{
		0:                "0",
		999:              "999",
		1000:             "1,000",
		1679308382363981: "1,679,308,382,363,981",
		-12345:           "-12,345",
	}
	for in, want := range cases {
		if got := groupDigits(in); got != want {
			t.Errorf("groupDigits(%d) = %q, want %q", in, got, want)
		}
	}
}

func fixtureBackend(t *testing.T) store.Backend {
	t.Helper()
	st := memStore(t)
	tag := event.FileTag{Dev: 7340032, Ino: 12, BirthNS: 99}
	evs := []event.Event{
		{Session: "s", Syscall: "openat", ProcName: "app", ThreadName: "app",
			RetVal: 3, TimeEnterNS: 1000, FileTag: tag, KernelPath: "/tmp/app.log"},
		{Session: "s", Syscall: "write", ProcName: "app", ThreadName: "app",
			RetVal: 26, TimeEnterNS: 2000, FileTag: tag, HasOffset: true},
		{Session: "s", Syscall: "read", ProcName: "fluent-bit", ThreadName: "flb-pipeline",
			RetVal: 0, TimeEnterNS: 3000, FileTag: tag, Offset: 26, HasOffset: true},
	}
	if err := st.BulkEvents(context.Background(), "events", evs); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAccessPatternTable(t *testing.T) {
	b := fixtureBackend(t)
	tbl, err := AccessPatternTable(b, "events", "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Ordered by time; offsets rendered only when present.
	if tbl.Rows[0][2] != "openat" || tbl.Rows[0][5] != "" {
		t.Fatalf("row0 = %v", tbl.Rows[0])
	}
	if tbl.Rows[2][2] != "read" || tbl.Rows[2][5] != "26" {
		t.Fatalf("row2 = %v", tbl.Rows[2])
	}
	if tbl.Rows[0][4] != "7340032 12 99" {
		t.Fatalf("file tag cell = %q", tbl.Rows[0][4])
	}
	if tbl.Rows[0][0] != "1,000" {
		t.Fatalf("time cell = %q", tbl.Rows[0][0])
	}
}

func TestSyscallTimeline(t *testing.T) {
	b := fixtureBackend(t)
	ts, err := SyscallTimeline(b, "events", "s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.BucketStartNS) != 3 {
		t.Fatalf("buckets = %v", ts.BucketStartNS)
	}
	if got := ts.Series["app"]; len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("app series = %v", got)
	}
	if got := ts.Series["flb-pipeline"]; got[2] != 1 {
		t.Fatalf("flb series = %v", got)
	}
}

// TestSyscallTimelineBucketStartsExactAtEpochScale: 50 ms is not a multiple
// of 256 ns, the ulp of a float64 at 1.6e18, so bucket starts read through
// Bucket.KeyNum come back off the interval grid — in-process and over the
// wire alike, since the JSON carries the same float.
func TestSyscallTimelineBucketStartsExactAtEpochScale(t *testing.T) {
	const interval = int64(50 * time.Millisecond)
	st := memStore(t)
	evs := make([]event.Event, 40)
	for i := range evs {
		enter := kernel.BaseTimestampNS + int64(i)*interval + 7
		evs[i] = event.Event{Session: "s", Syscall: "read", ThreadName: "app", TimeEnterNS: enter, TimeExitNS: enter + 1}
	}
	if err := st.BulkEvents(context.Background(), "events", evs); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	for name, b := range map[string]store.Backend{"in-process": st, "store.Client": store.NewClient(srv.URL)} {
		ts, err := SyscallTimeline(b, "events", "s", interval)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ts.BucketStartNS) != len(evs) {
			t.Fatalf("%s: %d buckets, want %d", name, len(ts.BucketStartNS), len(evs))
		}
		for i, start := range ts.BucketStartNS {
			if want := evs[i].TimeEnterNS / interval * interval; start != want {
				t.Errorf("%s: bucket %d starts at %d, want %d", name, i, start, want)
			}
		}
	}
}

func TestSyscallHistogram(t *testing.T) {
	b := fixtureBackend(t)
	h, err := SyscallHistogram(b, "events", "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Labels) != 3 {
		t.Fatalf("labels = %v", h.Labels)
	}
}

func TestLatencySeries(t *testing.T) {
	pts := []metrics.WindowPoint{
		{StartNS: 0, P99: 1_500_000},
		{StartNS: 1000, P99: 3_500_000},
	}
	ts := LatencySeries(pts)
	if ts.Series["p99"][0] != 1500 || ts.Series["p99"][1] != 3500 {
		t.Fatalf("p99 series = %v", ts.Series["p99"])
	}
}

func TestDashboardsErrorOnMissingIndex(t *testing.T) {
	st := memStore(t)
	if _, err := AccessPatternTable(st, "missing", "s"); err == nil {
		t.Fatal("AccessPatternTable on missing index succeeded")
	}
	if _, err := SyscallTimeline(st, "missing", "s", 1000); err == nil {
		t.Fatal("SyscallTimeline on missing index succeeded")
	}
	if _, err := SyscallHistogram(st, "missing", "s"); err == nil {
		t.Fatal("SyscallHistogram on missing index succeeded")
	}
}

// memStore opens an in-memory store.
func memStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
