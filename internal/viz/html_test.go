package viz

import (
	"context"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

func TestHeatmapFromTimeSeries(t *testing.T) {
	ts := &TimeSeries{
		Title:         "hm",
		BucketStartNS: []int64{0, 100, 200},
		Series: map[string][]float64{
			"a": {0, 5, 10},
			"b": {3, 3, 3},
		},
	}
	h := HeatmapFromTimeSeries(ts)
	if len(h.RowLabels) != 2 || len(h.Values) != 2 || len(h.ColLabels) != 3 {
		t.Fatalf("heatmap = %+v", h)
	}
	out := h.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // title + 2 rows
		t.Fatalf("lines = %v", lines)
	}
	// Row a: zero, mid, full intensity — first cell blank, last full block.
	rowA := lines[1]
	if !strings.Contains(rowA, "█") {
		t.Fatalf("row a missing full intensity: %q", rowA)
	}
	if !strings.Contains(rowA, "max 10") {
		t.Fatalf("row a missing max label: %q", rowA)
	}
}

func TestHeatmapEmptyRow(t *testing.T) {
	h := &Heatmap{RowLabels: []string{"empty"}, Values: [][]float64{{0, 0}}}
	out := h.String()
	if !strings.Contains(out, "empty") {
		t.Fatalf("out = %q", out)
	}
}

func TestHTMLDashboard(t *testing.T) {
	b := fixtureBackend(t)
	var sb strings.Builder
	if err := HTMLDashboard(&sb, b, "events", "s", 1000); err != nil {
		t.Fatalf("dashboard: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"DIO session s",
		"<svg",
		"polyline",
		"openat",
		"flb-pipeline",
		"Access pattern",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// All user data is escaped: no raw angle brackets from paths.
	if strings.Contains(out, "<script") {
		t.Fatal("unexpected script tag")
	}
}

func TestHTMLDashboardEscapesContent(t *testing.T) {
	st := fixtureBackend(t)
	// Inject an event with markup in a field.
	err := st.BulkEvents(context.Background(), "events", []event.Event{{
		Session: "s", Syscall: "<script>alert(1)</script>", ProcName: "evil",
		TimeEnterNS: 5000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := HTMLDashboard(&sb, st, "events", "s", 1000); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "<script>alert(1)</script>") {
		t.Fatal("unescaped markup leaked into the dashboard")
	}
	if !strings.Contains(sb.String(), "&lt;script&gt;") {
		t.Fatal("escaped syscall name missing")
	}
}

func TestHTMLDashboardMissingIndex(t *testing.T) {
	var sb strings.Builder
	st := fixtureBackend(t)
	if err := HTMLDashboard(&sb, st, "missing", "s", 1000); err == nil {
		t.Fatal("dashboard on missing index succeeded")
	}
}
