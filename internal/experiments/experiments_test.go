package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/comparators"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/metrics"
	"github.com/dsrhaslab/dio-go/internal/store"
)

func TestRunTable1(t *testing.T) {
	tbl := RunTable1()
	if len(tbl.Rows) != 5 { // 4 classes + total
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[4][2] != "42" {
		t.Fatalf("total = %q, want 42", tbl.Rows[4][2])
	}
	out := tbl.String()
	for _, name := range []string{"openat", "getxattr", "mknod", "pread64"} {
		if !strings.Contains(out, name) {
			t.Errorf("table missing syscall %q", name)
		}
	}
}

func TestRunTable2MatchesPaperShape(t *testing.T) {
	res, err := RunTable2(300)
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PaperOverhead == 0 {
			t.Fatalf("missing paper reference for %s", row.Mode)
		}
		// Measured overhead within 25% of the paper's value.
		ratio := row.Overhead / row.PaperOverhead
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s overhead %.2f vs paper %.2f", row.Mode, row.Overhead, row.PaperOverhead)
		}
	}
	if !strings.Contains(res.Table.String(), "strace") {
		t.Fatal("rendered table missing strace row")
	}
}

func TestRunTable3(t *testing.T) {
	tbl := RunTable3()
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestRunFig2Buggy(t *testing.T) {
	res, err := RunFig2(fluentbit.VersionBuggy)
	if err != nil {
		t.Fatalf("fig2a: %v", err)
	}
	if !res.Scenario.DataLost() {
		t.Fatal("buggy scenario did not lose data")
	}
	if res.Tracer.Dropped != 0 {
		t.Fatalf("tracer dropped %d events", res.Tracer.Dropped)
	}
	out := res.Table.String()
	// The paper's key row: a read at offset 26 returning 0 by fluent-bit.
	if !strings.Contains(out, "fluent-bit") {
		t.Fatalf("table missing fluent-bit rows:\n%s", out)
	}
	foundBadRead := false
	for _, row := range res.Table.Rows {
		if row[1] == "fluent-bit" && row[2] == "read" && row[3] == "0" && row[5] == "26" {
			foundBadRead = true
		}
	}
	if !foundBadRead {
		t.Fatalf("erroneous read (ret 0 at offset 26) not in table:\n%s", out)
	}
	// The lseek to 26 also appears (Fig. 2a step 5).
	foundSeek := false
	for _, row := range res.Table.Rows {
		if row[2] == "lseek" && row[3] == "26" {
			foundSeek = true
		}
	}
	if !foundSeek {
		t.Fatalf("lseek to 26 not in table:\n%s", out)
	}
	// Both generations of app.log share the inode number but differ in
	// file-tag timestamp: there must be exactly 2 distinct tags.
	tags := map[string]bool{}
	for _, row := range res.Table.Rows {
		if row[4] != "" {
			tags[row[4]] = true
		}
	}
	if len(tags) != 2 {
		t.Fatalf("distinct file tags = %d, want 2 (inode reuse)", len(tags))
	}
	// All tagged events were path-correlated.
	if res.Tracer.Correlation.EventsUnresolved != 0 {
		t.Fatalf("unresolved events: %d", res.Tracer.Correlation.EventsUnresolved)
	}
	n, err := res.Backend.Count(context.Background(), res.Index, store.Must(
		store.Term(store.FieldSession, res.Session),
		store.Term(store.FieldFilePath, "/var/log/app.log"),
	))
	if err != nil || n == 0 {
		t.Fatalf("correlated path count = (%d, %v)", n, err)
	}
}

func TestRunFig2Fixed(t *testing.T) {
	res, err := RunFig2(fluentbit.VersionFixed)
	if err != nil {
		t.Fatalf("fig2b: %v", err)
	}
	if res.Scenario.DataLost() {
		t.Fatal("fixed scenario lost data")
	}
	// The fixed version's second-file read: ret 16 at offset 0, by
	// flb-pipeline (Fig. 2b step 5).
	found := false
	for _, row := range res.Table.Rows {
		if row[1] == "flb-pipeline" && row[2] == "read" && row[3] == "16" && row[5] == "0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrected read (ret 16 at offset 0) not in table:\n%s", res.Table.String())
	}
	// No lseek past EOF in the fixed version.
	for _, row := range res.Table.Rows {
		if row[2] == "lseek" {
			t.Fatalf("unexpected lseek in fixed version:\n%s", res.Table.String())
		}
	}
}

func TestRunDropsSweepMonotone(t *testing.T) {
	res, err := RunDrops(DropsConfig{
		RingBytesSweep: []int{8 << 10, 128 << 10, 8 << 20},
		Writes:         5_000,
		FlushInterval:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("drops: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	small, large := res.Points[0], res.Points[2]
	if small.DropFraction == 0 {
		t.Fatal("tiny ring dropped nothing")
	}
	if large.DropFraction >= small.DropFraction {
		t.Fatalf("drop fraction not shrinking: %v -> %v", small.DropFraction, large.DropFraction)
	}
	for _, p := range res.Points {
		if p.Captured == 0 {
			t.Fatalf("point %+v captured nothing", p)
		}
		if p.DropFraction < 0 || p.DropFraction > 1 {
			t.Fatalf("bad drop fraction %v", p.DropFraction)
		}
	}
}

func TestRunPathResolutionShape(t *testing.T) {
	res, err := RunPathResolution(PathsConfig{Ops: 3_000})
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	// Paper: DIO unresolved ≤5%, Sysdig ≈45%.
	if res.DIOUnresolved > 0.05 {
		t.Errorf("DIO unresolved = %.1f%%, want <=5%%", res.DIOUnresolved*100)
	}
	if res.SysdigUnresolved < 0.30 || res.SysdigUnresolved > 0.70 {
		t.Errorf("Sysdig unresolved = %.1f%%, want ≈45%%", res.SysdigUnresolved*100)
	}
	if res.SysdigUnresolved <= res.DIOUnresolved {
		t.Errorf("shape violated: sysdig (%.2f) <= DIO (%.2f)",
			res.SysdigUnresolved, res.DIOUnresolved)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("table rows = %d", len(res.Table.Rows))
	}
}

func TestRunRocksDBContention(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second contention run")
	}
	// Once compaction starts, three or more compaction threads stay active
	// in every 100 ms window, so a run's quiet windows come from its first,
	// partial window, before the first compaction. Whether that window
	// exists depends on where the run starts on the window grid, which
	// varies from run to run. A run without a quiet window says nothing
	// about the contention shape, so it is run again.
	const attempts = 8
	var busy, quiet float64
	var busyN, quietN int
	for attempt := 1; attempt <= attempts; attempt++ {
		res, err := RunRocksDB(RocksDBConfig{Duration: 1500 * time.Millisecond, Trace: true})
		if err != nil {
			t.Fatalf("rocksdb: %v", err)
		}
		checkRocksDBFigures(t, res)
		busy, quiet, busyN, quietN = res.ContentionCorrelation(5, 2)
		if busyN > 0 && quietN > 0 {
			break
		}
		t.Logf("attempt %d: contention windows unbalanced (busy=%d quiet=%d)", attempt, busyN, quietN)
	}
	// The paper's diagnosis: windows with heavy compaction activity show
	// higher client tail latency than quiet windows.
	if busyN == 0 || quietN == 0 {
		t.Skipf("contention windows unbalanced in %d runs (busy=%d quiet=%d)", attempts, busyN, quietN)
	}
	if busy <= quiet {
		t.Errorf("contention shape violated: busy p99 %.0fns <= quiet p99 %.0fns (busy=%d quiet=%d)",
			busy, quiet, busyN, quietN)
	}
}

// checkRocksDBFigures asserts that a traced RocksDB run produced both
// figures: client latency windows (Fig. 3) and a syscall timeline with the
// client and at least one compaction thread series (Fig. 4).
func checkRocksDBFigures(t *testing.T, res RocksDBResult) {
	t.Helper()
	if res.Bench.Ops == 0 {
		t.Fatal("no client operations")
	}
	if len(res.Latency) == 0 {
		t.Fatal("no latency windows (Fig. 3 empty)")
	}
	if res.Timeline == nil || len(res.Timeline.BucketStartNS) == 0 {
		t.Fatal("no syscall timeline (Fig. 4 empty)")
	}
	if _, ok := res.Timeline.Series["db_bench"]; !ok {
		t.Fatalf("timeline series = %v", res.Timeline.SeriesNames())
	}
	compSeries := 0
	for _, name := range res.Timeline.SeriesNames() {
		if strings.HasPrefix(name, "rocksdb:low") {
			compSeries++
		}
	}
	if compSeries == 0 {
		t.Fatalf("no compaction thread series: %v", res.Timeline.SeriesNames())
	}
	if res.Bench.DBStats.Compactions == 0 {
		t.Fatal("run produced no compactions; contention mechanism unexercised")
	}
}

func TestPathsConfigDefaults(t *testing.T) {
	c := PathsConfig{}.withDefaults()
	if c.HotFiles == 0 || c.Ops == 0 || c.HotFraction == 0 || c.SysdigRingBytes == 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
	if c.SysdigRingBytes != comparators.SysdigDefaultRingBytes {
		t.Fatalf("sysdig ring default = %d", c.SysdigRingBytes)
	}
}

// TestJoinWindowsOneRowPerWindow: the latency series is keyed by exact
// ts/w*w window starts; with a window that is not a multiple of 256 ns the
// histogram's float64 bucket key rounds off that grid at epoch scale, and
// the two halves of a window used to land in separate rows.
func TestJoinWindowsOneRowPerWindow(t *testing.T) {
	const window = int64(50 * time.Millisecond)
	st, err := store.Open()
	if err != nil {
		t.Fatal(err)
	}
	var lat []metrics.WindowPoint
	var evs []event.Event
	for i := int64(0); i < 20; i++ {
		enter := kernel.BaseTimestampNS + i*window + 11
		lat = append(lat, metrics.WindowPoint{StartNS: enter / window * window, Count: 3, P99: 1000})
		evs = append(evs, event.Event{Session: "s", Syscall: "pread64", ThreadName: "db_bench", TimeEnterNS: enter, TimeExitNS: enter + 1})
	}
	if err := st.BulkEvents(context.Background(), "events", evs); err != nil {
		t.Fatal(err)
	}
	rows := joinWindows(lat, st, "events", "s", window)
	if len(rows) != len(lat) {
		t.Fatalf("%d rows for %d windows", len(rows), len(lat))
	}
	for i, r := range rows {
		if r.StartNS != lat[i].StartNS || r.ClientOps != 3 || r.ClientSyscalls != 1 {
			t.Errorf("row %d = %+v: latency and syscall halves not joined", i, r)
		}
	}
}
