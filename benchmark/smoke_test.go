package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// smokeSizes is the benchmark at about 1/50 size, so tier 1 (-race included)
// keeps it compiling and its correctness gate honest in a few seconds.
func smokeSizes() sizes {
	return sizes{
		saturateRate:   8000,
		saturateWarmup: 1000,
		dashboardRate:  2000,
		dashWarmup:     500,
		coldChunks:     8,
		coldChunkRows:  200,
		coldSnapshots:  6,
		coldPageSize:   50,
		coldScanPages:  3,
		sessionEvents:  1500,
		setupRepeats:   1,
		recoverRepeats: 1,
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: defaultSeed, dur: 200 * time.Millisecond,
		trace: trace, sz: smokeSizes(), outDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSmoke runs all four workloads, untraced and traced, and checks the
// gate passes and that what the program emits is exactly what BENCHMARK.json
// lists: every listed name measured, with a unit, and no name unlisted.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	if spec.RunSeconds != defaultSecs {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, defaultSecs)
	}
	seen := map[string]bool{}
	haveSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || !unitName.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's character set", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("end_to_end lacks setup_s in s, lower")
	}

	measured := map[string]bool{}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			var rec *recorder
			if trace {
				rec = newRecorder()
			}
			began := time.Now()
			res, err := runWorkload(cfg, rec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			t.Logf("%s trace=%v: %v", w, trace, time.Since(began).Round(time.Millisecond))
			line, err := emit(io.Discard, spec, cfg, res, rec.selfTimes(res.wall))
			if err != nil {
				t.Fatalf("%s trace=%v: emit: %v", w, trace, err)
			}
			for _, p := range res.problems {
				t.Errorf("%s trace=%v: gate: %s", w, trace, p)
			}
			var out struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w, trace, err)
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed=%v unit %q, want unit %q", w, trace, m.Name, ok, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be measured and never 0", w, m.Name, got.Value)
				}
			}
			for _, name := range res.metrics.names() {
				measured[name] = true
			}
		}
	}
	for name := range seen {
		if !measured[name] {
			t.Errorf("metric %s is listed in BENCHMARK.json but no workload measures it", name)
		}
	}
}

// TestSeedDeterminism: the same seed gives the same syscall sequence and the
// same diagnose_session event bytes; another seed gives another sequence.
func TestSeedDeterminism(t *testing.T) {
	seqHashOf := func(seed int64) string {
		k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, time.Microsecond)})
		if err := k.MkdirAll("/bench"); err != nil {
			t.Fatal(err)
		}
		g := newOpGen(k.NewProcess("app").NewTask("w0"), seed)
		for i := 0; i < 5000; i++ {
			g.step()
		}
		if g.failed > 0 {
			t.Fatalf("seed %d: %d syscalls failed", seed, g.failed)
		}
		return seqHash([]*opGen{g})
	}
	if a, b := seqHashOf(defaultSeed), seqHashOf(defaultSeed); a != b {
		t.Errorf("same seed, different syscall sequences: %s and %s", a, b)
	}
	if a, b := seqHashOf(defaultSeed), seqHashOf(heldOutSeed); a == b {
		t.Errorf("seeds %d and %d give the same syscall sequence", defaultSeed, heldOutSeed)
	}

	sessionBytes := func() [sha256.Size]byte {
		cfg := smokeConfig(t, "diagnose_session", false)
		env, err := setupDiagnose(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer env.discard()
		var all []event.Event
		req := store.SearchRequest{
			Query: store.Term(store.FieldSession, sessionBuggy),
			Sort:  []store.SortField{{Field: store.FieldTimeEnter}},
		}
		err = store.EachEventPage(context.Background(), env.stack.st, sessionIndex, req, 500, func(p store.EventsResult) error {
			all = append(all, p.Hits...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < cfg.sz.sessionEvents {
			t.Fatalf("session holds %d events, want >= %d", len(all), cfg.sz.sessionEvents)
		}
		return sha256.Sum256(event.EncodeBatch(nil, all))
	}
	if a, b := sessionBytes(), sessionBytes(); a != b {
		t.Errorf("same seed, different diagnose_session event bytes: %x and %x", a, b)
	}
}

// TestCompare: -compare flags a metric past its bound and passes one within.
func TestCompare(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		rf := resultFile{Workload: "cold_history", Correct: true, Metrics: map[string]float64{}}
		for _, m := range spec.EndToEnd {
			rf.Metrics[m.Name] = 100
		}
		rf.Metrics["heap_bytes_per_event"] = 100 * scale
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1)
	bound, ok := spec.endToEnd("heap_bytes_per_event")
	if !ok {
		t.Fatal("BENCHMARK.json lacks heap_bytes_per_event")
	}
	if err := compareFiles(io.Discard, spec, base, write("b.json", 1+bound.Bound/2)); err != nil {
		t.Errorf("a change within the bound was rejected: %v", err)
	}
	if err := compareFiles(io.Discard, spec, base, write("c.json", 1+bound.Bound*2)); err == nil {
		t.Error("a change of twice the bound was accepted")
	}
}
