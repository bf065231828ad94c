package diagnose

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/cluster"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/reports/*.json from the current engine")

// goldenSession is one recorded session: fill writes it into index "events"
// of a fresh backend under the session's own name.
type goldenSession struct {
	name string
	fill func(t *testing.T, b store.Backend, session string)
}

// traced adapts a kernel workload into a goldenSession fill: the workload
// runs on a virtual-clock kernel under an auto-correlating tracer.
func traced(fn func(k *kernel.Kernel)) func(*testing.T, store.Backend, string) {
	return func(t *testing.T, b store.Backend, session string) {
		t.Helper()
		k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
		if err := k.MkdirAll("/d"); err != nil {
			t.Fatal(err)
		}
		tracer, err := core.NewTracer(core.Config{
			SessionName: session, Index: "events", Backend: b,
			AutoCorrelate: true, FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tracer.Start(k); err != nil {
			t.Fatal(err)
		}
		fn(k)
		if _, err := tracer.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

func fluentBitWorkload(v fluentbit.Version) func(k *kernel.Kernel) {
	return func(k *kernel.Kernel) {
		if _, err := fluentbit.RunScenario(k, "/var/log", v); err != nil {
			panic(err)
		}
	}
}

// syntheticSession writes a seeded 6 000+-event session shaped to reach
// every branch of every built-in rule: seven thread names (db_bench, four
// rocksdb:low*, rocksdb:high0 and the empty name), quiet and contended
// 100 ms windows on an epoch-scale clock, a two-window gap, ties on
// time_enter_ns, rows with and without file_path, file_tag and offset,
// and negative, zero and positive returns. Rows are ingested in a seeded
// permutation so the cursor's sort, not ingest order, sequences them.
func syntheticSession(t *testing.T, b store.Backend, session string) {
	t.Helper()
	const window = int64(100 * time.Millisecond)
	rng := rand.New(rand.NewSource(20230627))
	threads := []string{"db_bench", "rocksdb:low0", "rocksdb:low1", "rocksdb:low2", "rocksdb:low3", "rocksdb:high0", ""}
	syscalls := []string{"read", "pread64", "readv", "write", "pwrite64", "writev", "lseek", "openat", "close", "fsync", "stat"}
	pick := func(weights []int) int {
		total := 0
		for _, w := range weights {
			total += w
		}
		n := rng.Intn(total)
		for i, w := range weights {
			if n < w {
				return i
			}
			n -= w
		}
		return 0
	}
	var evs []event.Event
	next := make(map[[2]int]int64) // (file, thread) -> offset a sequential walker is at
	for w := int64(0); w < 40; w++ {
		if w == 18 || w == 19 {
			continue // a gap longer than a window: these buckets must not exist
		}
		contended := (w >= 10 && w <= 13) || (w >= 25 && w <= 27)
		n, weights := 190, []int{60, 8, 8, 0, 0, 12, 12}
		if contended {
			n, weights = 60, []int{10, 20, 20, 20, 15, 8, 7}
		}
		enter := kernel.BaseTimestampNS/window*window + w*window
		for i := 0; i < n; i++ {
			if rng.Intn(5) != 0 { // one in five rows ties with its predecessor
				enter += window / int64(n) / 1000 * 1000
			}
			th := pick(weights)
			sc := syscalls[rng.Intn(len(syscalls))]
			file := rng.Intn(12)
			e := event.Event{
				Session: session, Syscall: sc, Class: "data",
				PID: 100, TID: 100 + th, ProcName: "db_bench", ThreadName: threads[th],
				TimeEnterNS: enter, TimeExitNS: enter + int64(rng.Intn(50_000)),
				FD: 3 + file, Count: 512 << rng.Intn(6),
			}
			if th == len(threads)-1 {
				e.PID, e.ProcName = 200, "sidecar"
			}
			switch rng.Intn(10) {
			case 0:
				e.RetVal = -int64(1 + rng.Intn(30))
			case 1:
				e.RetVal = 0
			default:
				e.RetVal = int64(e.Count)
			}
			if rng.Intn(8) != 0 {
				e.FileTag = event.FileTag{Dev: 8, Ino: uint64(1000 + file), BirthNS: int64(1 + file/4)}
			}
			if rng.Intn(6) != 0 {
				e.FilePath = fmt.Sprintf("/db/%06d.sst", file)
			}
			if sc != "openat" && sc != "close" && sc != "fsync" && sc != "stat" && rng.Intn(7) != 0 {
				e.HasOffset = true
				e.Offset = int64(rng.Intn(1 << 20))
				if file < 6 { // half the files are walked sequentially per thread
					k := [2]int{file, th}
					e.Offset = next[k]
					switch {
					case e.RetVal < 0 || sc == "lseek":
					case strings.HasPrefix(sc, "read") || sc == "pread64":
						next[k] += e.RetVal
					default:
						next[k] += int64(e.Count)
					}
				}
			}
			evs = append(evs, e)
		}
	}
	// Two fresh file generations whose first read resumes past EOF, one of
	// them with no resolved path.
	last := evs[len(evs)-1].TimeEnterNS
	for i, path := range []string{"/db/LOG", ""} {
		evs = append(evs, event.Event{
			Session: session, Syscall: "read", Class: "data", RetVal: 0,
			PID: 100, TID: 100, ProcName: "db_bench", ThreadName: "db_bench",
			TimeEnterNS: last + int64(i+1)*1000, TimeExitNS: last + int64(i+1)*1000 + 500,
			FileTag: event.FileTag{Dev: 8, Ino: uint64(5000 + i), BirthNS: 77},
			Offset:  4096, HasOffset: true, FilePath: path,
		})
	}
	if len(evs) < 6000 {
		t.Fatalf("synthetic session has only %d events", len(evs))
	}
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	for len(evs) > 0 {
		n := min(512, len(evs))
		if err := b.BulkEvents(context.Background(), "events", evs[:n]); err != nil {
			t.Fatal(err)
		}
		evs = evs[n:]
	}
}

var goldenSessions = []goldenSession{
	{"fluentbit-buggy", traced(fluentBitWorkload(fluentbit.VersionBuggy))},
	{"fluentbit-fixed", traced(fluentBitWorkload(fluentbit.VersionFixed))},
	{"pingpong", traced(pingPongWorkload)},
	{"costly", traced(costlyWorkload)},
	{"failing", traced(failingWorkload)},
	{"synthetic", syntheticSession},
}

func goldenJSON(t *testing.T, rep Report) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestGoldenReports pins every built-in rule's output byte for byte: the
// files under testdata/reports were recorded from the per-detector-query
// engine this package replaced, and the single-pass engine must reproduce
// them at every shard count and page size, in-process, over HTTP, with a
// 4-partition cluster coordinator as the backend, and over HTTP from a 2- and
// a 4-partition coordinator's own server, whose _dfg answers the node's DFG —
// and from 2- and 4-partition coordinators that correlated the traced rows
// themselves.
func TestGoldenReports(t *testing.T) {
	ctx := context.Background()
	for _, gs := range goldenSessions {
		t.Run(gs.name, func(t *testing.T) {
			path := filepath.Join("testdata", "reports", gs.name+".json")
			if *updateGolden {
				b := memStore(t)
				gs.fill(t, b, gs.name)
				rep, err := NewEngine(DefaultRegistry()).Run(ctx, b, "events", gs.name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, goldenJSON(t, rep), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, rep Report, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := goldenJSON(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("%s: report differs from %s:\n%s", label, path, got)
				}
			}
			for _, shards := range []int{1, 4, 16} {
				b, err := store.Open(store.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				gs.fill(t, b, gs.name)
				for _, pageSize := range []int{7, 1000} {
					rep, err := NewEngine(DefaultRegistry()).RunParams(ctx, b, "events", gs.name, Params{PageSize: pageSize})
					check(fmt.Sprintf("in-process shards=%d page=%d", shards, pageSize), rep, err)
				}

				server := store.NewServer(b)
				Install(server)
				srv := httptest.NewServer(server)
				rep, err := NewClient(store.NewClient(srv.URL)).Diagnose(ctx, "events", gs.name)
				check(fmt.Sprintf("http shards=%d page=default", shards), rep, err)
				// Client.Diagnose sends no Params; the small page rides a raw body.
				resp, err := http.Post(srv.URL+"/events/_diagnose?session="+gs.name,
					"application/json", strings.NewReader(`{"page_size":7}`))
				if err == nil {
					rep = Report{}
					err = json.NewDecoder(resp.Body).Decode(&rep)
					resp.Body.Close()
				}
				check(fmt.Sprintf("http shards=%d page=7", shards), rep, err)
				srv.Close()

				if shards == 4 {
					rep, err = NewEngine(DefaultRegistry()).Run(ctx, stripeAcross(t, b, 4), "events", gs.name)
					check("4-partition coordinator", rep, err)
					nodeDFG, err := BuildDFG(ctx, b, "events", gs.name, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, P := range []int{2, 4} {
						server := store.NewServer(stripeAcross(t, b, P))
						Install(server)
						srv := httptest.NewServer(server)
						c := NewClient(store.NewClient(srv.URL))
						rep, err := c.Diagnose(ctx, "events", gs.name)
						check(fmt.Sprintf("http %d-partition coordinator", P), rep, err)
						g, err := c.DFG(ctx, "events", gs.name)
						if err != nil || g.Fingerprint() != nodeDFG.Fingerprint() {
							t.Fatalf("http %d-partition coordinator: _dfg fingerprint differs from the node's (%v)", P, err)
						}
						srv.Close()
					}
				}
			}

			// The rows as traced, before any correlation, striped across 2
			// and 4 partitions: the coordinator's own pass names them as
			// the node's did.
			raw := memStore(t)
			gs.fill(t, uncorrelated{raw}, gs.name)
			for _, P := range []int{2, 4} {
				co := stripeAcross(t, raw, P)
				if _, err := co.Correlate(ctx, "events", gs.name); err != nil {
					t.Fatalf("%d-partition correlate: %v", P, err)
				}
				server := store.NewServer(co)
				Install(server)
				srv := httptest.NewServer(server)
				rep, err := NewClient(store.NewClient(srv.URL)).Diagnose(ctx, "events", gs.name)
				check(fmt.Sprintf("http %d-partition coordinator, correlated there", P), rep, err)
				srv.Close()
			}
		})
	}
}

// uncorrelated is a backend whose Correlate does nothing, so a traced fill
// through it leaves the rows as the tracer shipped them.
type uncorrelated struct{ store.Backend }

func (uncorrelated) Correlate(context.Context, string, string) (store.CorrelationResult, error) {
	return store.CorrelationResult{}, nil
}

// stripeAcross copies b's rows, in row order, into a coordinator over n
// partition nodes served over HTTP: the same rows as b, striped.
func stripeAcross(t *testing.T, b *store.Store, n int) *cluster.Coordinator {
	t.Helper()
	nodes := make([]cluster.Node, n)
	for p := range nodes {
		srv := httptest.NewServer(store.NewServer(memStore(t)))
		t.Cleanup(srv.Close)
		fc, err := store.NewFailoverClient(store.NewClient(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = fc
	}
	co, err := cluster.New(cluster.Config{}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := b.SearchEvents(context.Background(), "events", store.SearchRequest{Query: store.MatchAll(), Size: -1})
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < len(rows.Hits); at += 512 {
		if err := co.BulkEvents(context.Background(), "events", rows.Hits[at:min(at+512, len(rows.Hits))]); err != nil {
			t.Fatal(err)
		}
	}
	return co
}

// TestGoldenReportsCoverEveryRule keeps the recorded set honest: between
// them the golden reports must contain every rule the registry can emit,
// and the Fluent Bit pair must keep the 55 / 95 health scores.
func TestGoldenReportsCoverEveryRule(t *testing.T) {
	rules := make(map[string]bool)
	health := make(map[string]int)
	for _, gs := range goldenSessions {
		raw, err := os.ReadFile(filepath.Join("testdata", "reports", gs.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		health[gs.name] = rep.HealthScore
		for _, f := range rep.Findings {
			rules[f.Rule] = true
		}
	}
	for _, rule := range []string{
		"stale-offset-read", "read-lseek-ping-pong", "open-close-churn",
		"small-io", "random-io", "failing-syscalls", "background-io-contention",
	} {
		if !rules[rule] {
			t.Errorf("no golden report contains a %s finding", rule)
		}
	}
	if health["fluentbit-buggy"] != 55 || health["fluentbit-fixed"] != 95 {
		t.Errorf("fluent bit health = %d / %d, want 55 / 95", health["fluentbit-buggy"], health["fluentbit-fixed"])
	}
}

// TestContentionWindowStartsExactAtEpochScale: a 50 ms window is not a
// multiple of 256 ns, the ulp of a float64 at 1.6e18, so window starts read
// back through a histogram's float64 bucket key printed off the grid. The
// pass computes them in int64; the same holds with the engine running
// client-side over the wire.
func TestContentionWindowStartsExactAtEpochScale(t *testing.T) {
	const window = int64(50 * time.Millisecond)
	st := memStore(t)
	syntheticSession(t, st, "synthetic")
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	p := Params{Contention: ContentionParams{WindowNS: window}}
	for name, b := range map[string]store.Backend{"in-process": st, "store.Client": store.NewClient(srv.URL)} {
		rep, err := NewEngine(DefaultRegistry()).RunParams(context.Background(), b, "events", "synthetic", p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		findings := byRule(rep)["background-io-contention"]
		if len(findings) != 1 || len(findings[0].Evidence) < 7 {
			t.Fatalf("%s: contention findings = %+v", name, findings)
		}
		for _, ev := range findings[0].Evidence {
			var start int64
			if _, err := fmt.Sscanf(ev, "window t=%d:", &start); err != nil {
				t.Fatalf("%s: evidence %q: %v", name, ev, err)
			}
			if start%window != 0 {
				t.Errorf("%s: window start %d is not a multiple of %d", name, start, window)
			}
		}
	}
}
