package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// retentionForever is the -retention the tiered workload runs diod with. The
// kernel's BaseTimestampNS is a 2023 epoch, so anything much shorter ages
// every generated event out at the first maintenance pass (README, traps).
const retentionForever = 500000 * time.Hour

// openStore opens the data dir exactly as cmd/diod does for `diod -data DIR`:
// interval fsync, one-minute snapshots, 256-entry query cache, 100 ms rollups.
func openStore(dir string, retention time.Duration) (*store.Store, error) {
	return store.Open(
		store.WithDataDir(dir),
		store.WithFsyncPolicy(store.FsyncInterval),
		store.WithSnapshotInterval(time.Minute),
		store.WithRetention(retention),
		store.WithQueryCache(256),
		store.WithRollupInterval(100*time.Millisecond),
	)
}

// stack is a running diod-equivalent: the durable store behind its HTTP
// server (diagnosis engine installed) on a loopback port, plus the one query
// connection the workload's reader uses.
type stack struct {
	dir   string
	st    *store.Store
	mw    *middleware
	srv   *http.Server
	done  chan error
	url   string
	query *store.Client
}

func startStack(dir string, retention time.Duration, rec *recorder) (*stack, error) {
	st, err := openStore(dir, retention)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	server := store.NewServer(st)
	diagnose.Install(server)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{
		dir:  dir,
		st:   st,
		mw:   &middleware{next: server, rec: rec},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	s.srv = &http.Server{Handler: s.mw, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.query = store.NewClient(s.url)
	return s, nil
}

// stop closes the HTTP server and then the store (WAL sync included), the
// order cmd/diod shuts down in. Every client has returned by now, so there is
// nothing to drain: Close rather than Shutdown, which would wait five seconds
// on any connection a client's transport dialled but never used.
func (s *stack) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// release drops the stopped stack's references to its store, so the
// collector can take the store's memory back before recovery is measured.
func (s *stack) release() {
	s.st, s.mw, s.srv, s.query = nil, nil, nil, nil
}

// countEvents asks the server how many events index holds, under a span so
// the request links to its cause like any other.
func (s *stack) countEvents(rec *recorder, res *result, index string) (int, bool) {
	id := rec.beginQuery("verify.count", 0)
	n, err := s.query.Count(context.Background(), index, store.MatchAll())
	rec.endQuery(id)
	res.op(err)
	return n, err == nil
}

// middleware wraps the handler store.NewServer returns. Untraced it passes
// requests straight through; traced it records one span per request, linked
// to the client-side span that caused it, and the request sizes.
type middleware struct {
	next      http.Handler
	rec       *recorder
	bulkMS    samples
	searchMS  samples
	bulkBytes atomic.Int64
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.rec == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	op := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
	var id int
	switch op {
	case "_bulk":
		id = m.rec.begin("store.server.bulk", m.rec.claimFlush(r.ContentLength))
		if r.ContentLength > 0 {
			m.bulkBytes.Add(r.ContentLength)
		}
	case "_search", "_count":
		id = m.rec.begin("store.server.search", m.rec.queryParent())
	case "_correlate", "_diagnose", "_dfg", "_diff":
		id = m.rec.begin("store.server."+op[1:], m.rec.queryParent())
	default:
		m.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	m.next.ServeHTTP(w, r)
	d := time.Since(start)
	m.rec.end(id)
	switch op {
	case "_bulk":
		m.bulkMS.addDur(d)
	case "_search", "_count":
		m.searchMS.addDur(d)
	}
}

// latencyStride samples every n-th event of an acked batch for the
// capture-to-ack latency, bounding memory on the saturating workload.
const latencyStride = 8

// probeSample is how many acked events the traced pass keeps for the
// direct-call probes.
const probeSample = 4096

// ackBackend is the tracer's Backend (core.Config.Backend): the real
// store.Client with the benchmark's observation point around it. An ack is
// BulkEvents returning nil here. Untraced it only counts acks and stamps
// their latency; traced it also records a flush span per call. Everything
// but BulkEvents is the embedded client's own method.
type ackBackend struct {
	*store.Client
	// clk is the traced kernel's clock, so ack stamps share an epoch with
	// the events' time_exit_ns. Nil (the virtual-clock set-up) skips latency.
	clk clock.Clock
	rec *recorder

	winLo, winHi atomic.Int64 // steady window, clock ns
	acked        atomic.Uint64
	ackedWindow  atomic.Uint64
	flushes      atomic.Uint64
	flushErrs    atomic.Uint64

	mu      sync.Mutex
	latMS   []float64
	flushMS []float64
	sample  []event.Event
}

var _ store.Backend = (*ackBackend)(nil)
var _ store.EventBackend = (*ackBackend)(nil)

func (b *ackBackend) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	id := b.rec.beginFlush("core.flush", events)
	start := time.Now()
	err := b.Client.BulkEvents(ctx, index, events)
	d := time.Since(start)
	b.rec.endFlush(id)
	b.flushes.Add(1)
	if err != nil {
		b.flushErrs.Add(1)
		return err
	}
	n := uint64(len(events))
	b.acked.Add(n)
	if b.clk == nil {
		return nil
	}
	now := b.clk.NowNS()
	if now >= b.winLo.Load() && now < b.winHi.Load() {
		b.ackedWindow.Add(n)
	}
	b.mu.Lock()
	for i := 0; i < len(events); i += latencyStride {
		b.latMS = append(b.latMS, float64(now-events[i].TimeExitNS)/1e6)
	}
	if b.rec != nil {
		b.flushMS = append(b.flushMS, ms(d))
		if room := probeSample - len(b.sample); room > 0 {
			if room > len(events) {
				room = len(events)
			}
			b.sample = append(b.sample, events[:room]...)
		}
	}
	b.mu.Unlock()
	return nil
}

// recovery is what reopening a closed data dir showed.
type recovery struct {
	secs      []float64 // store.Open times, one per pass
	count     int       // events recovered into index
	heapBytes float64   // live heap the recovered store holds
}

// recoverStore reopens a closed data dir the way a restarted diod would. It
// times store.Open (manifest, segments, WAL replay), up to n passes while
// they stay cheap so the median has more than one sample wherever the store
// is small enough, and on the first pass measures the live heap the
// recovered store adds: the memory a restarted diod holds for these events,
// free of caches, pools and whatever the run left behind. The caller must
// have released the run's own store first.
func recoverStore(dir, index string, retention time.Duration, n int) (recovery, error) {
	var rec recovery
	var spent time.Duration
	for i := 0; i < n && (i == 0 || spent < 4*time.Second); i++ {
		var base float64
		if i == 0 {
			base = liveHeapBytes()
		}
		start := time.Now()
		st, err := openStore(dir, retention)
		d := time.Since(start)
		if err != nil {
			return rec, fmt.Errorf("recovery: %w", err)
		}
		spent += d
		rec.secs = append(rec.secs, d.Seconds())
		if i == 0 {
			rec.heapBytes = liveHeapBytes() - base
		}
		rec.count, err = st.Count(context.Background(), index, store.MatchAll())
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return rec, fmt.Errorf("recovery: %w", err)
		}
	}
	return rec, nil
}

// freshDir creates an empty data dir under the benchmark's output directory.
func freshDir(outDir, name string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "data-"+name+"-")
}
