package repl

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// TestFailoverTracedStormLosesNothing is the whole failover story end to
// end: a live tracer ships through a FailoverClient into a durable primary
// that WAL-ships to a follower over HTTP; the primary dies mid-storm, the
// follower is promoted, and the tracer keeps shipping. Replication is drained
// before the kill, so the claim under test is the failover itself: node loss
// costs no acked event, and the promoted node holds exactly what the tracer
// reports shipped.
func TestFailoverTracedStormLosesNothing(t *testing.T) {
	const storm = 2000
	const index = "storm"

	primary := openDurable(t, t.TempDir())
	defer primary.Close()
	psrv := httptest.NewServer(store.NewServer(primary))
	defer psrv.Close()
	follower := newFollower(t)
	fsrv := httptest.NewServer(store.NewServer(follower))
	defer fsrv.Close()

	r := New(primary, ClientTransport{C: store.NewClient(fsrv.URL)}, Config{Policy: resilience.Policy{Clock: clock.NewVirtual(0)}})
	fo, err := store.NewFailoverClient(store.NewClient(psrv.URL), store.NewClient(fsrv.URL))
	if err != nil {
		t.Fatalf("failover client: %v", err)
	}

	k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(kernel.BaseTimestampNS, time.Microsecond)})
	if err := k.MkdirAll("/data"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	tr, err := core.NewTracer(core.Config{
		SessionName:   "failover",
		Index:         index,
		Backend:       fo,
		BatchSize:     256,
		FlushInterval: time.Millisecond,
		Resilience: &resilience.Config{Policy: resilience.Policy{
			MaxAttempts:      5,
			BaseBackoff:      500 * time.Microsecond,
			MaxBackoff:       10 * time.Millisecond,
			BreakerThreshold: 8,
			BreakerCooldown:  5 * time.Millisecond,
		}},
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	if err := tr.Start(k); err != nil {
		t.Fatalf("Start: %v", err)
	}
	task := k.NewProcess("storm").NewTask("storm")
	fd, oerr := task.Openat(kernel.AtFDCWD, "/data/storm.dat", kernel.OWronly|kernel.OCreat, 0o644)
	if oerr != nil {
		t.Fatalf("openat: %v", oerr)
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			if _, werr := task.Write(fd, []byte("x")); werr != nil {
				t.Fatalf("write: %v", werr)
			}
		}
	}

	// Phase 1: half the storm lands on the primary. Wait until every captured
	// event is acked or counted lost, then drain replication to lag 0.
	write(storm / 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := tr.Stats()
		if st.Shipped+st.Dropped+st.SpillDropped+st.ParseErrors == st.Captured {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 1 batches still in flight: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	head, _ := primary.ReplHeadSeq(index)
	acked := follower.ReplStatus().Indices[index]

	// Kill the primary and promote the follower; the rest of the storm must
	// reach the promoted node through the same client.
	psrv.Close()
	follower.Promote()
	write(storm - storm/2)
	task.Close(fd)
	st, _ := tr.Stop() // a non-nil error only reports the handover's failed attempts

	if head == 0 || acked != head {
		t.Fatalf("follower applied seq %d at the kill, primary head %d", acked, head)
	}
	n, err := follower.Count(context.Background(), index, store.MatchAll())
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if uint64(n) != st.Shipped {
		t.Fatalf("promoted node holds %d events, tracer shipped %d", n, st.Shipped)
	}
	if got := st.Shipped + st.Dropped + st.SpillDropped + st.ParseErrors; got != st.Captured {
		t.Fatalf("unaccounted loss: shipped(%d) + dropped(%d) + spillDropped(%d) + parseErrors(%d) = %d, captured = %d",
			st.Shipped, st.Dropped, st.SpillDropped, st.ParseErrors, got, st.Captured)
	}
	if st.SpillDropped != 0 {
		t.Fatalf("events dropped despite a reachable promoted node: %+v", st.Resilience)
	}
	if l := tr.Ledger(); !l.Balanced() {
		t.Fatalf("telemetry ledger does not close: %+v (outstanding %d)", l, l.Outstanding())
	}
	if fo.Switches() < 1 {
		t.Fatal("failover client never switched to the promoted node")
	}
}
