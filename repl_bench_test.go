// Replication-overhead benchmark: prices what a live follower costs the
// primary's ingest path. The primary runs the deployed configuration
// (durable, interval fsync) behind a real HTTP server. Three variants:
//
//   - Primary: no replication at all (baseline).
//   - Shipped: the primary-side cost — replication armed and a Replicator
//     concurrently reading new records from the live WAL (through its
//     cursor, from the page cache) and pushing frames; the transport acks
//     and discards, standing in for a follower on other hardware. This is
//     the number the <=10% acceptance bar applies to; its B/op is flat in
//     b.N only while the cursor never rescans the WAL.
//   - InProcessFollower: the whole pair in one process — frames go over
//     real HTTP into a real durable follower that journals and applies
//     them. On a single-core host this double-counts the follower's CPU
//     against the primary's, so it is reported as the worst-case bound,
//     not the bar.
//
// BENCH_store.json holds the historical numbers; current ones are
// `go test -bench` output.
package dio_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/repl"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// discardTransport acks every push without applying it: a stand-in for a
// follower whose CPU lives on another machine. It still enforces sequence
// continuity, so the replicator does all its real primary-side work.
type discardTransport struct {
	mu    sync.Mutex
	acked map[string]int64
}

func (d *discardTransport) Target() string { return "discard://follower" }

func (d *discardTransport) Status(context.Context) (store.ReplState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := store.ReplState{Role: "follower", Indices: map[string]int64{}}
	for k, v := range d.acked {
		st.Indices[k] = v
	}
	return st, nil
}

func (d *discardTransport) Apply(_ context.Context, index string, from int64, frames []store.ReplFrame) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.acked == nil {
		d.acked = map[string]int64{}
	}
	if got := d.acked[index]; got != from {
		return got, &store.ReplSeqError{Want: got, Got: from}
	}
	d.acked[index] = from + int64(len(frames))
	return d.acked[index], nil
}

func (d *discardTransport) Bootstrap(_ context.Context, index string, snap store.ReplSnapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.acked == nil {
		d.acked = map[string]int64{}
	}
	d.acked[index] = snap.Seq
	return nil
}

func BenchmarkReplicationOverhead(b *testing.B) {
	raws := ingestRecords()
	run := func(b *testing.B, mkTransport func(b *testing.B) repl.Transport) {
		st, err := store.Open(
			store.WithDataDir(b.TempDir()),
			store.WithFsyncPolicy(store.FsyncInterval),
			store.WithSnapshotInterval(0))
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		var r *repl.Replicator
		if mkTransport != nil {
			// The default 50ms interval: sub-millisecond polling would put
			// clock.Real.Sleep on its yield-spin path and burn the core.
			r = repl.New(st, mkTransport(b), repl.Config{})
			r.Start()
			defer r.Stop()
		}
		srv := httptest.NewServer(store.NewServer(st))
		defer srv.Close()
		c := store.NewClient(srv.URL)
		batch := make([]event.Event, 0, ingestBatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch = ingestParse(raws, batch[:0])
			if err := c.BulkEvents(context.Background(), "bench", batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ingestBatchSize), "events/op")
		if r != nil {
			// The stream must actually have been flowing, or the "overhead"
			// measured nothing.
			if err := r.Stop(); err != nil {
				b.Fatalf("final drain: %v", err)
			}
			if s := r.Stats(); s.ShippedRecords == 0 || s.Lag != 0 {
				b.Fatalf("replication did not keep up: %+v", s)
			}
		}
	}
	b.Run("Primary", func(b *testing.B) { run(b, nil) })
	b.Run("Shipped", func(b *testing.B) {
		run(b, func(*testing.B) repl.Transport { return &discardTransport{} })
	})
	b.Run("InProcessFollower", func(b *testing.B) {
		run(b, func(b *testing.B) repl.Transport {
			follower, err := store.Open(
				store.WithDataDir(b.TempDir()),
				store.WithFsyncPolicy(store.FsyncInterval),
				store.WithSnapshotInterval(0))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { follower.Close() })
			if err := follower.SetFollower(); err != nil {
				b.Fatal(err)
			}
			fsrv := httptest.NewServer(store.NewServer(follower))
			b.Cleanup(fsrv.Close)
			return repl.ClientTransport{C: store.NewClient(fsrv.URL)}
		})
	})
}
