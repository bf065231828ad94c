// Command diod runs DIO's analysis backend as a standalone HTTP server —
// the role Elasticsearch plays in the paper's deployment (§II-F): tracers
// on other machines ship events to it with the bulk API, and visualizers
// query it.
//
// Usage:
//
//	diod -addr :9200
//	diod -addr :9200 -data /var/lib/diod
//
// Replicated pair (DESIGN.md §14):
//
//	diod -addr :9200 -data /var/lib/diod -replicate http://standby:9201
//	diod -addr :9201 -data /var/lib/diod-standby -follow http://primary:9200 -auto-promote 10s
//
// A follower rejects direct writes and applies the primary's WAL frames
// pushed to /_repl/apply; POST /_repl/promote (or -auto-promote on primary
// loss) flips it to a writable primary.
//
// Cluster coordinator (DESIGN.md §16): -cluster turns diod into a stateless
// routing tier over a static topology. Commas separate partitions; a `|`
// within a partition lists that partition's primary first and its
// replicated followers after, fronted by a failover client:
//
//	diod -addr :9200 -cluster 'http://n0:9200|http://n0b:9201,http://n1:9200,http://n2:9200,http://n3:9200'
//
// The coordinator serves the same API as a node — writes are striped
// row-by-row across the partitions, searches scatter to every partition and
// merge once — so tracers and visualizers point at it unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dsrhaslab/dio-go/internal/cluster"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/repl"
	"github.com/dsrhaslab/dio-go/internal/store"
)

type config struct {
	addr        string
	data        string
	fsyncMode   string
	snapshot    time.Duration
	retention   time.Duration
	queryCache  int
	follow      string
	autoPromote time.Duration
	replicate   string
	cluster     string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":9200", "listen address")
	flag.StringVar(&cfg.data, "data", "", "data directory for WAL + snapshots (empty: in-memory only)")
	flag.StringVar(&cfg.fsyncMode, "fsync", "interval", "WAL fsync policy: interval, always, or off")
	flag.DurationVar(&cfg.snapshot, "snapshot", time.Minute, "interval between columnar segment snapshots, each of which also moves the rows it flushed out of memory (0 disables)")
	flag.DurationVar(&cfg.retention, "retention", 0, "drop segments whose events are all older than this (0 never drops); requires -data")
	flag.IntVar(&cfg.queryCache, "query-cache", 256, "query cache capacity per index in entries (0 disables)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a follower of this primary URL: reject writes, apply /_repl pushes")
	flag.DurationVar(&cfg.autoPromote, "auto-promote", 0, "with -follow: promote to primary once the primary has been unreachable this long (0 disables)")
	flag.StringVar(&cfg.replicate, "replicate", "", "comma-separated follower URLs to ship this node's WAL to")
	flag.StringVar(&cfg.cluster, "cluster", "", "run as a cluster coordinator over this topology: comma-separated partitions, '|'-separated primary|follower URLs within a partition")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

// check rejects flag combinations that cannot work, at start rather than
// minutes into serving.
func (cfg config) check() error {
	if cfg.cluster != "" {
		if cfg.data != "" || cfg.follow != "" || cfg.replicate != "" {
			return fmt.Errorf("-cluster is a stateless routing tier: it takes no -data, -follow, or -replicate")
		}
		return nil
	}
	if _, err := store.ParseFsyncPolicy(cfg.fsyncMode); err != nil {
		return err
	}
	if cfg.follow != "" && cfg.replicate != "" {
		return fmt.Errorf("-follow and -replicate are mutually exclusive (chained replication is not supported)")
	}
	if cfg.follow != "" && cfg.data == "" {
		// Every snapshot moves flushed rows into segment files, so a primary
		// past its first one bootstraps followers with rows only a data dir
		// can hold; an in-memory follower would refuse that bootstrap.
		return fmt.Errorf("-follow requires -data: a primary's bootstrap carries flushed segment rows, which only a durable follower can hold")
	}
	return nil
}

func run(cfg config) error {
	if err := cfg.check(); err != nil {
		return err
	}
	if cfg.cluster != "" {
		return runCluster(cfg)
	}
	policy, _ := store.ParseFsyncPolicy(cfg.fsyncMode) // check accepted it
	st, err := store.Open(
		store.WithDataDir(cfg.data),
		store.WithFsyncPolicy(policy),
		store.WithSnapshotInterval(cfg.snapshot),
		store.WithRetention(cfg.retention),
		store.WithQueryCache(cfg.queryCache),
	)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	if cfg.follow != "" {
		st.SetFollower()
	}

	var shippers []*repl.Replicator
	if cfg.replicate != "" {
		for _, target := range strings.Split(cfg.replicate, ",") {
			target = strings.TrimSpace(target)
			if target == "" {
				continue
			}
			r := repl.New(st, repl.ClientTransport{C: store.NewClient(target)}, repl.Config{})
			r.Start()
			shippers = append(shippers, r)
		}
	}

	server := store.NewServer(st)
	diagnose.Install(server)
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           server,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("diod: analysis backend listening on %s\n", cfg.addr)
	fmt.Println("endpoints:", strings.Join(server.Routes(), " | "))
	if cfg.data != "" {
		fmt.Printf("durability: data dir %s, fsync %s, snapshot every %s\n", cfg.data, policy, cfg.snapshot)
		if cfg.retention > 0 {
			fmt.Printf("retention: segments older than %s are compacted away\n", cfg.retention)
		}
	}
	if cfg.follow != "" {
		fmt.Printf("role: follower of %s (writes rejected; promote via POST /_repl/promote", cfg.follow)
		if cfg.autoPromote > 0 {
			fmt.Printf(", or automatically after %s of primary loss", cfg.autoPromote)
		}
		fmt.Println(")")
	}
	for i, r := range shippers {
		fmt.Printf("role: primary, shipping WAL to follower %d: %s\n", i+1, r.Target())
	}

	watchDone := make(chan struct{})
	watchStop := make(chan struct{})
	if cfg.follow != "" && cfg.autoPromote > 0 {
		go func() {
			defer close(watchDone)
			watchPrimary(st, cfg.follow, cfg.autoPromote, watchStop)
		}()
	} else {
		close(watchDone)
	}

	// On the way out everything drains in dependency order: the HTTP server
	// finishes in-flight requests (a follower's half-applied replication
	// frame included), shippers push their final WAL suffix to the
	// followers, and store.Close syncs and closes every WAL — no snapshot, so
	// a restart replays what the last one did not flush, and a restarted
	// follower resumes from its applied sequence without re-requesting the
	// full stream.
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		close(watchStop)
		<-watchDone
		for _, r := range shippers {
			if err := r.Stop(); err != nil {
				fmt.Printf("diod: replication drain: %v\n", err)
			}
		}
		return st.Close()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		shutdown()
		return err
	case s := <-sig:
		fmt.Printf("diod: %v, draining and shutting down\n", s)
		return shutdown()
	}
}

// parseTopology expands a -cluster spec into one Node per partition. The
// spec is static and positional: partition p of the comma-separated list
// owns every cluster-global row g with g % P == p, so the same spec (in the
// same order) must be handed to every coordinator pointed at the topology.
func parseTopology(spec string) ([]cluster.Node, []string, error) {
	var nodes []cluster.Node
	var targets []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var members []*store.Client
		for _, u := range strings.Split(part, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			members = append(members, store.NewClient(u))
		}
		if len(members) == 0 {
			return nil, nil, fmt.Errorf("cluster topology: empty partition in %q", spec)
		}
		fc, err := store.NewFailoverClient(members...)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster topology: partition %d: %w", len(nodes), err)
		}
		nodes = append(nodes, fc)
		targets = append(targets, part)
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("cluster topology %q names no partitions", spec)
	}
	return nodes, targets, nil
}

// runCluster serves the coordinator role: no local store, just routing state
// (row counters, per-partition breakers) rebuilt from the nodes on boot.
func runCluster(cfg config) error {
	nodes, targets, err := parseTopology(cfg.cluster)
	if err != nil {
		return err
	}
	co, err := cluster.New(cluster.Config{}, nodes...)
	if err != nil {
		return err
	}
	server := store.NewServer(co)
	diagnose.Install(server)
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           server,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("diod: cluster coordinator listening on %s, %d partitions\n", cfg.addr, co.Partitions())
	for p, t := range targets {
		fmt.Printf("partition %d: %s\n", p, t)
	}
	fmt.Println("endpoints:", strings.Join(server.Routes(), " | "))

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("diod: %v, draining and shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		return nil
	}
}

// watchPrimary probes the primary's /_health and promotes the local store
// once the primary has been unreachable for the full grace window. A single
// successful probe resets the window, so transient blips never trigger a
// split-brain promotion; an already-promoted store (operator raced us via
// POST /_repl/promote) stops the watch.
func watchPrimary(st *store.Store, primary string, grace time.Duration, stop <-chan struct{}) {
	c := store.NewClient(primary)
	interval := grace / 4
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	lastOK := time.Now()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if st.Role() == store.RolePrimary {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		_, err := c.HealthStatus(ctx)
		cancel()
		if err == nil {
			lastOK = time.Now()
			continue
		}
		if time.Since(lastOK) >= grace {
			fmt.Printf("diod: primary %s unreachable for %s, promoting to primary\n", primary, grace)
			st.Promote()
			return
		}
	}
}
