package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/kernel"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFileConfigValid(t *testing.T) {
	path := writeConfig(t, `{
		"session": "s1",
		"index": "idx",
		"syscalls": ["openat", "read", "write"],
		"paths": ["/var/log"],
		"ring_bytes": 65536,
		"num_cpu": 2,
		"batch_size": 128,
		"flush_interval_millis": 5,
		"auto_correlate": true,
		"workload": "synthetic"
	}`)
	fc, err := LoadFileConfig(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if fc.Session != "s1" || fc.Index != "idx" || len(fc.Syscalls) != 3 {
		t.Fatalf("config = %+v", fc)
	}
	cfg, inproc, err := fc.TracerConfig()
	if err != nil {
		t.Fatalf("tracer config: %v", err)
	}
	if inproc == nil {
		t.Fatal("expected in-process store when backend_url empty")
	}
	if len(cfg.Filter.Syscalls) != 3 || cfg.Filter.Syscalls[0] != kernel.SysOpenat {
		t.Fatalf("filter = %+v", cfg.Filter)
	}
	if cfg.RingBytes != 65536 || cfg.NumCPU != 2 || cfg.BatchSize != 128 {
		t.Fatalf("sizes = %+v", cfg)
	}
	if cfg.FlushInterval.Milliseconds() != 5 {
		t.Fatalf("flush interval = %v", cfg.FlushInterval)
	}
	if len(cfg.Filter.PathPrefixes) != 1 || cfg.Filter.PathPrefixes[0] != "/var/log" {
		t.Fatalf("paths = %v", cfg.Filter.PathPrefixes)
	}
}

func TestLoadFileConfigRejectsUnknownSyscall(t *testing.T) {
	path := writeConfig(t, `{"syscalls": ["clone"]}`)
	if _, err := LoadFileConfig(path); err == nil {
		t.Fatal("config with unsupported syscall accepted")
	}
}

func TestLoadFileConfigRejectsBadJSON(t *testing.T) {
	path := writeConfig(t, `{not json`)
	if _, err := LoadFileConfig(path); err == nil {
		t.Fatal("malformed config accepted")
	}
}

func TestLoadFileConfigMissingFile(t *testing.T) {
	if _, err := LoadFileConfig("/nonexistent/trace.json"); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestTracerConfigRemoteBackend(t *testing.T) {
	fc := FileConfig{BackendURL: "http://127.0.0.1:9200"}
	cfg, inproc, err := fc.TracerConfig()
	if err != nil {
		t.Fatalf("tracer config: %v", err)
	}
	if inproc != nil {
		t.Fatal("in-process store created despite backend URL")
	}
	if cfg.Backend == nil {
		t.Fatal("no backend client configured")
	}
}

func TestLoadFileConfigResilience(t *testing.T) {
	path := writeConfig(t, `{
		"workload": "synthetic",
		"resilience": {
			"max_attempts": 6,
			"base_backoff_millis": 2,
			"max_backoff_millis": 50,
			"attempt_timeout_millis": 1000,
			"breaker_threshold": 3,
			"breaker_cooldown_millis": 250,
			"spill_events": 1024
		}
	}`)
	fc, err := LoadFileConfig(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	cfg, _, err := fc.TracerConfig()
	if err != nil {
		t.Fatalf("tracer config: %v", err)
	}
	rc := cfg.Resilience
	if rc == nil {
		t.Fatal("resilience config not mapped")
	}
	if rc.MaxAttempts != 6 || rc.BaseBackoff.Milliseconds() != 2 ||
		rc.MaxBackoff.Milliseconds() != 50 || rc.AttemptTimeout.Milliseconds() != 1000 ||
		rc.BreakerThreshold != 3 || rc.BreakerCooldown.Milliseconds() != 250 ||
		rc.SpillEvents != 1024 {
		t.Fatalf("resilience = %+v", rc)
	}
}

func TestRunWithChaosDemo(t *testing.T) {
	fc := FileConfig{
		Session:    "t-chaos",
		Workload:   "synthetic",
		Resilience: ResilienceFileConfig{BreakerCooldownMillis: 5},
	}
	if err := run(fc, false, 0.3, time.Millisecond); err != nil {
		t.Fatalf("run with chaos: %v", err)
	}
}

func TestRunWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range []string{"fluentbit-buggy", "fluentbit-fixed", "synthetic"} {
		fc := FileConfig{Session: "t-" + wl, Workload: wl, AutoCorrelate: true}
		if err := run(fc, false, 0, 0); err != nil {
			t.Fatalf("run %s: %v", wl, err)
		}
	}
	if err := run(FileConfig{Workload: "nope"}, false, 0, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
