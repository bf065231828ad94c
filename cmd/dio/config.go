package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/ebpf"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/resilience"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// FileConfig is the tracer's JSON configuration file (§II-F: tracer options
// and analysis-pipeline parameters live in one config file).
type FileConfig struct {
	// Session labels this tracing execution.
	Session string `json:"session,omitempty"`
	// Index is the backend index receiving events.
	Index string `json:"index,omitempty"`
	// BackendURL points at a diod server; empty selects an in-process store.
	BackendURL string `json:"backend_url,omitempty"`
	// Syscalls restricts the traced syscall set (names from Table I).
	Syscalls []string `json:"syscalls,omitempty"`
	// Paths restricts tracing to these file/directory prefixes.
	Paths []string `json:"paths,omitempty"`
	// RingBytes is the per-CPU ring capacity.
	RingBytes int `json:"ring_bytes,omitempty"`
	// NumCPU is the number of per-CPU rings.
	NumCPU int `json:"num_cpu,omitempty"`
	// BatchSize groups events per bulk request.
	BatchSize int `json:"batch_size,omitempty"`
	// FlushIntervalMillis bounds batching delay.
	FlushIntervalMillis int `json:"flush_interval_millis,omitempty"`
	// AutoCorrelate runs file-path correlation when tracing stops.
	AutoCorrelate bool `json:"auto_correlate"`
	// Workload selects the bundled application to trace.
	Workload string `json:"workload,omitempty"`
	// Resilience tunes the fault-tolerant ship path (retry, circuit
	// breaker, spill queue) every tracer ships through; an absent block
	// takes the library defaults.
	Resilience ResilienceFileConfig `json:"resilience"`
}

// ResilienceFileConfig is the JSON form of resilience.Config; zero fields
// take the library defaults.
type ResilienceFileConfig struct {
	// MaxAttempts bounds delivery attempts per batch (retries = attempts-1).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseBackoffMillis seeds the exponential backoff (full jitter).
	BaseBackoffMillis int `json:"base_backoff_millis,omitempty"`
	// MaxBackoffMillis caps a single backoff sleep.
	MaxBackoffMillis int `json:"max_backoff_millis,omitempty"`
	// AttemptTimeoutMillis bounds one delivery attempt (HTTP backends).
	AttemptTimeoutMillis int `json:"attempt_timeout_millis,omitempty"`
	// BreakerThreshold is consecutive failures before the breaker opens.
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// BreakerCooldownMillis is how long the breaker stays open before probing.
	BreakerCooldownMillis int `json:"breaker_cooldown_millis,omitempty"`
	// SpillEvents bounds the spill queue (events parked during an outage).
	SpillEvents int `json:"spill_events,omitempty"`
}

// toConfig maps the JSON fields onto resilience.Config.
func (rc ResilienceFileConfig) toConfig() *resilience.Config {
	return &resilience.Config{
		Policy: resilience.Policy{
			MaxAttempts:      rc.MaxAttempts,
			BaseBackoff:      time.Duration(rc.BaseBackoffMillis) * time.Millisecond,
			MaxBackoff:       time.Duration(rc.MaxBackoffMillis) * time.Millisecond,
			AttemptTimeout:   time.Duration(rc.AttemptTimeoutMillis) * time.Millisecond,
			BreakerThreshold: rc.BreakerThreshold,
			BreakerCooldown:  time.Duration(rc.BreakerCooldownMillis) * time.Millisecond,
		},
		SpillEvents: rc.SpillEvents,
	}
}

// LoadFileConfig reads and validates a JSON config file.
func LoadFileConfig(path string) (FileConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return FileConfig{}, fmt.Errorf("read config: %w", err)
	}
	var fc FileConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		return FileConfig{}, fmt.Errorf("parse config %s: %w", path, err)
	}
	if _, err := fc.syscallFilter(); err != nil {
		return FileConfig{}, err
	}
	return fc, nil
}

// syscallFilter resolves the syscall names into kernel identifiers.
func (fc FileConfig) syscallFilter() ([]kernel.Syscall, error) {
	out := make([]kernel.Syscall, 0, len(fc.Syscalls))
	for _, name := range fc.Syscalls {
		s, ok := kernel.SyscallByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unsupported syscall %q (see Table I)", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// TracerConfig converts the file configuration into a core.Config, wiring
// either an in-process store or a remote HTTP backend.
func (fc FileConfig) TracerConfig() (core.Config, *store.Store, error) {
	syscalls, err := fc.syscallFilter()
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg := core.Config{
		SessionName: fc.Session,
		Index:       fc.Index,
		Filter: ebpf.Filter{
			Syscalls:     syscalls,
			PathPrefixes: fc.Paths,
		},
		NumCPU:        fc.NumCPU,
		RingBytes:     fc.RingBytes,
		BatchSize:     fc.BatchSize,
		AutoCorrelate: fc.AutoCorrelate,
	}
	if fc.FlushIntervalMillis > 0 {
		cfg.FlushInterval = time.Duration(fc.FlushIntervalMillis) * time.Millisecond
	}
	cfg.Resilience = fc.Resilience.toConfig()
	var inproc *store.Store
	if fc.BackendURL != "" {
		cfg.Backend = store.NewClient(fc.BackendURL)
	} else {
		if inproc, err = store.Open(); err != nil {
			return cfg, nil, err
		}
		cfg.Backend = inproc
	}
	return cfg, inproc, nil
}
