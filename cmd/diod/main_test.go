package main

import (
	"strings"
	"testing"
)

// TestConfigCheck walks the flag combinations diod refuses at start, and a
// few it must accept, through config.check.
func TestConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		err  string // substring of the refusal; empty means accepted
	}{
		{"in-memory", config{fsyncMode: "interval"}, ""},
		{"durable", config{fsyncMode: "always", data: "/d"}, ""},
		{"durable follower", config{fsyncMode: "interval", data: "/d", follow: "http://p"}, ""},
		{"durable primary shipping", config{fsyncMode: "interval", data: "/d", replicate: "http://f"}, ""},
		{"coordinator", config{cluster: "http://n0,http://n1"}, ""},
		{"bad fsync policy", config{fsyncMode: "sometimes"}, "sometimes"},
		{"follower without a data dir", config{fsyncMode: "interval", follow: "http://p"}, ""}, // the store refuses it
		{"follower that ships", config{fsyncMode: "interval", data: "/d", follow: "http://p", replicate: "http://f"}, "mutually exclusive"},
		{"coordinator with a data dir", config{cluster: "http://n0", data: "/d"}, "stateless routing tier"},
		{"coordinator that follows", config{cluster: "http://n0", follow: "http://p"}, "stateless routing tier"},
		{"coordinator that ships", config{cluster: "http://n0", replicate: "http://f"}, "stateless routing tier"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.check()
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("error = %v, want one naming %q", err, tc.err)
			}
		})
	}
}

// TestFollowerWithoutDataExitsBeforeServing: a follower is durable by
// construction, so diod -follow without -data fails with the store's error
// before it listens.
func TestFollowerWithoutDataExitsBeforeServing(t *testing.T) {
	err := run(config{addr: "127.0.0.1:0", fsyncMode: "interval", follow: "http://127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("run = %v, want the store's refusal naming the data dir", err)
	}
}
