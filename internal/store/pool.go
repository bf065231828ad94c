package store

import "runtime"

// shardSem bounds the number of goroutines the store spawns for the fan-out
// over read views (readView.each) across all concurrent reads. When the pool
// is saturated the work runs inline on the caller, so fan-out degrades to
// serial execution instead of queueing unboundedly.
var shardSem = make(chan struct{}, maxInt(1, runtime.GOMAXPROCS(0)))

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
