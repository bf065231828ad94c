//go:build race

package store

// The race detector's sync.Pool drops a share of Puts on purpose, so a
// pooled path allocates under -race by design.
func init() { raceEnabled = true }
