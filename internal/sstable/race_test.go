//go:build race

package sstable

// Under the race detector sync.Pool drops a share of its Puts on purpose, so
// tests that count allocations of pooled paths skip.
func init() { raceEnabled = true }
