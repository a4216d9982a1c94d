//go:build race

package lru

// Under the race detector allocation counts are not the program's own, so
// the tests that pin them skip.
func init() { raceEnabled = true }
