package stats

import "sync/atomic"

// Manifest holds one rank's manifest-log counters. The manifest package
// increments them as table-lifecycle edits commit; core's Metrics.Snapshot
// reports them under their manifest_ tags.
type Manifest struct {
	// Edits counts version edits appended and fsynced to the log.
	Edits atomic.Uint64 `metric:"manifest_edits"`
	// Rotations counts successful snapshot+rotate compactions of the log.
	Rotations atomic.Uint64 `metric:"manifest_rotations"`
	// RotateErrors counts rotations that aborted (injected or organic);
	// the old log stays authoritative, so these are non-fatal.
	RotateErrors atomic.Uint64 `metric:"manifest_rotate_errors"`
	// TailsTruncated counts Opens that found a torn tail (the remains of
	// a crash mid-append) and cut the log back to its last whole frame.
	TailsTruncated atomic.Uint64 `metric:"manifest_tails_truncated"`
	// EditsRecovered counts edits replayed from the log at Open.
	EditsRecovered atomic.Uint64 `metric:"manifest_edits_recovered"`
}
