package stats

import "sync/atomic"

// Scrub holds one rank's background-integrity-scrub counters. The core
// scrubber increments them as it verifies tables and repairs or quarantines
// corrupt ones; core's Metrics.Snapshot reports them under their tags.
type Scrub struct {
	// TablesScrubbed counts live tables whose data/index/bloom files were
	// fully verified against the manifest-recorded CRCs and sizes.
	TablesScrubbed atomic.Uint64 `metric:"tables_scrubbed"`
	// Bytes counts bytes read and checksummed by the scrubber; the
	// token-bucket budget (Options.ScrubBytesPerSec) paces this figure.
	Bytes atomic.Uint64 `metric:"scrub_bytes"`
	// Corruptions counts tables found with a CRC or size mismatch.
	Corruptions atomic.Uint64 `metric:"scrub_corruptions"`
	// Repairs counts corrupt tables restored from a committed checkpoint
	// generation and re-verified clean.
	Repairs atomic.Uint64 `metric:"repairs"`
	// RepairFailures counts corrupt tables with no valid checkpoint copy:
	// quarantined, their key range recorded lost, the rank degraded.
	RepairFailures atomic.Uint64 `metric:"repair_failures"`
}
