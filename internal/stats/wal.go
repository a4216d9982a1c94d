package stats

import "sync/atomic"

// WAL holds one rank's write-ahead-log counters. The core embeds one per
// database and the wal package increments it on the hot path, so every field
// is an atomic; core's Metrics.Snapshot reports them under their wal_ tags.
type WAL struct {
	// RecordsAppended counts records framed and handed to the device.
	RecordsAppended atomic.Uint64 `metric:"wal_records_appended"`
	// BytesAppended counts framed bytes handed to the device.
	BytesAppended atomic.Uint64 `metric:"wal_bytes_appended"`
	// Fsyncs counts device sync calls (one per WALSync batch, one per
	// async group commit that had data).
	Fsyncs atomic.Uint64 `metric:"wal_fsyncs"`
	// GroupCommits counts non-empty async group-commit batches.
	GroupCommits atomic.Uint64 `metric:"wal_group_commits"`
	// SegmentsRecovered counts segments replayed cleanly at Open.
	SegmentsRecovered atomic.Uint64 `metric:"wal_segments_recovered"`
	// SegmentsTruncated counts replayed segments that ended in a torn
	// tail and were cut back to their last whole frame.
	SegmentsTruncated atomic.Uint64 `metric:"wal_segments_truncated"`
	// RecordsRecovered counts records re-inserted into MemTables at Open.
	RecordsRecovered atomic.Uint64 `metric:"wal_records_recovered"`
}
