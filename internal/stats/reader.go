package stats

import "sync/atomic"

// ReaderCache holds the SSTable reader-cache counters. The sstable package's
// cache increments them, and so do the table handles of every read view on
// the device (core's view.go), which cache the same bloom/index/fd triple
// per live table; core's Metrics.Snapshot reports them under their
// reader_cache_ tags. One ReaderCache instance lives inside each per-device
// cache, so ranks sharing a storage group's device also share these
// counters — they are device-wide, not per-rank.
type ReaderCache struct {
	Hits      atomic.Uint64 `metric:"reader_cache_hits"`      // gets served from a cached bloom/index/fd triple
	Misses    atomic.Uint64 `metric:"reader_cache_misses"`    // gets that loaded the table from the device
	NegHits   atomic.Uint64 `metric:"reader_cache_neg_hits"`  // gets answered from a cached error (deleted table)
	Evictions atomic.Uint64 `metric:"reader_cache_evictions"` // entries dropped by LRU pressure or invalidation
}
