package stats

import "sync/atomic"

// ReaderCache holds the SSTable reader-cache counters. The sstable package's
// cache increments them, and so do the table handles of every read view on
// the device (core's view.go), which cache the same bloom/index/fd triple
// per live table; core flattens them into Metrics().Snapshot() under their
// reader_cache_ keys. One ReaderCache instance lives inside each per-device
// cache, so ranks sharing a storage group's device also share these
// counters — they are device-wide, not per-rank.
type ReaderCache struct {
	Hits      atomic.Uint64 // gets served from a cached bloom/index/fd triple
	Misses    atomic.Uint64 // gets that loaded the table from the device
	NegHits   atomic.Uint64 // gets answered from a cached error (deleted table)
	Evictions atomic.Uint64 // entries dropped by LRU pressure or invalidation
}

// Snapshot returns the counters under their reporting keys.
func (c *ReaderCache) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"reader_cache_hits":      c.Hits.Load(),
		"reader_cache_misses":    c.Misses.Load(),
		"reader_cache_neg_hits":  c.NegHits.Load(),
		"reader_cache_evictions": c.Evictions.Load(),
	}
}
