package sstable

import (
	"container/list"
	"errors"
	"io/fs"
	"sync"

	"papyruskv/internal/nvm"
	"papyruskv/internal/stats"
)

// ReaderCache is a per-device, byte-bounded cache of open Tables, keyed by
// (dir, ssid), for the readers that hold no table of their own. A rank's own
// gets, iterators and scans do not come here: its read view owns one Table
// per live table for as long as a pinned view names it, and an iterator's
// scanners borrow those (Table.Scanner). What is left reads tables by name:
//
//   - storage-group peers (§2.7): a statusShare answer names the owner's
//     candidate tables, and the peer, which has no view of the owner's
//     version, reads them through this cache;
//   - SequentialSearch, Figure 8's baseline, which bypasses the cache (Get
//     falls through to the uncached path) so it keeps paying device costs.
//
// One cache is shared by every database on a device — exactly the sharing
// unit of a storage group — so when the owner rank compacts or restores its
// SSTables and invalidates the cache, the peers reading those tables through
// the same device see the invalidation too.
//
// Validation happens once, at load: a bloom or index that fails its CRC32C
// is never cached, and the typed ErrCorrupt surfaces to every caller that
// asks for the table until the file is repaired. An open that fails with
// fs.ErrNotExist is remembered as a small negative entry so repeated probes
// of a table deleted by compaction do not pay a device open each; the shared
// read path evicts such an entry before re-asking the owner, so a table that
// legitimately reappears (a restored checkpoint) is re-read fresh.
//
// Entries are accounted in bytes (bloom bits + the loaded index as
// ssIndex.memBytes counts it + a fixed per-handle overhead that also bounds
// the number of open file descriptors) and evicted LRU-first past the
// configured capacity. An entry evicted while a concurrent reader has it
// pinned stays usable — the data file descriptor is closed only when the
// last reader releases it — so an eviction can never yield a read from a
// dead fd.
type ReaderCache struct {
	dev *nvm.Device

	mu    sync.Mutex
	max   int64
	used  int64
	order *list.List // front = most recently used
	items map[tableKey]*list.Element

	counters stats.ReaderCache
}

type tableKey struct {
	dir  string
	ssid uint64
}

// readerOverhead is the fixed per-entry byte charge covering the handle
// bookkeeping and, more importantly, the open file descriptor: it bounds
// the number of fds a cache of capacity C can hold to C/readerOverhead.
const readerOverhead = 4096

// negBytes is the accounting size of a negative (file-not-found) entry.
const negBytes = 64

// tableReader is one cached table. ready is closed once the load settles;
// Table and err are immutable afterwards. bytes, refs and dead are guarded
// by the owning cache's mutex.
type tableReader struct {
	key   tableKey
	ready chan struct{}

	*Table       // nil unless the load succeeded
	err    error // non-nil: the load failed (fs.ErrNotExist entries are cached)
	bytes  int64

	refs int  // pinned readers, the loading caller included
	dead bool // removed from the cache; close data when refs drains to 0
}

// NewReaderCache creates a cache for dev bounded to maxBytes. A capacity
// <= 0 disables caching: Get falls through to the uncached read path.
func NewReaderCache(dev *nvm.Device, maxBytes int64) *ReaderCache {
	return &ReaderCache{
		dev:   dev,
		max:   maxBytes,
		order: list.New(),
		items: make(map[tableKey]*list.Element),
	}
}

// enabled reports whether the cache holds entries at all.
func (c *ReaderCache) enabled() bool { return c != nil && c.max > 0 }

// Counters returns the cache's cumulative hit/miss/evict counters; core
// merges them into Metrics().Snapshot() under their reader_cache_ keys.
func (c *ReaderCache) Counters() *stats.ReaderCache { return &c.counters }

// CacheStats is a point-in-time view of the cache contents.
type CacheStats struct {
	Entries   int
	UsedBytes int64
}

// Stats reports the current entry count and accounted bytes.
func (c *ReaderCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.items), UsedBytes: c.used}
}

// Get searches SSTable ssid in dir for key through the cache, with the
// same contract as the package-level Get. Sequential-search mode bypasses
// the cache entirely: it is the paper's pre-optimisation baseline
// (Figure 8 "B" configurations) and must keep paying the baseline's device
// costs.
func (c *ReaderCache) Get(dir string, ssid uint64, key []byte, mode SearchMode, useBloom bool) (value []byte, tombstone, found bool, err error) {
	if !c.enabled() || mode == SequentialSearch {
		return Get(c.dev, dir, ssid, key, mode, useBloom)
	}
	r, err := c.acquire(dir, ssid)
	if err != nil {
		return nil, false, false, err
	}
	defer c.release(r)
	return r.Table.Get(key, useBloom)
}

// acquire returns a pinned, loaded reader for (dir, ssid), loading it on a
// miss. The caller must release it. A non-nil error means no reader is
// pinned.
func (c *ReaderCache) acquire(dir string, ssid uint64) (*tableReader, error) {
	k := tableKey{dir: dir, ssid: ssid}
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		r := el.Value.(*tableReader)
		r.refs++
		c.order.MoveToFront(el)
		c.mu.Unlock()
		<-r.ready // settled immediately except while the first loader runs
		if r.err != nil {
			c.release(r)
			c.counters.NegHits.Add(1)
			return nil, r.err
		}
		c.counters.Hits.Add(1)
		return r, nil
	}
	r := &tableReader{key: k, ready: make(chan struct{}), refs: 1, bytes: negBytes}
	el := c.order.PushFront(r)
	c.items[k] = el
	c.used += r.bytes
	c.mu.Unlock()
	c.counters.Misses.Add(1)

	r.Table, r.err = OpenTable(c.dev, dir, ssid)
	close(r.ready)

	c.mu.Lock()
	switch {
	case r.dead:
		// Evicted while loading; the loader's pin kept the fd open.
	case r.err != nil && !errors.Is(r.err, fs.ErrNotExist):
		// Corruption and I/O failures are not cached: the file may be
		// repaired (or the fault transient) and must be re-read fresh.
		c.removeLocked(el)
		r.dead = true
	case r.err != nil:
		// Negative entry: keep it at its placeholder size.
	default:
		// r.bytes is read by evictions under c.mu, so the placeholder is
		// swapped for the loaded size only here, under the same lock.
		r.bytes = r.memBytes() + readerOverhead
		c.used += r.bytes - negBytes
		c.evictOverLocked()
	}
	c.mu.Unlock()

	if r.err != nil {
		c.release(r)
		return nil, r.err
	}
	return r, nil
}

// release unpins r, closing the data file if r was evicted and this was
// the last reader.
func (c *ReaderCache) release(r *tableReader) {
	c.mu.Lock()
	r.refs--
	closeNow := r.dead && r.refs == 0 && r.Table != nil
	c.mu.Unlock()
	if closeNow {
		r.Close()
	}
}

// Validate loads and CRC-checks SSTable ssid's bloom filter and SSIndex in
// dir — exactly the validation a cached read performs at load time —
// without looking for any key. With the cache enabled the validated entry
// stays registered, so the check doubles as a warm-up; with the cache
// disabled the structures are read, checked, and dropped.
func (c *ReaderCache) Validate(dir string, ssid uint64) error {
	if !c.enabled() {
		t, err := OpenTable(c.dev, dir, ssid)
		if err == nil {
			t.Close()
		}
		return err
	}
	r, err := c.acquire(dir, ssid)
	if err != nil {
		return err
	}
	c.release(r)
	return nil
}

// Evict drops the entry for (dir, ssid), if cached. Compaction calls it
// for each merged input after deleting the files, and the shared read path
// calls it on fs.ErrNotExist before re-asking the owner.
func (c *ReaderCache) Evict(dir string, ssid uint64) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[tableKey{dir: dir, ssid: ssid}]; ok {
		c.evictLocked(el)
	}
	c.mu.Unlock()
}

// EvictDir drops every cached entry under dir. Checkpoint restore,
// Restart, Destroy, failure-domain teardown, and Close use it: each
// invalidates (or orphans) a whole rank directory at once.
func (c *ReaderCache) EvictDir(dir string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	for k, el := range c.items {
		if k.dir == dir {
			c.evictLocked(el)
		}
	}
	c.mu.Unlock()
}

// evictOverLocked evicts LRU entries until used fits the capacity.
func (c *ReaderCache) evictOverLocked() {
	for c.used > c.max {
		el := c.order.Back()
		if el == nil {
			return
		}
		c.evictLocked(el)
	}
}

// evictLocked removes el from the cache. The entry's fd closes immediately
// when unpinned, else when the last concurrent reader releases it.
func (c *ReaderCache) evictLocked(el *list.Element) {
	r := el.Value.(*tableReader)
	c.removeLocked(el)
	r.dead = true
	c.counters.Evictions.Add(1)
	if r.refs == 0 && r.Table != nil {
		r.Close()
	}
}

// removeLocked detaches el from the index and accounting only.
func (c *ReaderCache) removeLocked(el *list.Element) {
	r := el.Value.(*tableReader)
	c.order.Remove(el)
	delete(c.items, r.key)
	c.used -= r.bytes
}

// Per-device cache registry. Ranks of one storage group share a single
// *nvm.Device instance (runtime.Config requires it), so keying on the
// device pointer gives the whole group one cache: the owner rank's
// invalidations cover its peers' shared reads. Capacity is fixed by the
// first database to ask for the device's cache.
var (
	registryMu sync.Mutex
	registry   = map[*nvm.Device]*ReaderCache{}
)

// CacheFor returns dev's shared reader cache, creating it bounded to
// maxBytes on first use.
func CacheFor(dev *nvm.Device, maxBytes int64) *ReaderCache {
	registryMu.Lock()
	defer registryMu.Unlock()
	if c, ok := registry[dev]; ok {
		return c
	}
	c := NewReaderCache(dev, maxBytes)
	registry[dev] = c
	return c
}

// lookupCache returns dev's shared cache if one was ever created.
func lookupCache(dev *nvm.Device) *ReaderCache {
	registryMu.Lock()
	defer registryMu.Unlock()
	return registry[dev]
}

// EvictDeviceDir invalidates dir on dev's shared cache, if one exists.
// Restore paths that rewrite files before a database handle exists (and so
// before it holds a cache reference) use it.
func EvictDeviceDir(dev *nvm.Device, dir string) {
	if c := lookupCache(dev); c != nil {
		c.EvictDir(dir)
	}
}
