// Package lru implements the byte-capacity LRU caches of PapyrusKV: the
// local cache (key-value pairs fetched back out of SSTables) and the remote
// cache (pairs fetched from remote owner ranks, enabled while a database is
// write-protected). Capacity is accounted in bytes of key+value, matching
// the paper's cache-capacity database property.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

type entry struct {
	key   string
	value []byte
	found bool // distinguishes a cached tombstone/miss from a cached value
}

// Cache is a thread-safe LRU cache from string keys to byte-slice values.
// It can also memoise negative lookups (cached "definitely not found"),
// which the remote cache uses so a repeated miss does not re-cross the
// network while a database is read-only.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	enabled  bool
	// gen counts the calls that drop entries (Invalidate, Clear, a
	// disabling SetEnabled); it is written under mu and read bare by Gen.
	gen atomic.Uint64

	hits, misses uint64
}

// New creates a cache bounded to capacity bytes. A capacity <= 0 creates a
// disabled cache (all operations are no-ops and Get always misses), which
// models the paper's "cache off" database property.
func New(capacity int64) *Cache {
	c := &Cache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		enabled:  capacity > 0,
	}
	return c
}

// Enabled reports whether the cache is active.
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// SetEnabled enables or disables the cache. Disabling invalidates every
// entry, the behaviour papyruskv_protect(PAPYRUSKV_WRONLY) requires of the
// local cache and a writable transition requires of the remote cache.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if on && c.capacity > 0 {
		c.enabled = true
		return
	}
	c.enabled = false
	c.gen.Add(1)
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}

// Put caches value under key, evicting least-recently-used entries as
// needed. found=false caches a negative result.
func (c *Cache) Put(key []byte, value []byte, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, value, found)
}

// Gen returns the cache's invalidation generation, which every Invalidate
// and Clear, and every SetEnabled that disables the cache, advances.
func (c *Cache) Gen() uint64 { return c.gen.Load() }

// Fill is Put for a value read from the store beneath the cache: it caches
// value only if the generation is still gen, the caller's Gen sampled
// before it began the read. A writer that inserts a newer value and then
// invalidates its key thus either advances the generation before the fill,
// which refuses it, or removes the filled entry after it: a fill can never
// outlive an insert its read did not see.
func (c *Cache) Fill(key []byte, value []byte, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() == gen {
		c.putLocked(key, value, true)
	}
}

func (c *Cache) putLocked(key []byte, value []byte, found bool) {
	if !c.enabled {
		return
	}
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return // would evict the whole cache for one oversized pair
	}
	k := string(key)
	if el, ok := c.items[k]; ok {
		old := el.Value.(*entry)
		c.used -= int64(len(old.key) + len(old.value))
		old.value = value
		old.found = found
		c.used += size
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&entry{key: k, value: value, found: found})
		c.items[k] = el
		c.used += size
	}
	for c.used > c.capacity {
		c.evictOldest()
	}
}

// Get returns the cached value for key. hit reports whether the key was in
// the cache at all; found reports whether the cached result was a value
// (true) or a memoised not-found (false).
func (c *Cache) Get(key []byte) (value []byte, found, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		return nil, false, false
	}
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return nil, false, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*entry)
	return e.value, e.found, true
}

// Invalidate removes key from the cache and advances the generation; puts
// of a fresh pair with the same key call it once the pair is inserted, so
// stale cache entries are evicted (Figure 2) and a fill in flight is
// refused (Fill).
func (c *Cache) Invalidate(key []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	if el, ok := c.items[string(key)]; ok {
		c.removeElement(el)
	}
}

// Clear drops every entry but leaves the cache enabled.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// UsedBytes reports the bytes currently accounted against capacity.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *Cache) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	c.removeElement(el)
}

func (c *Cache) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.items, e.key)
	c.used -= int64(len(e.key) + len(e.value))
}
