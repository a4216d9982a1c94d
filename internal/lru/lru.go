// Package lru implements the byte-capacity caches of PapyrusKV: the local
// cache (key-value pairs fetched back out of SSTables) and the remote cache
// (pairs fetched from remote owner ranks, enabled while a database is
// write-protected). Capacity is accounted in bytes of key+value, matching
// the paper's cache-capacity database property.
//
// A cache is split into up to 16 shards chosen by a hash of the key, each
// with its own lock, so gets of different keys do not serialise on one
// mutex. Each shard evicts by CLOCK (second chance): a hit sets the entry's
// reference bit, and the clock hand clears a set bit once before it evicts
// the entry. The package keeps the name lru because the benchmark imports
// it by this path.
package lru

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// maxShards bounds the shard count; a power of two, so a hash picks a
	// shard with a mask.
	maxShards = 16
	// minShardBytes is the smallest share of capacity a shard is given: a
	// cache halves its shard count until each shard holds at least this
	// much, so small caches keep one shard and exact CLOCK order.
	minShardBytes = 256 << 10
)

// slot is one resident entry of a shard's clock.
type slot struct {
	key   string
	value []byte
	found bool // distinguishes a cached tombstone/miss from a cached value
	ref   bool // set by a hit or an update; the hand clears it once
	live  bool // false for a slot on the free list
}

type shard struct {
	mu sync.Mutex
	// gen counts the calls that dropped entries of this shard (Invalidate
	// of one of its keys, Clear, a disabling SetEnabled); it is written
	// under mu and read bare by Gen.
	gen      atomic.Uint64
	capacity int64
	used     int64
	slots    []slot
	free     []int32 // indices of dead slots, reused before slots grows
	index    map[string]int32
	hand     int32
	hits     uint64
	misses   uint64
}

// paddedShard keeps each shard's lock and counters off its neighbours'
// cache lines (two lines, for the adjacent-line prefetcher).
type paddedShard struct {
	shard
	_ [128 - unsafe.Sizeof(shard{})%128]byte
}

// Cache is a thread-safe, sharded CLOCK cache from string keys to
// byte-slice values. It can also memoise negative lookups (cached
// "definitely not found"), which the remote cache uses so a repeated miss
// does not re-cross the network while a database is read-only.
type Cache struct {
	shards   []paddedShard
	mask     uint64
	seed     maphash.Seed
	capacity int64
	// enabled is read bare on every operation and re-checked under the
	// shard lock before an insert (putLocked).
	enabled atomic.Bool
}

// A Stamp names the shard that holds a key and that shard's generation
// when Gen sampled it.
type Stamp struct {
	s   *shard
	gen uint64
}

// New creates a cache bounded to capacity bytes. A capacity <= 0 creates a
// disabled cache (all operations are no-ops and Get always misses), which
// models the paper's "cache off" database property. The capacity is split
// evenly over the shards.
func New(capacity int64) *Cache {
	n := int64(maxShards)
	for n > 1 && capacity/n < minShardBytes {
		n /= 2
	}
	c := &Cache{
		shards:   make([]paddedShard, n),
		mask:     uint64(n - 1),
		seed:     maphash.MakeSeed(),
		capacity: capacity,
	}
	for i := range c.shards {
		s := &c.shards[i].shard
		s.capacity = capacity / n
		s.index = make(map[string]int32)
	}
	c.enabled.Store(capacity > 0)
	return c
}

// shardOf hashes key to its shard; a one-shard cache skips the hash.
func (c *Cache) shardOf(key []byte) *shard {
	if c.mask == 0 {
		return &c.shards[0].shard
	}
	return &c.shards[maphash.Bytes(c.seed, key)&c.mask].shard
}

// Enabled reports whether the cache is active.
func (c *Cache) Enabled() bool { return c.enabled.Load() }

// SetEnabled enables or disables the cache. Disabling invalidates every
// entry, the behaviour papyruskv_protect(PAPYRUSKV_WRONLY) requires of the
// local cache and a writable transition requires of the remote cache. The
// flag is cleared before any shard is emptied, so once SetEnabled(false)
// returns no insert that raced it remains (putLocked).
func (c *Cache) SetEnabled(on bool) {
	if on && c.capacity > 0 {
		c.enabled.Store(true)
		return
	}
	c.enabled.Store(false)
	c.Clear()
}

// Put caches value under key, evicting entries as needed. found=false
// caches a negative result.
func (c *Cache) Put(key []byte, value []byte, found bool) {
	if !c.enabled.Load() {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	c.putLocked(s, key, value, found)
	s.mu.Unlock()
}

// Gen samples the invalidation generation of key's shard, which every
// Invalidate of a key in that shard, every Clear and every SetEnabled that
// disables the cache advances. The stamp also carries the shard, so GetAt
// and Fill for the same key do not hash it again.
func (c *Cache) Gen(key []byte) Stamp {
	s := c.shardOf(key)
	return Stamp{s: s, gen: s.gen.Load()}
}

// Fill is Put for a value read from the store beneath the cache: it caches
// value only if key's shard generation is still the one st, which Gen(key)
// returned before the caller began the read, recorded. A writer that
// inserts a newer value and then invalidates its key thus either advances
// the generation before the fill, which refuses it, or removes the filled
// entry after it: a fill can never outlive an insert its read did not see.
func (c *Cache) Fill(key []byte, value []byte, st Stamp) {
	if !c.enabled.Load() {
		return
	}
	st.s.mu.Lock()
	if st.s.gen.Load() == st.gen {
		c.putLocked(st.s, key, value, true)
	}
	st.s.mu.Unlock()
}

// putLocked inserts under s.mu. It re-checks the enabled flag there: a put
// that read it before a disabling SetEnabled stored it may reach the lock
// after SetEnabled emptied this shard, and must not refill it.
func (c *Cache) putLocked(s *shard, key []byte, value []byte, found bool) {
	if !c.enabled.Load() {
		return
	}
	size := int64(len(key) + len(value))
	if size > s.capacity {
		return // would evict the whole shard for one oversized pair
	}
	i, ok := s.index[string(key)]
	if ok {
		sl := &s.slots[i]
		s.used += size - int64(len(sl.key)+len(sl.value))
		sl.value, sl.found, sl.ref = value, found, true
	} else {
		if n := len(s.free); n > 0 {
			i = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			i = int32(len(s.slots))
			s.slots = append(s.slots, slot{})
		}
		k := string(key)
		s.slots[i] = slot{key: k, value: value, found: found, live: true}
		s.index[k] = i
		s.used += size
	}
	s.evict(i)
}

// evict advances the clock hand until the shard fits its capacity, sparing
// slot keep (the entry being written): a set reference bit is cleared and
// passed over once, a clear one evicts its entry.
func (s *shard) evict(keep int32) {
	for s.used > s.capacity {
		i := s.hand
		if s.hand++; int(s.hand) == len(s.slots) {
			s.hand = 0
		}
		sl := &s.slots[i]
		switch {
		case !sl.live || i == keep:
		case sl.ref:
			sl.ref = false
		default:
			s.remove(i)
		}
	}
}

func (s *shard) remove(i int32) {
	sl := &s.slots[i]
	delete(s.index, sl.key)
	s.used -= int64(len(sl.key) + len(sl.value))
	*sl = slot{}
	s.free = append(s.free, i)
}

// Get returns the cached value for key. hit reports whether the key was in
// the cache at all; found reports whether the cached result was a value
// (true) or a memoised not-found (false).
func (c *Cache) Get(key []byte) (value []byte, found, hit bool) {
	return c.get(c.shardOf(key), key)
}

// GetAt is Get in the shard st names; st must come from Gen(key).
func (c *Cache) GetAt(st Stamp, key []byte) (value []byte, found, hit bool) {
	return c.get(st.s, key)
}

func (c *Cache) get(s *shard, key []byte) (value []byte, found, hit bool) {
	if !c.enabled.Load() {
		return nil, false, false
	}
	s.mu.Lock()
	i, ok := s.index[string(key)]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false, false
	}
	s.hits++
	sl := &s.slots[i]
	sl.ref = true
	value, found = sl.value, sl.found
	s.mu.Unlock()
	return value, found, true
}

// Invalidate removes key from the cache and advances its shard's
// generation; puts of a fresh pair with the same key call it once the pair
// is inserted, so stale cache entries are evicted (Figure 2) and a fill in
// flight is refused (Fill).
func (c *Cache) Invalidate(key []byte) {
	s := c.shardOf(key)
	s.mu.Lock()
	s.gen.Add(1)
	if i, ok := s.index[string(key)]; ok {
		s.remove(i)
	}
	s.mu.Unlock()
}

// Clear drops every entry, advancing every shard's generation, but leaves
// the cache enabled.
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i].shard
		s.mu.Lock()
		s.gen.Add(1)
		s.slots, s.free, s.hand, s.used = nil, nil, 0, 0
		s.index = make(map[string]int32)
		s.mu.Unlock()
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i].shard
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// UsedBytes reports the bytes currently accounted against capacity.
func (c *Cache) UsedBytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i].shard
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i].shard
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}
