package lru

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// shardedCapacity gives every one of maxShards shards its minimum share
// twice over.
const shardedCapacity = 8 << 20

// keyIn returns a key whose shard is (or, with same=false, is not) the
// shard of ref.
func keyIn(c *Cache, ref []byte, same bool) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("probe-%d", i))
		if (c.shardOf(k) == c.shardOf(ref)) == same && !bytes.Equal(k, ref) {
			return k
		}
	}
}

func TestShardCount(t *testing.T) {
	for _, tc := range []struct {
		capacity int64
		shards   int
	}{
		{0, 1}, {100, 1}, {minShardBytes*2 - 1, 1}, {minShardBytes * 2, 2},
		{1 << 20, 4}, {shardedCapacity, maxShards}, {64 << 20, maxShards},
	} {
		c := New(tc.capacity)
		if len(c.shards) != tc.shards {
			t.Errorf("New(%d) has %d shards, want %d", tc.capacity, len(c.shards), tc.shards)
		}
		for i := range c.shards {
			if got, want := c.shards[i].capacity, tc.capacity/int64(tc.shards); got != want {
				t.Errorf("New(%d) shard %d capacity %d, want %d", tc.capacity, i, got, want)
			}
		}
	}
}

// TestShardedFillRefusedByItsShard: in a multi-shard cache an Invalidate
// refuses a pending Fill of any key of its own shard, and an Invalidate in
// another shard leaves the fill to cache.
func TestShardedFillRefusedByItsShard(t *testing.T) {
	c := New(shardedCapacity)
	k := []byte("k")
	for _, other := range [][]byte{k, keyIn(c, k, true)} {
		st := c.Gen(k)
		c.Invalidate(other)
		c.Fill(k, []byte("stale"), st)
		if _, _, hit := c.Get(k); hit {
			t.Fatalf("a fill overtaken by Invalidate(%q) in its shard was cached", other)
		}
	}
	st := c.Gen(k)
	c.Invalidate(keyIn(c, k, false))
	c.Fill(k, []byte("v"), st)
	if v, found, hit := c.Get(k); !hit || !found || string(v) != "v" {
		t.Fatalf("a fill past an invalidation in another shard: Get = %q, %v, %v", v, found, hit)
	}
}

// Property: in a multi-shard cache, used bytes never exceed capacity and
// always equal the sum of the resident entries. Values run up to past a
// shard's share, so shards evict and oversized pairs are refused.
func TestQuickShardedCapacityInvariant(t *testing.T) {
	big := make([]byte, 640<<10)
	f := func(ops []struct {
		Key  uint16
		Size uint16
	}) bool {
		c := New(shardedCapacity)
		seen := make(map[uint16]bool)
		for _, op := range ops {
			c.Put([]byte{byte(op.Key), byte(op.Key >> 8)}, big[:int(op.Size)*10], true)
			seen[op.Key] = true
			if c.UsedBytes() > shardedCapacity {
				return false
			}
		}
		var sum int64
		for k := range seen {
			if v, _, hit := c.Get([]byte{byte(k), byte(k >> 8)}); hit {
				sum += int64(2 + len(v))
			}
		}
		return sum == c.UsedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSetEnabledRacesPut: puts and fills racing a disable never outlive
// it. Once SetEnabled(false) returns the cache is empty, and a value cached
// before the disable is not served after the re-enable.
func TestSetEnabledRacesPut(t *testing.T) {
	c := New(shardedCapacity)
	var stop atomic.Bool
	var ops atomic.Int64 // writer operations, published every 256
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([][]byte, 64)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("w%d-%d", g, i))
			}
			val := []byte("writer")
			for i := 0; !stop.Load(); i++ {
				k := keys[i%len(keys)]
				if i%2 == 0 {
					c.Put(k, val, true)
				} else {
					c.Fill(k, val, c.Gen(k))
				}
				if i%256 == 255 {
					ops.Add(256)
				}
			}
		}(g)
	}
	// Toggle until the writers have run alongside: rounds that finish
	// before a writer is scheduled race nothing.
	sentinel := []byte("sentinel")
	for r := 0; r < 1000 || ops.Load() < 1<<20; r++ {
		old := []byte(fmt.Sprintf("round-%d", r))
		c.Put(sentinel, old, true)
		c.SetEnabled(false)
		for j := 0; j < 10; j++ {
			if n := c.Len(); n != 0 {
				t.Fatalf("round %d: %d entries after SetEnabled(false) returned", r, n)
			}
		}
		c.SetEnabled(true)
		if v, _, hit := c.Get(sentinel); hit {
			t.Fatalf("round %d: %q, cached before the disable, served after the re-enable", r, v)
		}
	}
}

// TestHitAllocs: a hit allocates nothing, by Get or by GetAt.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's own under -race")
	}
	c := New(shardedCapacity)
	k := []byte("key")
	c.Put(k, []byte("value"), true)
	if a := testing.AllocsPerRun(1000, func() { c.Get(k) }); a != 0 {
		t.Errorf("Get hit allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { c.GetAt(c.Gen(k), k) }); a != 0 {
		t.Errorf("Gen + GetAt hit allocates %v times, want 0", a)
	}
}

// TestFillAllocs: filling a new key into a full cache allocates the key
// string and nothing else; the evicted entry's slot is reused.
func TestFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's own under -race")
	}
	c := New(shardedCapacity)
	val := make([]byte, 1<<10)
	keys := make([][]byte, 3*shardedCapacity/len(val))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
	}
	warm := 2 * len(keys) / 3 // twice the cache's entries: every shard evicts
	for _, k := range keys[:warm] {
		c.Fill(k, val, c.Gen(k))
	}
	next := warm
	a := testing.AllocsPerRun(1000, func() {
		k := keys[next]
		next++
		c.Fill(k, val, c.Gen(k))
	})
	if a > 1 {
		t.Errorf("a fill of a new key allocates %v times, want 1", a)
	}
}
