package lru

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	c := New(1024)
	c.Put([]byte("a"), []byte("alpha"), true)
	v, found, hit := c.Get([]byte("a"))
	if !hit || !found || string(v) != "alpha" {
		t.Fatalf("Get = %q, %v, %v", v, found, hit)
	}
	if _, _, hit := c.Get([]byte("b")); hit {
		t.Fatal("Get(b) hit")
	}
}

func TestNegativeCaching(t *testing.T) {
	c := New(1024)
	c.Put([]byte("gone"), nil, false)
	v, found, hit := c.Get([]byte("gone"))
	if !hit || found || v != nil {
		t.Fatalf("negative entry: %q, %v, %v", v, found, hit)
	}
}

func TestEvictionOrder(t *testing.T) {
	// Each entry is 1 key byte + 9 value bytes = 10; capacity fits 3.
	c := New(30)
	for _, k := range []string{"a", "b", "c"} {
		c.Put([]byte(k), make([]byte, 9), true)
	}
	c.Get([]byte("a")) // a becomes MRU; b is now LRU
	c.Put([]byte("d"), make([]byte, 9), true)
	if _, _, hit := c.Get([]byte("b")); hit {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, _, hit := c.Get([]byte(k)); !hit {
			t.Fatalf("%s should be cached", k)
		}
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New(100)
	c.Put([]byte("k"), []byte("v1"), true)
	c.Put([]byte("k"), []byte("longer-value"), true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	v, _, _ := c.Get([]byte("k"))
	if string(v) != "longer-value" {
		t.Fatalf("Get = %q", v)
	}
	if c.UsedBytes() != int64(1+len("longer-value")) {
		t.Fatalf("UsedBytes = %d", c.UsedBytes())
	}
}

func TestOversizedRejected(t *testing.T) {
	c := New(10)
	c.Put([]byte("k"), make([]byte, 100), true)
	if c.Len() != 0 {
		t.Fatal("oversized entry was cached")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(100)
	c.Put([]byte("k"), []byte("v"), true)
	c.Invalidate([]byte("k"))
	if _, _, hit := c.Get([]byte("k")); hit {
		t.Fatal("invalidated key still hits")
	}
	if c.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after invalidate", c.UsedBytes())
	}
	c.Invalidate([]byte("absent")) // must not panic
}

// TestFillRefusedAfterInvalidate: a fill whose generation an Invalidate
// (of any key), a Clear or a disabling SetEnabled overtook is dropped; one that
// nothing overtook caches.
func TestFillRefusedAfterInvalidate(t *testing.T) {
	c := New(100)
	for _, overtake := range []func(){
		func() { c.Invalidate([]byte("k")) },
		func() { c.Invalidate([]byte("other")) },
		c.Clear,
		func() { c.SetEnabled(false); c.SetEnabled(true) },
	} {
		gen := c.Gen([]byte("k"))
		overtake()
		c.Fill([]byte("k"), []byte("stale"), gen)
		if _, _, hit := c.Get([]byte("k")); hit {
			t.Fatal("a fill overtaken by an invalidation was cached")
		}
	}
	c.Fill([]byte("k"), []byte("v"), c.Gen([]byte("k")))
	if v, found, hit := c.Get([]byte("k")); !hit || !found || string(v) != "v" {
		t.Fatalf("Get after a current fill = %q, %v, %v", v, found, hit)
	}
}

func TestDisabledCache(t *testing.T) {
	c := New(0)
	if c.Enabled() {
		t.Fatal("zero-capacity cache is enabled")
	}
	c.Put([]byte("k"), []byte("v"), true)
	if _, _, hit := c.Get([]byte("k")); hit {
		t.Fatal("disabled cache hit")
	}
}

func TestSetEnabled(t *testing.T) {
	c := New(100)
	c.Put([]byte("k"), []byte("v"), true)
	c.SetEnabled(false)
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatal("disable did not invalidate entries")
	}
	c.Put([]byte("k2"), []byte("v2"), true)
	if c.Len() != 0 {
		t.Fatal("disabled cache accepted a put")
	}
	c.SetEnabled(true)
	c.Put([]byte("k3"), []byte("v3"), true)
	if _, _, hit := c.Get([]byte("k3")); !hit {
		t.Fatal("re-enabled cache missed")
	}
	// Re-enabling a zero-capacity cache stays disabled.
	z := New(0)
	z.SetEnabled(true)
	if z.Enabled() {
		t.Fatal("zero-capacity cache enabled")
	}
}

func TestClear(t *testing.T) {
	c := New(100)
	c.Put([]byte("k"), []byte("v"), true)
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	if !c.Enabled() {
		t.Fatal("Clear disabled the cache")
	}
}

func TestStats(t *testing.T) {
	c := New(100)
	c.Put([]byte("k"), []byte("v"), true)
	c.Get([]byte("k"))
	c.Get([]byte("x"))
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d, %d; want 1, 1", hits, misses)
	}
}

// Property: used bytes never exceed capacity and always equal the sum of the
// resident entries.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val []byte
	}) bool {
		const capacity = 256
		c := New(capacity)
		for _, op := range ops {
			c.Put([]byte{op.Key}, op.Val, true)
			if c.UsedBytes() > capacity {
				return false
			}
		}
		var sum int64
		for k := 0; k < 256; k++ {
			if v, _, hit := c.Get([]byte{byte(k)}); hit {
				sum += int64(1 + len(v))
			}
		}
		return sum == c.UsedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				k := []byte(fmt.Sprintf("k%d", i%64))
				c.Put(k, []byte("value"), true)
				c.Get(k)
				if i%10 == 0 {
					c.Invalidate(k)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
