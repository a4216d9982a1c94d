package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"

	"papyruskv/internal/bloom"
)

func cacheGet(t *testing.T, c *ReaderCache, dir string, ssid uint64, key []byte) ([]byte, bool) {
	t.Helper()
	val, tomb, found, err := c.Get(dir, ssid, key, BinarySearch, true)
	if err != nil {
		t.Fatalf("cache get %q: %v", key, err)
	}
	if tomb {
		return nil, false
	}
	return val, found
}

func TestReaderCacheHitMissCounters(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(100, 1)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 1<<20)
	for i, e := range entries {
		val, found := cacheGet(t, c, "db/r0", 1, e.Key)
		if !found || !bytes.Equal(val, e.Value) {
			t.Fatalf("entry %d: found=%v val=%q", i, found, val)
		}
	}
	ctr := c.Counters()
	if got := ctr.Misses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1 (single load of the table)", got)
	}
	if got := ctr.Hits.Load(); got != uint64(len(entries)-1) {
		t.Errorf("hits = %d, want %d", got, len(entries)-1)
	}
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes <= readerOverhead {
		t.Errorf("stats = %+v", st)
	}
	// Absent keys pass through the cached bloom filter, not the device.
	if _, found := cacheGet(t, c, "db/r0", 1, []byte("absent-key")); found {
		t.Error("found a key that was never written")
	}
}

func TestReaderCacheNegativeEntries(t *testing.T) {
	dev := testDev(t)
	c := NewReaderCache(dev, 1<<20)
	for i := 0; i < 3; i++ {
		_, _, _, err := c.Get("db/r0", 7, []byte("k"), BinarySearch, true)
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("probe %d: err = %v, want fs.ErrNotExist", i, err)
		}
	}
	ctr := c.Counters()
	if ctr.Misses.Load() != 1 || ctr.NegHits.Load() != 2 {
		t.Errorf("misses=%d negHits=%d, want 1 and 2", ctr.Misses.Load(), ctr.NegHits.Load())
	}
	// The table appearing for real requires an eviction (the read path does
	// this on its retry) for the cache to see it.
	entries := sortedEntries(10, 2)
	if _, err := WriteTable(dev, "db/r0", 7, entries); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Get("db/r0", 7, entries[0].Key, BinarySearch, true); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("expected the negative entry to stick until evicted, got %v", err)
	}
	c.Evict("db/r0", 7)
	if val, found := cacheGet(t, c, "db/r0", 7, entries[0].Key); !found || !bytes.Equal(val, entries[0].Value) {
		t.Fatalf("after eviction: found=%v val=%q", found, val)
	}
}

func TestReaderCacheLRUCapping(t *testing.T) {
	dev := testDev(t)
	for ssid := uint64(1); ssid <= 8; ssid++ {
		if _, err := WriteTable(dev, "db/r0", ssid, sortedEntries(50, int64(ssid))); err != nil {
			t.Fatal(err)
		}
	}
	// Room for roughly two entries: each costs readerOverhead plus its
	// bloom and index bytes.
	c := NewReaderCache(dev, 2*readerOverhead+4096)
	for ssid := uint64(1); ssid <= 8; ssid++ {
		e := sortedEntries(50, int64(ssid))[0]
		if val, found := cacheGet(t, c, "db/r0", ssid, e.Key); !found || !bytes.Equal(val, e.Value) {
			t.Fatalf("ssid %d: found=%v val=%q", ssid, found, val)
		}
	}
	st := c.Stats()
	if st.Entries > 3 {
		t.Errorf("entries = %d, want <= 3 under capacity pressure", st.Entries)
	}
	if st.UsedBytes > 2*readerOverhead+4096 {
		t.Errorf("used bytes %d exceed capacity", st.UsedBytes)
	}
	if got := c.Counters().Evictions.Load(); got == 0 {
		t.Error("no evictions recorded despite capacity pressure")
	}
	// The surviving entries still serve reads correctly.
	e := sortedEntries(50, 8)[1]
	if val, found := cacheGet(t, c, "db/r0", 8, e.Key); !found || !bytes.Equal(val, e.Value) {
		t.Fatalf("post-pressure read: found=%v val=%q", found, val)
	}
}

func TestReaderCacheDisabled(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(10, 3)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, -1)
	if val, found := cacheGet(t, c, "db/r0", 1, entries[0].Key); !found || !bytes.Equal(val, entries[0].Value) {
		t.Fatalf("disabled cache get: found=%v val=%q", found, val)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("disabled cache holds %d entries", st.Entries)
	}
	// A nil cache behaves like a disabled one on the eviction hooks.
	var nilCache *ReaderCache
	nilCache.Evict("db/r0", 1)
	nilCache.EvictDir("db/r0")
}

func TestReaderCacheSequentialBypass(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(10, 4)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 1<<20)
	val, _, found, err := c.Get("db/r0", 1, entries[0].Key, SequentialSearch, true)
	if err != nil || !found || !bytes.Equal(val, entries[0].Value) {
		t.Fatalf("sequential get: %v %v %q", err, found, val)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("sequential search populated the cache (%d entries): Figure 8's baseline must keep paying device costs", st.Entries)
	}
}

// TestReaderCacheCorruptAfterEvict is the poisoned-file invalidation case:
// a warm cache legitimately keeps serving from its validated copy after the
// on-NVM file is damaged, but once the entry is evicted the damage must
// surface as typed ErrCorrupt — never as wrong data, never as a cached pass.
func TestReaderCacheCorruptAfterEvict(t *testing.T) {
	for _, tc := range []struct {
		name string
		file func(dir string, ssid uint64) string
	}{
		{"bloom", BloomName},
		{"index", IndexName},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := testDev(t)
			entries := sortedEntries(50, 5)
			if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
				t.Fatal(err)
			}
			c := NewReaderCache(dev, 1<<20)
			if val, found := cacheGet(t, c, "db/r0", 1, entries[3].Key); !found || !bytes.Equal(val, entries[3].Value) {
				t.Fatalf("warmup: found=%v val=%q", found, val)
			}
			// Bit-flip the file behind the warm cache.
			raw, err := dev.ReadFile(tc.file("db/r0", 1))
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x40
			if err := dev.WriteFile(tc.file("db/r0", 1), raw); err != nil {
				t.Fatal(err)
			}
			// Warm reads still pass: the cached copy was validated at load.
			if val, found := cacheGet(t, c, "db/r0", 1, entries[3].Key); !found || !bytes.Equal(val, entries[3].Value) {
				t.Fatalf("warm read after damage: found=%v val=%q", found, val)
			}
			c.Evict("db/r0", 1)
			_, _, _, err = c.Get("db/r0", 1, entries[3].Key, BinarySearch, true)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("after eviction err = %v, want ErrCorrupt", err)
			}
			// Corrupt loads are not cached; the error is re-detected, not
			// replayed, so a repaired file heals without intervention.
			if st := c.Stats(); st.Entries != 0 {
				t.Errorf("corrupt load left %d cache entries", st.Entries)
			}
		})
	}
}

// TestReaderCacheConcurrentGetEvict races readers against continuous
// eviction and directory sweeps: every read must return either the correct
// value or fs.ErrNotExist-free success — never wrong data, never a read
// from a closed fd.
func TestReaderCacheConcurrentGetEvict(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(100, 6)
	for ssid := uint64(1); ssid <= 4; ssid++ {
		if _, err := WriteTable(dev, "db/r0", ssid, entries); err != nil {
			t.Fatal(err)
		}
	}
	c := NewReaderCache(dev, 1<<20)
	stop := make(chan struct{})
	evictorDone := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(evictorDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%5 == 0 {
				c.EvictDir("db/r0")
			} else {
				c.Evict("db/r0", uint64(i%4+1))
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				e := entries[(g*131+i)%len(entries)]
				val, tomb, found, err := c.Get("db/r0", uint64(i%4+1), e.Key, BinarySearch, true)
				if err != nil {
					t.Errorf("goroutine %d get %d: %v", g, i, err)
					return
				}
				if !found || tomb || !bytes.Equal(val, e.Value) {
					t.Errorf("goroutine %d get %d: found=%v tomb=%v val=%q", g, i, found, tomb, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-evictorDone
}

func TestEntryCount(t *testing.T) {
	dev := testDev(t)
	if _, err := WriteTable(dev, "db/r0", 1, sortedEntries(123, 7)); err != nil {
		t.Fatal(err)
	}
	// From the index header, no cache involved.
	if n, err := EntryCount(dev, "db/r0", 1); err != nil || n != 123 {
		t.Fatalf("EntryCount = %d, %v; want 123", n, err)
	}
	if _, err := EntryCount(dev, "db/r0", 9); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing table: err = %v", err)
	}
	if err := dev.WriteFile(IndexName("db/r0", 2), []byte("garbage-index-xx")); err != nil {
		t.Fatal(err)
	}
	if _, err := EntryCount(dev, "db/r0", 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt index: err = %v", err)
	}
}

// TestMergeBloomSizedFromInputs asserts the output bloom filter is sized
// from the inputs' true entry counts: merging large tables keeps the
// configured 1% false-positive rate, and merging tiny tables does not
// allocate the old flat 1024-per-input estimate.
func TestMergeBloomSizedFromInputs(t *testing.T) {
	dev := testDev(t)
	a := sortedEntries(3000, 10)
	b := sortedEntries(3000, 11)
	if _, err := WriteTable(dev, "db/r0", 1, a); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(dev, "db/r0", 2, b); err != nil {
		t.Fatal(err)
	}
	meta, err := MergeOrdered(dev, "db/r0", []uint64{2, 1}, 3, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count < 3000 {
		t.Fatalf("merged count = %d", meta.Count)
	}
	raw, err := dev.ReadFile(BloomName("db/r0", 3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := bloom.Load(raw[4:])
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%08d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Errorf("false-positive rate %.4f, want near the configured 0.01", rate)
	}

	// Tiny merge: two 10-entry tables. The old flat estimate (2048
	// expected keys) marshals to ~2.5KB; sizing from the real 20 keys
	// stays under the bloom package's 64-bit floor plus header.
	if _, err := WriteTable(dev, "db/r1", 1, sortedEntries(10, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(dev, "db/r1", 2, sortedEntries(10, 13)); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeOrdered(dev, "db/r1", []uint64{2, 1}, 3, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	raw, err = dev.ReadFile(BloomName("db/r1", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 500 {
		t.Errorf("tiny merge produced a %d-byte bloom file; sizing ignored the true input counts", len(raw))
	}
}

// TestMergeSurvivesCorruptIndex: the entry-count read is best-effort — a
// corrupt index falls back to an estimate instead of failing a merge that
// only needs the data files.
func TestMergeSurvivesCorruptIndex(t *testing.T) {
	dev := testDev(t)
	a := sortedEntries(20, 14)
	b := sortedEntries(20, 15)
	if _, err := WriteTable(dev, "db/r0", 1, a); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(dev, "db/r0", 2, b); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(IndexName("db/r0", 2), []byte("garbage-index-xx")); err != nil {
		t.Fatal(err)
	}
	meta, err := MergeOrdered(dev, "db/r0", []uint64{2, 1}, 3, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count == 0 {
		t.Fatal("merge produced an empty table")
	}
}
