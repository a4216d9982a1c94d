package sstable

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"sort"
	"testing"

	"papyruskv/internal/memtable"
)

// scanRange seeks sc to [lo, hi) (empty hi: unbounded) and drains it,
// returning copies so two streams can be compared after both scanners are
// closed.
func scanRange(t *testing.T, sc *Scanner, lo, hi []byte) []memtable.Entry {
	t.Helper()
	if err := sc.SeekRange(lo, hi); err != nil {
		t.Fatalf("SeekRange(%q, %q): %v", lo, hi, err)
	}
	var out []memtable.Entry
	for {
		e, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("Next after SeekRange(%q, %q): %v", lo, hi, err)
		}
		if !ok || (len(hi) > 0 && bytes.Compare(e.Key, hi) >= 0) {
			return out
		}
		out = append(out, memtable.Entry{Key: bytes.Clone(e.Key), Value: bytes.Clone(e.Value), Tombstone: e.Tombstone})
	}
}

// refsOf reports the pin count of (dir, ssid)'s cached reader, -1 if absent.
func refsOf(c *ReaderCache, dir string, ssid uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[tableKey{dir: dir, ssid: ssid}]
	if !ok {
		return -1
	}
	return el.Value.(*tableReader).refs
}

// TestScannerCachedMatchesUncached: a cache-opened scanner and an uncached
// one are the same scanner with a different index source, so every range
// must stream identically — and match the oracle — whether the bound falls
// before the first key, past the last, on a key, between two, on either side
// of a block boundary, or is empty.
func TestScannerCachedMatchesUncached(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(2000, 21)
	entries[700].Tombstone, entries[700].Value = true, nil
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 1<<20)

	between := func(i int) []byte { return append(bytes.Clone(entries[i].Key), 0) }
	bounds := [][2][]byte{
		{nil, nil},
		{[]byte{}, []byte{}},
		{[]byte("a"), []byte("b")},                       // wholly before the first key
		{[]byte("zzz"), nil},                             // wholly past the last key
		{[]byte("a"), entries[0].Key},                    // hi on the first key: empty
		{[]byte("a"), between(0)},                        // exactly the first key
		{entries[len(entries)-1].Key, nil},               // exactly the last key
		{between(len(entries) - 1), nil},                 // just past the last key
		{entries[690].Key, entries[710].Key},             // across the tombstone
		{between(10), between(11)},                       // between keys, one hit
		{between(10), entries[11].Key},                   // between keys, empty
		{entries[1200].Key, entries[1200].Key},           // lo == hi
		{nil, entries[5].Key},                            // open lo
		{entries[len(entries)-100].Key, []byte("zzzzz")}, // hi past the end
	}
	// Around every fence: a seek equal to a block's first key, one equal to
	// the last key of the block before it, and one between the two all land
	// on a block boundary from a different side.
	fences := mustLoadIndex(t, dev, "db/r0", 1).keys
	if len(fences) < 10 {
		t.Fatalf("table has %d blocks, want a multi-block table", len(fences))
	}
	for i := 1; i < len(fences); i++ {
		j := sort.Search(len(entries), func(j int) bool { return bytes.Compare(entries[j].Key, fences[i]) >= 0 })
		bounds = append(bounds,
			[2][]byte{fences[i], between(j + 2)},
			[2][]byte{entries[j-1].Key, between(j)},
			[2][]byte{between(j - 1), between(j)},
		)
	}
	bounds = append(bounds, [2][]byte{fences[len(fences)-1], nil}) // the whole last block
	rng := rand.New(rand.NewSource(22))
	pick := func() []byte {
		switch i := rng.Intn(len(entries)); rng.Intn(3) {
		case 0:
			return entries[i].Key
		case 1:
			return between(i)
		default:
			return nil
		}
	}
	for i := 0; i < 200; i++ {
		bounds = append(bounds, [2][]byte{pick(), pick()})
	}

	for _, b := range bounds {
		lo, hi := b[0], b[1]
		var want []memtable.Entry
		for _, e := range entries {
			if bytes.Compare(e.Key, lo) >= 0 && (len(hi) == 0 || bytes.Compare(e.Key, hi) < 0) {
				want = append(want, e)
			}
		}
		cached, err := c.NewScanner("db/r0", 1)
		if err != nil {
			t.Fatal(err)
		}
		if cached.r == nil {
			t.Fatal("cache-enabled NewScanner did not pin the cached reader")
		}
		plain, err := NewScanner(dev, "db/r0", 1)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]memtable.Entry{
			"cached":   scanRange(t, &cached, lo, hi),
			"uncached": scanRange(t, &plain, lo, hi),
		}
		cached.Close()
		plain.Close()
		for name, g := range got {
			if len(g) != len(want) {
				t.Fatalf("%s [%q,%q): %d entries, want %d", name, lo, hi, len(g), len(want))
			}
			for i := range g {
				if !bytes.Equal(g[i].Key, want[i].Key) || !bytes.Equal(g[i].Value, want[i].Value) || g[i].Tombstone != want[i].Tombstone {
					t.Fatalf("%s [%q,%q)[%d] = %q, want %q", name, lo, hi, i, g[i].Key, want[i].Key)
				}
			}
		}
	}
	// A repeated Close releases no second pin and leaves the handle — the
	// cache's, not the scanner's — open for the next reader.
	sc, err := c.NewScanner("db/r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	sc.Close()
	if refs := refsOf(c, "db/r0", 1); refs != 0 {
		t.Errorf("reader refs = %d after every scanner closed, want 0", refs)
	}
	if val, found := cacheGet(t, c, "db/r0", 1, entries[3].Key); !found || !bytes.Equal(val, entries[3].Value) {
		t.Errorf("get after the scanners closed: found=%v val=%q", found, val)
	}
}

// TestScannerWarmRangeCost pins the point of reading scans through the
// cache with a bounded seek: a 100-key range over a big warm table opens no
// file (the cached reader owns the data handle and the parsed index) and
// makes exactly one read — the blocks from lo's to hi's, which the index
// names — not the whole SSIndex, a 1MB chunk, or a read-ahead past hi.
func TestScannerWarmRangeCost(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(12000, 23)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 4<<20)
	if err := c.Validate("db/r0", 1); err != nil { // warm the entry
		t.Fatal(err)
	}
	const from, n = 7000, 100
	before := dev.Stats()
	sc, err := c.NewScanner("db/r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := scanRange(t, &sc, entries[from].Key, entries[from+n].Key)
	sc.Close()
	after := dev.Stats()
	if len(got) != n || !bytes.Equal(got[0].Key, entries[from].Key) || !bytes.Equal(got[n-1].Value, entries[from+n-1].Value) {
		t.Fatalf("range returned %d entries, want %d", len(got), n)
	}
	if opens := after.Opens - before.Opens; opens != 0 {
		t.Errorf("warm range opened %d files, want 0", opens)
	}
	if reads := after.Reads - before.Reads; reads != 1 {
		t.Errorf("warm range made %d reads to return %d entries, want 1", reads, n)
	}
	if read := after.BytesRead - before.BytesRead; read > 64<<10 {
		t.Errorf("warm range read %d bytes to return %d entries, want <= 64KB", read, n)
	}
	if hits := c.Counters().Hits.Load(); hits == 0 {
		t.Error("scanner open did not count as a reader-cache hit")
	}
}

// TestScannerSurvivesEviction: a cache-opened scanner pins its reader like a
// Get does, so evicting the entry, sweeping its directory, or unlinking the
// table (compaction's Remove+Evict) mid-stream cannot pull the descriptor
// out from under it. The scan finishes with the right answer, and the
// descriptor closes when the scanner — the last pin — does.
func TestScannerSurvivesEviction(t *testing.T) {
	for name, invalidate := range map[string]func(t *testing.T, c *ReaderCache){
		"Evict":    func(t *testing.T, c *ReaderCache) { c.Evict("db/r0", 1) },
		"EvictDir": func(t *testing.T, c *ReaderCache) { c.EvictDir("db/r0") },
		"unlink": func(t *testing.T, c *ReaderCache) {
			if err := Remove(c.dev, "db/r0", 1); err != nil {
				t.Fatal(err)
			}
			c.Evict("db/r0", 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dev := testDev(t)
			entries := sortedEntries(3000, 24)
			if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
				t.Fatal(err)
			}
			c := NewReaderCache(dev, 1<<20)
			sc, err := c.NewScanner("db/r0", 1)
			if err != nil {
				t.Fatal(err)
			}
			r := sc.r
			if err := sc.SeekRange(entries[100].Key, nil); err != nil {
				t.Fatal(err)
			}
			for i := 100; i < 110; i++ {
				if e, ok, err := sc.Next(); err != nil || !ok || !bytes.Equal(e.Key, entries[i].Key) {
					t.Fatalf("Next[%d] = %q, %v, %v", i, e.Key, ok, err)
				}
			}

			invalidate(t, c)
			if st := c.Stats(); st.Entries != 0 {
				t.Fatalf("%d cache entries after invalidation, want 0", st.Entries)
			}

			// Mid-stream: the rest of the table arrives through the pinned
			// descriptor, across several window refills, and a re-seek
			// still finds the pinned index.
			for i := 110; i < len(entries); i++ {
				e, ok, err := sc.Next()
				if err != nil || !ok || !bytes.Equal(e.Key, entries[i].Key) || !bytes.Equal(e.Value, entries[i].Value) {
					t.Fatalf("Next[%d] after invalidation = %q, %v, %v", i, e.Key, ok, err)
				}
			}
			if _, ok, err := sc.Next(); ok || err != nil {
				t.Fatalf("Next past the end = %v, %v", ok, err)
			}
			if err := sc.SeekRange(entries[2990].Key, nil); err != nil {
				t.Fatal(err)
			}
			if e, ok, err := sc.Next(); err != nil || !ok || !bytes.Equal(e.Key, entries[2990].Key) {
				t.Fatalf("re-seek after invalidation = %q, %v, %v", e.Key, ok, err)
			}

			c.mu.Lock()
			refs, dead := r.refs, r.dead
			c.mu.Unlock()
			if refs != 1 || !dead {
				t.Fatalf("parked reader refs=%d dead=%v, want 1, true", refs, dead)
			}
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			refs = r.refs
			c.mu.Unlock()
			if refs != 0 {
				t.Errorf("reader refs = %d after Close, want 0", refs)
			}
			if _, err := r.data.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
				t.Errorf("read through the released handle: err = %v, want os.ErrClosed", err)
			}
		})
	}
}

// TestScannerCorruptionBehindCache: reading scans through the cache must not
// change what damage looks like. An index that is already corrupt when the
// reader loads makes the cache refuse the table, and the scanner falls back
// to the uncached open whose seek degrades to a forward decode — same
// answers, no error. An index damaged behind a warm entry is not consulted
// (the parsed copy was validated at load). A damaged data record surfaces as
// typed ErrCorrupt from Next either way, because every returned record is
// CRC-verified where it is decoded, not where the table was opened.
func TestScannerCorruptionBehindCache(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(400, 25)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 1<<20)
	lo, hi := entries[150].Key, entries[250].Key
	check := func(what string, wantPinned bool) {
		t.Helper()
		sc, err := c.NewScanner("d", 1)
		if err != nil {
			t.Fatalf("%s: NewScanner: %v", what, err)
		}
		defer sc.Close()
		if pinned := sc.r != nil; pinned != wantPinned {
			t.Fatalf("%s: scanner pinned=%v, want %v", what, pinned, wantPinned)
		}
		got := scanRange(t, &sc, lo, hi)
		if len(got) != 100 || !bytes.Equal(got[0].Key, lo) || !bytes.Equal(got[99].Value, entries[249].Value) {
			t.Fatalf("%s: range returned %d entries, first %q", what, len(got), got[0].Key)
		}
	}

	check("clean", true)
	flipBit(t, dev, IndexName("d", 1), (indexHeader+3)*8)
	check("index flipped behind a warm entry", true)
	c.Evict("d", 1)
	check("index corrupt at load", false)
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("corrupt load left %d cache entries", st.Entries)
	}

	// Repair the index, warm the cache, then damage a record in the range.
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	check("repaired", true)
	c.Evict("d", 1)
	flipBit(t, dev, DataName("d", 1), int(recordOffsets(entries)[200]+recHeader+2)*8)
	for _, open := range map[string]func() (Scanner, error){
		"cached":   func() (Scanner, error) { return c.NewScanner("d", 1) },
		"uncached": func() (Scanner, error) { return NewScanner(dev, "d", 1) },
	} {
		sc, err := open()
		if err != nil {
			t.Fatal(err)
		}
		err = sc.SeekRange(lo, hi)
		for err == nil {
			var ok bool
			if _, ok, err = sc.Next(); !ok {
				break
			}
		}
		sc.Close()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("scan across a flipped record: err = %v, want ErrCorrupt", err)
		}
	}
}

// TestScannerPooledWindowReturnedOnce: a bounded scanner reads its span into
// a window from blockPool and hands it back at Close — once. A second Close
// must not Put it again: the pool would then give one buffer to two owners.
func TestScannerPooledWindowReturnedOnce(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(1000, 26)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 1<<20)
	sc, err := c.NewScanner("db/r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanRange(t, &sc, entries[400].Key, entries[500].Key); len(got) != 100 {
		t.Fatalf("range returned %d entries, want 100", len(got))
	}
	window := sc.pooled
	if window == nil {
		t.Fatal("bounded scan did not read into a pooled window")
	}
	sc.Close()
	sc.Close()
	if sc.pooled != nil {
		t.Fatal("Close kept the pooled window")
	}
	// Put twice, the window would come out of the pool twice in a row.
	a, b := blockPool.Get().(*[]byte), blockPool.Get().(*[]byte)
	if a == b {
		t.Fatal("the pool handed out one window twice: Close returned it twice")
	}
	blockPool.Put(a)
	blockPool.Put(b)
}
