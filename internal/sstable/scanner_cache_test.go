package sstable

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
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

// mustOpenTable opens SSTable ssid in dir for reads, closing it with the test.
func mustOpenTable(t *testing.T, dev *nvm.Device, dir string, ssid uint64) *Table {
	t.Helper()
	tbl, err := OpenTable(dev, dir, ssid)
	if err != nil {
		t.Fatalf("OpenTable(%s, %d): %v", dir, ssid, err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// TestScannerCachedMatchesUncached: an open table's scanner and an uncached
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
	tbl := mustOpenTable(t, dev, "db/r0", 1)

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
		cached := tbl.Scanner()
		if cached.idx == nil {
			t.Fatal("the table's scanner does not borrow its parsed index")
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
	// Closing a scanner, even twice, leaves the handle — the table's, not
	// the scanner's — open for the next reader.
	sc := tbl.Scanner()
	sc.Close()
	sc.Close()
	if val, _, found, err := tbl.Get(entries[3].Key, true); err != nil || !found || !bytes.Equal(val, entries[3].Value) {
		t.Errorf("get after the scanners closed: found=%v val=%q err=%v", found, val, err)
	}
}

// TestScannerWarmRangeCost pins the point of reading scans through an open
// table with a bounded seek: a 100-key range over a big table opens no file
// (the table owns the data handle and the parsed index) and makes exactly
// one read — the blocks from lo's to hi's, which the index names — not the
// whole SSIndex, a 1MB chunk, or a read-ahead past hi.
func TestScannerWarmRangeCost(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(12000, 23)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	tbl := mustOpenTable(t, dev, "db/r0", 1)
	const from, n = 7000, 100
	before := dev.Stats()
	sc := tbl.Scanner()
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
}

// TestScannerCorruptionBehindCache: reading scans through an open table
// must not change what damage looks like. An index that is already corrupt
// makes the table fail to open, and the reader falls back to the uncached
// scanner, whose seek degrades to a forward decode — same answers, no
// error. An index damaged behind an open table is not consulted (the parsed
// copy was validated at open). A damaged data record surfaces as typed
// ErrCorrupt from Next either way, because every returned record is
// CRC-verified where it is decoded, not where the table was opened.
func TestScannerCorruptionBehindCache(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(400, 25)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	lo, hi := entries[150].Key, entries[250].Key
	// scan reads [lo, hi) the way a read view's handle opens its scanner:
	// through the open table, or uncached when the table failed to open.
	scan := func(what string, tbl *Table) {
		t.Helper()
		var sc Scanner
		if tbl != nil {
			sc = tbl.Scanner()
		} else {
			var err error
			if sc, err = NewScanner(dev, "d", 1); err != nil {
				t.Fatalf("%s: NewScanner: %v", what, err)
			}
		}
		defer sc.Close()
		got := scanRange(t, &sc, lo, hi)
		if len(got) != 100 || !bytes.Equal(got[0].Key, lo) || !bytes.Equal(got[99].Value, entries[249].Value) {
			t.Fatalf("%s: range returned %d entries, first %q", what, len(got), got[0].Key)
		}
	}

	tbl := mustOpenTable(t, dev, "d", 1)
	scan("clean", tbl)
	flipBit(t, dev, IndexName("d", 1), (indexHeader+3)*8)
	scan("index flipped behind an open table", tbl)
	if _, err := OpenTable(dev, "d", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenTable over a corrupt index: err = %v, want ErrCorrupt", err)
	}
	scan("index corrupt at open", nil)

	// Repair the index, then damage a record in the range and open the
	// table over the damaged file.
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	scan("repaired", mustOpenTable(t, dev, "d", 1))
	flipBit(t, dev, DataName("d", 1), int(recordOffsets(entries)[200]+recHeader+2)*8)
	tbl = mustOpenTable(t, dev, "d", 1)
	for name, open := range map[string]func() (Scanner, error){
		"table":    func() (Scanner, error) { return tbl.Scanner(), nil },
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
			t.Errorf("%s scan across a flipped record: err = %v, want ErrCorrupt", name, err)
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
	sc := mustOpenTable(t, dev, "db/r0", 1).Scanner()
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
