package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

func testDev(t *testing.T) *nvm.Device {
	t.Helper()
	d, err := nvm.Open(t.TempDir(), nvm.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sortedEntries(n int, seed int64) []memtable.Entry {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var keys []string
	for len(keys) < n {
		k := fmt.Sprintf("key-%08x", rng.Uint32())
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]memtable.Entry, n)
	for i, k := range keys {
		out[i] = memtable.Entry{Key: []byte(k), Value: []byte("val-" + k)}
	}
	return out
}

func TestWriteAndGetBothModes(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(200, 1)
	meta, err := WriteTable(dev, "db/r0", 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 200 || meta.SSID != 1 || meta.DataBytes <= 0 {
		t.Fatalf("meta = %+v", meta)
	}
	for _, mode := range []SearchMode{BinarySearch, SequentialSearch} {
		for _, useBloom := range []bool{true, false} {
			for i := 0; i < 200; i += 13 {
				val, tomb, found, err := Get(dev, "db/r0", 1, entries[i].Key, mode, useBloom)
				if err != nil {
					t.Fatal(err)
				}
				if !found || tomb || !bytes.Equal(val, entries[i].Value) {
					t.Fatalf("mode=%v bloom=%v key %q: %q %v %v", mode, useBloom, entries[i].Key, val, tomb, found)
				}
			}
			if _, _, found, err := Get(dev, "db/r0", 1, []byte("zzz-absent"), mode, useBloom); err != nil || found {
				t.Fatalf("mode=%v bloom=%v: absent key found=%v err=%v", mode, useBloom, found, err)
			}
			if _, _, found, err := Get(dev, "db/r0", 1, []byte("aaa-absent"), mode, useBloom); err != nil || found {
				t.Fatalf("absent low key found=%v err=%v", found, err)
			}
		}
	}
}

func TestTombstoneRecord(t *testing.T) {
	dev := testDev(t)
	entries := []memtable.Entry{
		{Key: []byte("alive"), Value: []byte("v")},
		{Key: []byte("dead"), Tombstone: true},
	}
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	val, tomb, found, err := Get(dev, "d", 1, []byte("dead"), BinarySearch, true)
	if err != nil || !found || !tomb || len(val) != 0 {
		t.Fatalf("tombstone get = %q %v %v %v", val, tomb, found, err)
	}
}

func TestWriterRejectsUnsortedKeys(t *testing.T) {
	dev := testDev(t)
	w, err := NewWriter(dev, "d", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add(memtable.Entry{Key: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(memtable.Entry{Key: []byte("a")}); err == nil {
		t.Fatal("descending key accepted")
	}
	if err := w.Add(memtable.Entry{Key: []byte("b")}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestScannerRoundTrip(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(500, 2)
	entries[7].Tombstone = true
	if _, err := WriteTable(dev, "d", 3, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dev, "d", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("ReadAll len = %d", len(got))
	}
	for i := range entries {
		if !bytes.Equal(got[i].Key, entries[i].Key) || !bytes.Equal(got[i].Value, entries[i].Value) || got[i].Tombstone != entries[i].Tombstone {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
	}
}

// TestScannerLargeValuesAcrossChunks holds the scanner to its contract: an
// entry stays valid through the following Next, across the read-ahead ramp,
// across a Next that refills twice, and across records larger than the
// ramp's largest read and than a whole window.
func TestScannerLargeValuesAcrossChunks(t *testing.T) {
	dev := testDev(t)
	// The prefix makes one Next refill twice. The first window reads 4096
	// bytes and 0a fills 4092 of them, so 0b's header straddles its end: a
	// refill reads 8192 more into one of the two windows, 0b fills 8190 of
	// that, and 0c's header straddles again. That refill goes to the other
	// window, and 0c's 100000 bytes need a second refill in the same Next,
	// which must not land on the window 0b — returned last — lives in.
	framed := func(key string, total int) memtable.Entry {
		return memtable.Entry{Key: []byte(key), Value: bytes.Repeat([]byte(key[1:]), total-recHeader-len(key)-recTrailer)}
	}
	entries := []memtable.Entry{framed("0a", 4092), framed("0b", 8190), framed("0c", 100000)}
	// A run of small records walks the ramp through several doubling
	// refills; the values after it force refills sized by the record, not
	// the ramp, and "d" outgrows a window and gets a buffer of its own.
	big := make([]byte, windowCap+12345)
	for i := range big {
		big[i] = byte(i)
	}
	for i := 0; i < 1500; i++ {
		entries = append(entries, memtable.Entry{
			Key:   []byte(fmt.Sprintf("a-%06d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, 100+i%50),
		})
	}
	entries = append(entries,
		memtable.Entry{Key: []byte("b"), Value: big[:scannerChunk+12345]},
		memtable.Entry{Key: []byte("c"), Value: []byte("small")},
		memtable.Entry{Key: []byte("d"), Value: big},
		memtable.Entry{Key: []byte("e"), Value: []byte("small")},
		memtable.Entry{Key: []byte("f"), Value: big[:scannerChunk-1]},
		memtable.Entry{Key: []byte("g"), Value: []byte("small")},
	)
	meta, err := WriteTable(dev, "d", 1, entries)
	if err != nil {
		t.Fatal(err)
	}

	same := func(got, want memtable.Entry) bool {
		return bytes.Equal(got.Key, want.Key) && bytes.Equal(got.Value, want.Value)
	}
	before := dev.Stats()
	sc, err := NewScanner(dev, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var prev memtable.Entry
	n, refills := 0, 0
	for {
		windowOff := sc.off
		e, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && !same(prev, entries[n-1]) {
			t.Fatalf("record %d (%q) changed under the following Next", n-1, entries[n-1].Key)
		}
		if !ok {
			break
		}
		if n >= len(entries) || !same(e, entries[n]) {
			t.Fatalf("record %d: got %q (value len %d)", n, e.Key, len(e.Value))
		}
		if sc.off != windowOff {
			refills++
		}
		prev = e
		n++
	}
	if n != len(entries) {
		t.Fatalf("scanned %d entries, want %d", n, len(entries))
	}
	// The ramp: the small-record run (~200KB) alone walks the 4, 8, ...,
	// 128KB windows, and the whole pass stays logarithmic in the file size —
	// neither one read per record nor one 1MB read for the first dozen.
	if refills < 6 {
		t.Errorf("scan crossed %d refills, want >= 6 (geometric ramp from %d bytes)", refills, scannerFirstWindow)
	}
	after := dev.Stats()
	if reads := after.Reads - before.Reads; reads > 16 {
		t.Errorf("sequential pass took %d reads for %d bytes, want <= 16", reads, meta.DataBytes)
	}
	if read := after.BytesRead - before.BytesRead; read != uint64(meta.DataBytes) {
		t.Errorf("sequential pass read %d bytes of a %d-byte file", read, meta.DataBytes)
	}
}

func TestEmptyTable(t *testing.T) {
	dev := testDev(t)
	meta, err := WriteTable(dev, "d", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 0 {
		t.Fatalf("meta = %+v", meta)
	}
	if _, _, found, err := Get(dev, "d", 1, []byte("x"), BinarySearch, true); err != nil || found {
		t.Fatalf("get on empty table: %v %v", found, err)
	}
	all, err := ReadAll(dev, "d", 1)
	if err != nil || len(all) != 0 {
		t.Fatalf("ReadAll on empty = %v, %v", all, err)
	}
}

func TestListSSIDs(t *testing.T) {
	dev := testDev(t)
	for _, id := range []uint64{3, 1, 7} {
		if _, err := WriteTable(dev, "d", id, sortedEntries(5, int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	// An incomplete table (data only) must be ignored.
	dev.WriteFile(DataName("d", 9), []byte("partial"))
	ids, err := ListSSIDs(dev, "d")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 7}
	if len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
		t.Fatalf("ListSSIDs = %v", ids)
	}
}

func TestRemove(t *testing.T) {
	dev := testDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Remove(dev, "d", 1); err != nil {
		t.Fatal(err)
	}
	ids, _ := ListSSIDs(dev, "d")
	if len(ids) != 0 {
		t.Fatalf("SSIDs after remove: %v", ids)
	}
}

func TestMergeNewestWins(t *testing.T) {
	dev := testDev(t)
	// SSID 1: k1=old, k2=old, k3=only-in-1
	WriteTable(dev, "d", 1, []memtable.Entry{
		{Key: []byte("k1"), Value: []byte("old1")},
		{Key: []byte("k2"), Value: []byte("old2")},
		{Key: []byte("k3"), Value: []byte("only1")},
	})
	// SSID 2: k1 updated, k4 added
	WriteTable(dev, "d", 2, []memtable.Entry{
		{Key: []byte("k1"), Value: []byte("new1")},
		{Key: []byte("k4"), Value: []byte("only2")},
	})
	// SSID 3: k2 deleted
	WriteTable(dev, "d", 3, []memtable.Entry{
		{Key: []byte("k2"), Tombstone: true},
	})
	meta, err := MergeOrdered(dev, "d", []uint64{3, 2, 1}, 4, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.SSID != 4 || meta.Count != 4 {
		t.Fatalf("merge meta = %+v", meta)
	}
	// Merge leaves the inputs in place — deleting them is the caller's job,
	// after the install+delete edit is committed to the manifest.
	ids, _ := ListSSIDs(dev, "d")
	if len(ids) != 4 {
		t.Fatalf("SSIDs after merge = %v, want inputs retained alongside the output", ids)
	}
	for _, id := range []uint64{1, 2, 3} {
		if err := Remove(dev, "d", id); err != nil {
			t.Fatal(err)
		}
	}
	ids, _ = ListSSIDs(dev, "d")
	if len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("SSIDs after removing inputs = %v", ids)
	}
	check := func(key, want string, wantTomb bool) {
		t.Helper()
		val, tomb, found, err := Get(dev, "d", 4, []byte(key), BinarySearch, true)
		if err != nil || !found {
			t.Fatalf("Get(%s) found=%v err=%v", key, found, err)
		}
		if tomb != wantTomb || string(val) != want {
			t.Fatalf("Get(%s) = %q tomb=%v; want %q tomb=%v", key, val, tomb, want, wantTomb)
		}
	}
	check("k1", "new1", false)
	check("k2", "", true) // tombstone carried through
	check("k3", "only1", false)
	check("k4", "only2", false)
}

func TestMergeEquivalentToMap(t *testing.T) {
	dev := testDev(t)
	rng := rand.New(rand.NewSource(9))
	mirror := map[string]memtable.Entry{}
	var ssids []uint64
	for ssid := uint64(1); ssid <= 5; ssid++ {
		m := memtable.New()
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(400))
			e := memtable.Entry{Key: []byte(k), Value: []byte(fmt.Sprintf("v%d-%d", ssid, i)), Tombstone: rng.Intn(10) == 0}
			m.Put(e)
		}
		for _, e := range m.Entries() {
			mirror[string(e.Key)] = e
		}
		if _, err := WriteTable(dev, "d", ssid, m.Entries()); err != nil {
			t.Fatal(err)
		}
		ssids = append([]uint64{ssid}, ssids...) // newest first
	}
	meta, err := MergeOrdered(dev, "d", ssids, 6, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != len(mirror) {
		t.Fatalf("merged count = %d, mirror %d", meta.Count, len(mirror))
	}
	got, err := ReadAll(dev, "d", 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		want := mirror[string(e.Key)]
		if !bytes.Equal(e.Value, want.Value) || e.Tombstone != want.Tombstone {
			t.Fatalf("key %q: got %+v want %+v", e.Key, e, want)
		}
	}
}

func TestMergeSingleInput(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(50, 3)
	WriteTable(dev, "d", 1, entries)
	if _, err := MergeOrdered(dev, "d", []uint64{1}, 2, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	got, _ := ReadAll(dev, "d", 2)
	if len(got) != 50 {
		t.Fatalf("merged single input = %d records", len(got))
	}
}

// Property: writing any sorted key set and reading each key back (both
// search modes) returns the stored value.
func TestQuickWriteGet(t *testing.T) {
	dev := testDev(t)
	var ssid uint64
	f := func(raw map[string]string) bool {
		ssid++
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries := make([]memtable.Entry, len(keys))
		for i, k := range keys {
			entries[i] = memtable.Entry{Key: []byte(k), Value: []byte(raw[k])}
		}
		dir := fmt.Sprintf("q%d", ssid)
		if _, err := WriteTable(dev, dir, 1, entries); err != nil {
			return false
		}
		for _, k := range keys {
			for _, mode := range []SearchMode{BinarySearch, SequentialSearch} {
				val, _, found, err := Get(dev, dir, 1, []byte(k), mode, true)
				if err != nil || !found || string(val) != raw[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGetMissingTable(t *testing.T) {
	dev := testDev(t)
	if _, _, _, err := Get(dev, "nope", 1, []byte("k"), BinarySearch, true); err == nil {
		t.Fatal("Get on missing table succeeded")
	}
}

func BenchmarkBinarySearchGet(b *testing.B) {
	dev, _ := nvm.Open(b.TempDir(), nvm.DRAM)
	entries := sortedEntries(10000, 4)
	WriteTable(dev, "d", 1, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(dev, "d", 1, entries[i%len(entries)].Key, BinarySearch, true)
	}
}

func BenchmarkSequentialSearchGet(b *testing.B) {
	dev, _ := nvm.Open(b.TempDir(), nvm.DRAM)
	entries := sortedEntries(10000, 4)
	WriteTable(dev, "d", 1, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(dev, "d", 1, entries[i%len(entries)].Key, SequentialSearch, true)
	}
}
