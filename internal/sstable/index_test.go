package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// recordOffsets returns where each of entries starts in the SSData file
// WriteTable produces for them, plus the file's length as a final element.
func recordOffsets(entries []memtable.Entry) []int64 {
	offs := make([]int64, 0, len(entries)+1)
	var off int64
	for _, e := range entries {
		offs = append(offs, off)
		off += int64(recHeader + len(e.Key) + len(e.Value) + recTrailer)
	}
	return append(offs, off)
}

// mixedEntries returns n sorted entries whose values run from 16 B to 64 KB,
// mostly small, so one table holds many-record blocks, blocks that end on a
// large record, and oversized records that are blocks of their own.
func mixedEntries(n int, seed int64) []memtable.Entry {
	rng := rand.New(rand.NewSource(seed))
	entries := sortedEntries(n, seed)
	for i := range entries {
		size := 16 + rng.Intn(200)
		switch rng.Intn(20) {
		case 0:
			size = blockSize - 64 + rng.Intn(128) // straddles the oversized threshold
		case 1:
			size = 8<<10 + rng.Intn(56<<10)
		}
		v := make([]byte, size)
		rng.Read(v)
		entries[i].Value = v
	}
	entries[n/3].Tombstone, entries[n/3].Value = true, nil
	return entries
}

func mustLoadIndex(t *testing.T, dev *nvm.Device, dir string, ssid uint64) *ssIndex {
	t.Helper()
	idx, err := loadIndex(dev, dir, ssid)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// blockOf returns the index of the block holding entries[i].
func blockOf(idx *ssIndex, offs []int64, i int) int {
	b := 0
	for b+1 < len(idx.offsets) && idx.offsets[b+1] <= offs[i] {
		b++
	}
	return b
}

// TestIndexBlockCut pins the writer's cut rule: a fence at offset 0, every
// block but the last at least blockSize long, no block more than one
// sub-blockSize record past it, and an oversized record alone in its block.
func TestIndexBlockCut(t *testing.T) {
	dev := testDev(t)
	entries := mixedEntries(3000, 31)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	idx := mustLoadIndex(t, dev, "d", 1)
	offs := recordOffsets(entries)
	if idx.count != len(entries) {
		t.Fatalf("index count = %d, want %d", idx.count, len(entries))
	}
	starts := map[int64]int{}
	for i, off := range offs[:len(entries)] {
		starts[off] = i
	}
	oversized := 0
	for b, off := range idx.offsets {
		first, ok := starts[off]
		if !ok || !bytes.Equal(idx.keys[b], entries[first].Key) {
			t.Fatalf("block %d at %d does not start on a record whose key is its fence", b, off)
		}
		end := offs[len(entries)]
		if b+1 < len(idx.offsets) {
			end = idx.offsets[b+1]
		}
		firstLen := offs[first+1] - offs[first]
		switch {
		case firstLen >= blockSize:
			oversized++
			if end-off != firstLen {
				t.Fatalf("oversized record of %d bytes shares block %d (%d bytes)", firstLen, b, end-off)
			}
		case end-off >= 2*blockSize:
			t.Fatalf("block %d spans %d bytes, want < %d", b, end-off, 2*blockSize)
		}
	}
	if oversized == 0 || len(idx.offsets) < 50 {
		t.Fatalf("table has %d blocks, %d oversized: the mix does not cover the cut rule", len(idx.offsets), oversized)
	}
}

// TestGetReadsOneBlock counts device operations: a table lookup is an
// in-memory locate plus exactly one read of the block it names.
func TestGetReadsOneBlock(t *testing.T) {
	dev := testDev(t)
	small := sortedEntries(5000, 32)
	big := sortedEntries(200, 33)
	for i := range big {
		big[i].Value = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	mixed := mixedEntries(2000, 34)
	for ssid, entries := range map[uint64][]memtable.Entry{1: small, 2: big, 3: mixed} {
		if _, err := WriteTable(dev, "d", ssid, entries); err != nil {
			t.Fatal(err)
		}
	}
	c := NewReaderCache(dev, 8<<20)
	for ssid := uint64(1); ssid <= 3; ssid++ {
		if err := c.Validate("d", ssid); err != nil { // warm
			t.Fatal(err)
		}
	}
	// cost runs one warm get and returns the device reads and bytes it took.
	cost := func(ssid uint64, key []byte, useBloom, wantFound bool) (reads, n uint64) {
		t.Helper()
		before := dev.Stats()
		_, _, found, err := c.Get("d", ssid, key, BinarySearch, useBloom)
		after := dev.Stats()
		if err != nil || found != wantFound {
			t.Fatalf("get %q of table %d: found=%v err=%v", key, ssid, found, err)
		}
		if after.Opens != before.Opens {
			t.Fatalf("warm get opened %d files", after.Opens-before.Opens)
		}
		return after.Reads - before.Reads, after.BytesRead - before.BytesRead
	}

	for i := 0; i < len(small); i += 97 {
		if reads, n := cost(1, small[i].Key, true, true); reads != 1 || n >= 2*blockSize {
			t.Fatalf("small-record get: %d reads of %d bytes, want 1 read of < %d", reads, n, 2*blockSize)
		}
	}
	offs := recordOffsets(big)
	for i := 0; i < len(big); i += 7 {
		if reads, n := cost(2, big[i].Key, true, true); reads != 1 || n != uint64(offs[i+1]-offs[i]) {
			t.Fatalf("4KB-value get: %d reads of %d bytes, want 1 read of the %d-byte record", reads, n, offs[i+1]-offs[i])
		}
	}
	offs = recordOffsets(mixed)
	for i, e := range mixed {
		recLen := uint64(offs[i+1] - offs[i])
		reads, n := cost(3, e.Key, true, true)
		if reads != 1 || (recLen >= blockSize && n != recLen) || (recLen < blockSize && n >= 2*blockSize) {
			t.Fatalf("mixed table, %d-byte record: %d reads of %d bytes", recLen, reads, n)
		}
	}

	filter, err := loadBloom(dev, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 0; rejected < 20; i++ {
		key := []byte(fmt.Sprintf("key-%08x-absent", i))
		if filter.MayContain(key) {
			continue
		}
		rejected++
		if reads, _ := cost(1, key, true, false); reads != 0 {
			t.Fatalf("bloom-rejected get cost %d reads, want 0", reads)
		}
	}
	// Bloom off, so only the fence keys can answer.
	if reads, _ := cost(1, []byte("a-below-the-first-fence"), false, false); reads != 0 {
		t.Fatalf("get below the first fence cost %d reads, want 0", reads)
	}
}

// TestGetEquivalence: the cached get, the uncached get in both search modes
// and a ReadAll oracle agree on every present key and on absent keys at every
// position the block structure distinguishes.
func TestGetEquivalence(t *testing.T) {
	for name, entries := range map[string][]memtable.Entry{
		"mixed":  mixedEntries(500, 35),
		"small":  sortedEntries(1200, 36),
		"single": sortedEntries(1, 37),
		"empty":  nil,
	} {
		t.Run(name, func(t *testing.T) {
			dev := testDev(t)
			meta, err := WriteTable(dev, "d", 1, entries)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := ReadAll(dev, "d", 1)
			if err != nil || len(oracle) != len(entries) {
				t.Fatalf("ReadAll: %d entries, %v", len(oracle), err)
			}
			if got, err := ReadMeta(dev, "d", 1); err != nil || got.Count != meta.Count ||
				!bytes.Equal(got.MinKey, meta.MinKey) || !bytes.Equal(got.MaxKey, meta.MaxKey) ||
				got.DataCRC != meta.DataCRC || got.IndexCRC != meta.IndexCRC {
				t.Fatalf("ReadMeta = %+v, %v; the writer reported %+v", got, err, meta)
			}
			idx := mustLoadIndex(t, dev, "d", 1)
			offs := recordOffsets(entries)
			after := func(k []byte) []byte { return append(bytes.Clone(k), 0) }

			absent := [][]byte{[]byte("a"), []byte("zzz")}
			for i := range oracle {
				switch last := i+1 == len(oracle); {
				case last:
					absent = append(absent, after(oracle[i].Key)) // after the last record
				case blockOf(idx, offs, i) != blockOf(idx, offs, i+1):
					absent = append(absent, after(oracle[i].Key)) // exactly between two blocks
				case i%17 == 0:
					absent = append(absent, after(oracle[i].Key)) // between two records of one block
				}
			}

			c := NewReaderCache(dev, 8<<20)
			gets := map[string]func(key []byte) ([]byte, bool, bool, error){
				"cached":       func(k []byte) ([]byte, bool, bool, error) { return c.Get("d", 1, k, BinarySearch, false) },
				"cached+bloom": func(k []byte) ([]byte, bool, bool, error) { return c.Get("d", 1, k, BinarySearch, true) },
				"binary":       func(k []byte) ([]byte, bool, bool, error) { return Get(dev, "d", 1, k, BinarySearch, false) },
				"sequential":   func(k []byte) ([]byte, bool, bool, error) { return Get(dev, "d", 1, k, SequentialSearch, false) },
			}
			for how, get := range gets {
				for _, e := range oracle {
					val, tomb, found, err := get(e.Key)
					if err != nil || !found || tomb != e.Tombstone || !bytes.Equal(val, e.Value) {
						t.Fatalf("%s get %q: found=%v tomb=%v err=%v, %d value bytes want %d", how, e.Key, found, tomb, err, len(val), len(e.Value))
					}
				}
				for _, k := range absent {
					if _, _, found, err := get(k); err != nil || found {
						t.Fatalf("%s get of absent %q: found=%v err=%v", how, k, found, err)
					}
				}
			}
		})
	}
}

// TestGetValueDetached: a value handed out of the package owns exactly its
// own bytes — it does not keep a 4 KB block (or a scanner window) alive from
// inside a cache that accounts len(value), and writing to it reaches neither
// a later get nor the device.
func TestGetValueDetached(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(500, 38)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	onDevice, err := dev.ReadFile(DataName("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	c := NewReaderCache(dev, 1<<20)
	for how, get := range map[string]func(key []byte) ([]byte, bool, bool, error){
		"cached":     func(k []byte) ([]byte, bool, bool, error) { return c.Get("d", 1, k, BinarySearch, true) },
		"binary":     func(k []byte) ([]byte, bool, bool, error) { return Get(dev, "d", 1, k, BinarySearch, true) },
		"sequential": func(k []byte) ([]byte, bool, bool, error) { return Get(dev, "d", 1, k, SequentialSearch, true) },
	} {
		e := entries[250]
		val, _, found, err := get(e.Key)
		if err != nil || !found || !bytes.Equal(val, e.Value) {
			t.Fatalf("%s: found=%v err=%v val=%q", how, found, err, val)
		}
		if cap(val) != len(val) {
			t.Errorf("%s: value of %d bytes has capacity %d", how, len(val), cap(val))
		}
		for i := range val {
			val[i] ^= 0xff
		}
		if again, _, _, err := get(e.Key); err != nil || !bytes.Equal(again, e.Value) {
			t.Errorf("%s: a second get after mutating the first returned %q, %v", how, again, err)
		}
	}
	if now, err := dev.ReadFile(DataName("d", 1)); err != nil || !bytes.Equal(now, onDevice) {
		t.Errorf("mutating returned values changed the data file (err=%v)", err)
	}
}

// TestBlockWalkVerifiesEveryRecord: the walk to a key passes over the
// records before it in its block, and a damaged one must stop the search as
// ErrCorrupt — a flipped key could otherwise end the walk early as "absent".
func TestBlockWalkVerifiesEveryRecord(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(2000, 39)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	idx := mustLoadIndex(t, dev, "d", 1)
	offs := recordOffsets(entries)
	target := 1000
	for blockOf(idx, offs, target-2) != blockOf(idx, offs, target) {
		target++
	}
	// A bit of the key of the record two before the target, same block.
	flipBit(t, dev, DataName("d", 1), int(offs[target-2]+recHeader+5)*8)
	c := NewReaderCache(dev, 1<<20)
	for _, key := range [][]byte{entries[target].Key, append(bytes.Clone(entries[target-1].Key), 0)} {
		if _, _, found, err := c.Get("d", 1, key, BinarySearch, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cached get %q past a damaged record: found=%v err=%v, want ErrCorrupt", key, found, err)
		}
		if _, _, found, err := Get(dev, "d", 1, key, BinarySearch, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("uncached get %q past a damaged record: found=%v err=%v, want ErrCorrupt", key, found, err)
		}
	}
	// A record before the damage in the same block still reads.
	first := target
	for blockOf(idx, offs, first-1) == blockOf(idx, offs, target) {
		first--
	}
	if first < target-2 {
		if val, _, found, err := c.Get("d", 1, entries[first].Key, BinarySearch, false); err != nil || !found || !bytes.Equal(val, entries[first].Value) {
			t.Errorf("get of the block's first record: found=%v err=%v", found, err)
		}
	}
}

// TestIndexDamageFailsLoad: the SSIndex checksum covers the counts as well as
// the entries. A flipped fence key, a count with its top bit set (which once
// wrapped a size computation into a makeslice panic) and a count with a bit
// cleared (which once returned a silently shortened index, so gets of the
// dropped tail answered "not found") all fail the load as ErrCorrupt, and a
// table that failed to load is not cached.
func TestIndexDamageFailsLoad(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(5000, 40)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	clean, err := dev.ReadFile(IndexName("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := parseIndex(clean)
	if err != nil || idx.count != 5000 || len(idx.keys) < 8 {
		t.Fatalf("clean index: %v, %+v", err, idx)
	}
	lowestSetBit := func(field []byte) int {
		for bit := 0; bit < len(field)*8; bit++ {
			if field[bit/8]&(1<<(bit%8)) != 0 {
				return bit
			}
		}
		t.Fatal("field is zero")
		return 0
	}
	for name, bit := range map[string]int{
		"count top bit":      8*8 + 63,
		"count bit cleared":  8*8 + lowestSetBit(clean[8:16]),
		"blocks top bit":     16*8 + 31,
		"blocks bit cleared": 16*8 + lowestSetBit(clean[16:20]),
		"fence key":          (indexHeader + fenceHeader + 2) * 8,
		"fence offset":       (indexHeader + fenceHeader + len(idx.keys[0]) + 1) * 8,
	} {
		t.Run(name, func(t *testing.T) {
			damaged := bytes.Clone(clean)
			damaged[bit/8] ^= 1 << (bit % 8)
			if _, err := parseIndex(damaged); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseIndex: err = %v, want ErrCorrupt", err)
			}
			if err := dev.WriteFile(IndexName("d", 1), damaged); err != nil {
				t.Fatal(err)
			}
			c := NewReaderCache(dev, 1<<20)
			if _, _, found, err := c.Get("d", 1, entries[4990].Key, BinarySearch, false); !errors.Is(err, ErrCorrupt) {
				t.Errorf("cached get: found=%v err=%v, want ErrCorrupt", found, err)
			}
			if st := c.Stats(); st.Entries != 0 {
				t.Errorf("failed load left %d cache entries", st.Entries)
			}
			if n, err := EntryCount(dev, "d", 1); !errors.Is(err, ErrCorrupt) {
				t.Errorf("EntryCount = %d, %v, want ErrCorrupt", n, err)
			}
		})
	}
	// A file in the format this one replaced is refused by its magic.
	stale := bytes.Clone(clean)
	stale[0] = 0x49 // "PKVI"
	if _, err := parseIndex(stale); !errors.Is(err, ErrCorrupt) {
		t.Errorf("stale-format index: err = %v, want ErrCorrupt", err)
	}
}
