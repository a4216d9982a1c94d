package sstable

import (
	"errors"
	"fmt"
	"testing"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// Corrupt-file behaviour: PapyrusKV reads SSTables it may not have written
// itself (storage-group peers, restored snapshots), so malformed files must
// fail with errors, never panic or return wrong data.

func corruptDev(t *testing.T) *nvm.Device {
	t.Helper()
	d, err := nvm.Open(t.TempDir(), nvm.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGetCorruptIndex(t *testing.T) {
	dev := corruptDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(10, 1)); err != nil {
		t.Fatal(err)
	}
	dev.WriteFile(IndexName("d", 1), []byte("garbage-index"))
	if _, _, _, err := Get(dev, "d", 1, []byte("k"), BinarySearch, false); err == nil {
		t.Fatal("corrupt index accepted")
	}
}

func TestGetCorruptBloom(t *testing.T) {
	dev := corruptDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(10, 1)); err != nil {
		t.Fatal(err)
	}
	dev.WriteFile(BloomName("d", 1), []byte("xx"))
	if _, _, _, err := Get(dev, "d", 1, []byte("k"), BinarySearch, true); err == nil {
		t.Fatal("corrupt bloom accepted")
	}
	// With bloom checks off, the same table still reads fine.
	entries := sortedEntries(10, 1)
	if _, _, found, err := Get(dev, "d", 1, entries[3].Key, BinarySearch, false); err != nil || !found {
		t.Fatalf("bloom-off get = %v, %v", found, err)
	}
}

func TestGetTruncatedData(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(20, 2)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	raw, err := dev.ReadFile(DataName("d", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record (a clean record-boundary cut would just look
	// like a shorter table).
	dev.WriteFile(DataName("d", 1), raw[:len(raw)/2+3])
	// Sequential scan must detect the truncation.
	hadErr := false
	for _, e := range entries {
		if _, _, _, err := Get(dev, "d", 1, e.Key, SequentialSearch, false); err != nil {
			hadErr = true
			break
		}
	}
	if !hadErr {
		t.Fatal("truncated data file read cleanly for every key")
	}
}

func TestScannerTruncatedHeader(t *testing.T) {
	dev := corruptDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(5, 3)); err != nil {
		t.Fatal(err)
	}
	raw, _ := dev.ReadFile(DataName("d", 1))
	dev.WriteFile(DataName("d", 1), raw[:3]) // shorter than a record header
	sc, err := NewScanner(dev, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("truncated header scanned cleanly")
	}
}

func TestParseIndexErrors(t *testing.T) {
	if _, err := parseIndex(nil); err == nil {
		t.Fatal("nil index parsed")
	}
	if _, err := parseIndex(make([]byte, 5)); err == nil {
		t.Fatal("short index parsed")
	}
	bad := make([]byte, indexHeader)
	if _, err := parseIndex(bad); err == nil {
		t.Fatal("zero-magic index parsed")
	}
	// Valid magic but truncated entry table.
	if _, err := parseIndex(sealIndex(5, 5, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated entry table: err = %v, want ErrCorrupt", err)
	}
}

// flipBit corrupts one bit of file name on dev.
func flipBit(t *testing.T, dev *nvm.Device, name string, bit int) {
	t.Helper()
	raw, err := dev.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[bit/8] ^= 1 << (bit % 8)
	if err := dev.WriteFile(name, raw); err != nil {
		t.Fatal(err)
	}
}

// Silent single-bit corruption — the storage-group scenario: a peer reads an
// SSTable it did not write and the media lies. Every file of the table must
// fail with ErrCorrupt, never return wrong data.
func TestBitFlipDataDetected(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(16, 5)
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside a value region (well past the first header).
	flipBit(t, dev, DataName("d", 1), 200)
	var sawCorrupt bool
	for _, mode := range []SearchMode{BinarySearch, SequentialSearch} {
		for _, e := range entries {
			_, _, _, err := Get(dev, "d", 1, e.Key, mode, false)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("mode %v: err = %v, want ErrCorrupt", mode, err)
				}
				sawCorrupt = true
			}
		}
	}
	if !sawCorrupt {
		t.Fatal("bit flip in data file went undetected by both search modes")
	}
}

func TestBitFlipIndexDetected(t *testing.T) {
	dev := corruptDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(16, 6)); err != nil {
		t.Fatal(err)
	}
	flipBit(t, dev, IndexName("d", 1), (indexHeader+3)*8)
	_, _, _, err := Get(dev, "d", 1, sortedEntries(16, 6)[0].Key, BinarySearch, false)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBitFlipBloomDetected(t *testing.T) {
	dev := corruptDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(16, 7)); err != nil {
		t.Fatal(err)
	}
	flipBit(t, dev, BloomName("d", 1), 40)
	_, _, _, err := Get(dev, "d", 1, sortedEntries(16, 7)[0].Key, BinarySearch, true)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// drainMerge collects every entry OpenMerge yields over inputs.
func drainMerge(t *testing.T, dev *nvm.Device, inputs []uint64) ([]string, error) {
	t.Helper()
	m, err := OpenMerge(dev, "d", inputs, nil, nil)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var got []string
	for {
		e, ok, err := m.Next()
		if err != nil || !ok {
			return got, err
		}
		got = append(got, fmt.Sprintf("%s=%s/%v", e.Key, e.Value, e.Tombstone))
	}
}

func TestMergeScanNewestWins(t *testing.T) {
	dev := corruptDev(t)
	WriteTable(dev, "d", 1, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("old")},
		{Key: []byte("b"), Value: []byte("keep")},
	})
	WriteTable(dev, "d", 2, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("new")},
		{Key: []byte("c"), Tombstone: true},
	})
	got, err := drainMerge(t, dev, []uint64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a=new/false", "b=keep/false", "c=/true"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("OpenMerge yielded %v, want %v", got, want)
	}
	// Inputs must survive (a merge never deletes).
	ids, _ := ListSSIDs(dev, "d")
	if len(ids) != 2 {
		t.Fatalf("OpenMerge deleted inputs: %v", ids)
	}
}

// TestMergeScanCallbackError: an input that fails mid-stream aborts the
// merge — the error surfaces, and nothing after it is yielded.
func TestMergeScanCallbackError(t *testing.T) {
	dev := corruptDev(t)
	entries := sortedEntries(20, 4)
	WriteTable(dev, "d", 1, entries)
	raw, _ := dev.ReadFile(DataName("d", 1))
	dev.WriteFile(DataName("d", 1), raw[:len(raw)/2+3]) // cut mid-record
	m, err := OpenMerge(dev, "d", []uint64{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	yielded := 0
	for {
		_, ok, err := m.Next()
		if err != nil {
			break
		}
		if !ok {
			t.Fatal("truncated input merged cleanly")
		}
		yielded++
	}
	if yielded == 0 || yielded >= len(entries) {
		t.Fatalf("yielded %d of %d records before the cut", yielded, len(entries))
	}
	if _, ok, err := m.Next(); ok || err == nil {
		t.Fatalf("merge resumed after its error: ok=%v err=%v", ok, err)
	}
}

func TestMergeScanMissingInput(t *testing.T) {
	dev := corruptDev(t)
	if _, err := drainMerge(t, dev, []uint64{42}); err == nil {
		t.Fatal("missing input scanned")
	}
}

func TestMergeScanEmptyInputs(t *testing.T) {
	dev := corruptDev(t)
	got, err := drainMerge(t, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("no inputs yielded %v", got)
	}
}
