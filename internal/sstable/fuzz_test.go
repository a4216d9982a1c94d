package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// FuzzIndexDecode drives the SSIndex decoder with arbitrary bytes. A reader
// loads indexes it did not write (storage-group peers, restored snapshots),
// so parseIndex must answer any input with a valid index or a typed
// ErrCorrupt — never a panic, never an allocation sized by an unchecked
// count, and never an index whose fences could misroute locate. The
// committed corpus under testdata/fuzz/FuzzIndexDecode seeds the shapes that
// matter: single-block, multi-block, oversized-record and empty tables as
// the writer emits them, and hand-damaged variants of each (flipped counts,
// a flipped fence key, a torn tail, trailing bytes, and entries that are out
// of order under a valid checksum).
//
// Each input is also tried with its magic and checksum repaired, so the
// fuzzer reaches the structural checks behind the CRC.
func FuzzIndexDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(sealIndex(0, 0, nil))
	f.Add(sealIndex(2, 1, appendFence(nil, 0, []byte("a"))))
	f.Add(sealIndex(300, 2, appendFence(appendFence(nil, 0, []byte("a")), 4100, []byte("b"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, resealed(data)} {
			idx, err := parseIndex(raw)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v is not typed ErrCorrupt", err)
				}
				continue
			}
			if len(idx.keys) != len(idx.offsets) || idx.count < len(idx.keys) {
				t.Fatalf("index of %d records has %d keys, %d offsets", idx.count, len(idx.keys), len(idx.offsets))
			}
			// Every index parseIndex vouches for is one the writer could have
			// sealed: it re-encodes byte-identically.
			var fences []byte
			for i, key := range idx.keys {
				if i > 0 && (bytes.Compare(key, idx.keys[i-1]) <= 0 || idx.offsets[i] <= idx.offsets[i-1]) {
					t.Fatalf("block %d is not strictly after block %d", i, i-1)
				}
				fences = appendFence(fences, idx.offsets[i], key)
			}
			if re := sealIndex(idx.count, len(idx.keys), fences); !bytes.Equal(re, raw) {
				t.Fatalf("parsed index re-encodes to %d bytes that differ from the %d parsed", len(re), len(raw))
			}
			// A fence key locates its own block.
			for i, key := range idx.keys {
				if off, end, ok := idx.locate(key, math.MaxInt64); !ok || off != idx.offsets[i] || end <= off {
					t.Fatalf("locate(fence %d) = [%d,%d) %v, want a block at %d", i, off, end, ok, idx.offsets[i])
				}
			}
		}
	})
}

// resealed returns a copy of raw with the index magic and a checksum that
// matches the rest of it, so damage elsewhere is what parseIndex judges.
func resealed(raw []byte) []byte {
	if len(raw) < 8 {
		return raw
	}
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(out, indexMagic)
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(out[8:], crcTable))
	return out
}

// FuzzSearchBlock drives the walk a get runs over one SSData block with
// arbitrary block bytes and an arbitrary key. The block comes off the device
// and may be damaged in any way, so the walk must answer with a value, a
// not-found, or a typed ErrCorrupt — never a panic, never a read past the
// block — and a value it returns must be a copy: the block is a pooled read
// buffer the next get overwrites. The committed corpus under
// testdata/fuzz/FuzzSearchBlock seeds well-formed blocks probed for a
// present key, a tombstone, an absent key between records, before the first
// and past the last, and damaged blocks: a flipped checksum, a torn record,
// an implausible key length, a record overrunning the block, and trailing
// bytes after the last record.
//
// Each block is also tried with every record's checksum repaired, so the
// fuzzer reaches the key comparisons behind the CRC.
func FuzzSearchBlock(f *testing.F) {
	block := appendRecord(appendRecord(nil, memtable.Entry{Key: []byte("a"), Value: []byte("1")}),
		memtable.Entry{Key: []byte("c"), Value: []byte("3"), Tombstone: true})
	f.Add([]byte{}, []byte("a"))
	f.Add(block, []byte("a"))
	f.Add(block, []byte("b"))

	f.Fuzz(func(t *testing.T, block, key []byte) {
		for _, b := range [][]byte{block, resealedRecords(block)} {
			buf := bytes.Clone(b)
			val, tomb, found, err := searchBlock(buf, key)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v is not typed ErrCorrupt", err)
				}
				continue
			}
			if !found {
				if val != nil || tomb {
					t.Fatalf("not-found answer carries value %q, tombstone %v", val, tomb)
				}
				continue
			}
			want := bytes.Clone(val)
			for i := range buf {
				buf[i] ^= 0xff
			}
			if !bytes.Equal(val, want) {
				t.Fatalf("returned value changed with the block buffer: it aliases the block")
			}
		}
	})
}

// holdsRecord reports whether data holds a record of e that its CRC
// vouches for: the entry's lengths, tombstone bit, key and value, and a
// matching checksum.
func holdsRecord(data []byte, e memtable.Entry) bool {
	kv := append(bytes.Clone(e.Key), e.Value...)
	for from := 0; ; {
		q := bytes.Index(data[from:], kv)
		if q < 0 {
			return false
		}
		q += from
		from = q + 1
		p, end := q-recHeader, q+len(kv)
		if p < 0 || end+recTrailer > len(data) {
			continue
		}
		if binary.LittleEndian.Uint32(data[p:]) == uint32(len(e.Key)) &&
			binary.LittleEndian.Uint32(data[p+4:]) == uint32(len(e.Value)) &&
			data[p+8]&1 != 0 == e.Tombstone &&
			crc32.Checksum(data[p:end], crcTable) == binary.LittleEndian.Uint32(data[end:]) {
			return true
		}
	}
}

// resealedRecords returns a copy of block with the checksum of every record
// whose header frames it inside the block recomputed, up to the first that
// does not.
func resealedRecords(block []byte) []byte {
	out := bytes.Clone(block)
	for rest := out; len(rest) >= recHeader; {
		total := uint64(recHeader) + uint64(binary.LittleEndian.Uint32(rest)) +
			uint64(binary.LittleEndian.Uint32(rest[4:])) + recTrailer
		if total > uint64(len(rest)) {
			break
		}
		body := rest[:total-recTrailer]
		binary.LittleEndian.PutUint32(rest[total-recTrailer:], crc32.Checksum(body, crcTable))
		rest = rest[total:]
	}
	return out
}

// scanFuzzEntries is the table FuzzScanTable damages: 120 records of about
// 120 bytes, keys k0000 to k1190 in steps of ten, every 17th a tombstone —
// four blocks of SSData.
func scanFuzzEntries() []memtable.Entry {
	entries := make([]memtable.Entry, 120)
	for i := range entries {
		key := fmt.Sprintf("k%04d", i*10)
		entries[i] = memtable.Entry{Key: []byte(key), Value: []byte(key + strings.Repeat("v", 96))}
		if i%17 == 5 {
			entries[i].Value, entries[i].Tombstone = nil, true
		}
	}
	return entries
}

// FuzzScanTable drives a bounded scan over damaged SSData. The SSIndex is
// the one the writer built for scanFuzzEntries; the fuzzer supplies the data
// file beside it — the real one, mutated — and the range [lo, hi). A scan
// reads data it did not write, so it must yield strictly ascending records,
// each CRC-valid where it lies in the file and inside [lo, hi) once the
// consumer's cut at hi is applied, or stop with a typed ErrCorrupt: never a
// panic, and never a read past the end of the block hi falls in. The
// committed corpus under testdata/fuzz/FuzzScanTable seeds a clean range, a
// torn record, a flipped checksum, a record whose header runs it past that
// block, a range before the table, and empty spans.
//
// Each data file is also tried with every record's checksum repaired, so the
// fuzzer reaches the key order and the bounds behind the CRC.
func FuzzScanTable(f *testing.F) {
	dev, err := nvm.Open(f.TempDir(), nvm.DRAM)
	if err != nil {
		f.Fatal(err)
	}
	entries := scanFuzzEntries()
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		f.Fatal(err)
	}
	clean, err := dev.ReadFile(DataName("d", 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean, []byte("k0300"), []byte("k0705"))
	f.Add(clean, []byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, data, lo, hi []byte) {
		for _, d := range [][]byte{data, resealedRecords(data)} {
			if err := dev.WriteFile(DataName("d", 1), d); err != nil {
				t.Fatal(err)
			}
			tbl, err := OpenTable(dev, "d", 1)
			if err != nil {
				t.Fatal(err)
			}
			sc := tbl.Scanner()
			idx, size := sc.idx, int64(len(d))
			var start int64
			limit := size
			if len(lo) > 0 {
				start, _, _ = idx.locate(lo, size)
			}
			if len(hi) > 0 {
				_, limit, _ = idx.locate(hi, size)
			}
			before := dev.Stats()
			var got [][]byte
			err = sc.SeekRange(lo, hi)
			for err == nil {
				e, ok, nerr := sc.Next()
				if err = nerr; !ok || (len(hi) > 0 && bytes.Compare(e.Key, hi) >= 0) {
					break
				}
				if bytes.Compare(e.Key, lo) < 0 || len(got) > 0 && bytes.Compare(e.Key, got[len(got)-1]) <= 0 {
					t.Fatalf("[%q, %q): %q out of order after %q", lo, hi, e.Key, got)
				}
				if !holdsRecord(d, e) {
					t.Fatalf("[%q, %q): %q is not a CRC-valid record of the file", lo, hi, e.Key)
				}
				got = append(got, bytes.Clone(e.Key))
			}
			sc.Close()
			tbl.Close()
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("[%q, %q): error %v is not typed ErrCorrupt", lo, hi, err)
			}
			if read := int64(dev.Stats().BytesRead - before.BytesRead); read > max(0, limit-start) {
				t.Fatalf("[%q, %q): read %d bytes of the %d in [%d, %d)", lo, hi, read, max(0, limit-start), start, limit)
			}
			if !bytes.Equal(d, clean) {
				continue
			}
			var want [][]byte
			for _, e := range entries {
				if bytes.Compare(e.Key, lo) >= 0 && (len(hi) == 0 || bytes.Compare(e.Key, hi) < 0) {
					want = append(want, e.Key)
				}
			}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("clean table [%q, %q): %q, %v; want %q", lo, hi, got, err, want)
			}
		}
	})
}
