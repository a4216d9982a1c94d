package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
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
	block := appendRecord(appendRecord(nil, "a", "1", false), "c", "3", true)
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

// appendRecord appends one SSData record to dst, sealed with its checksum.
func appendRecord(dst []byte, key, value string, tombstone bool) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	var flags byte
	if tombstone {
		flags = 1
	}
	dst = append(dst, flags)
	dst = append(dst, key...)
	dst = append(dst, value...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
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
