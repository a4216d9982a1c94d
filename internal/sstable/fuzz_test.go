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
