package memtable

import (
	"encoding/binary"
	"fmt"
)

// Wire format for a batch of entries (migration request messages and the
// checkpoint redistribution path):
//
//	uint32 count
//	repeated: uint32 keylen, uint32 vallen, uint8 flags, key, value
//
// flags bit 0 = tombstone. Owner is not serialised: the receiver is the
// owner.

// EncodeEntries serialises a batch of entries.
func EncodeEntries(entries []Entry) []byte {
	return AppendEntries(make([]byte, 0, BatchSize(entries)), entries)
}

// BatchSize is the encoded length of a batch of entries.
func BatchSize(entries []Entry) int {
	size := 4
	for i := range entries {
		size += 9 + len(entries[i].Key) + len(entries[i].Value)
	}
	return size
}

// AppendEntries appends a batch of entries to dst. A caller that frames the
// batch behind a header of its own sizes dst with BatchSize, so header and
// batch share one allocation.
func AppendEntries(dst []byte, entries []Entry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = AppendEntry(dst, e)
	}
	return dst
}

// AppendEntry appends one entry in the batch format to dst. A batch is a
// uint32 count followed by that many appended entries; a scan page is
// encoded straight into its reply frame this way.
func AppendEntry(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Value)))
	var flags byte
	if e.Tombstone {
		flags = 1
	}
	dst = append(dst, flags)
	dst = append(dst, e.Key...)
	return append(dst, e.Value...)
}

// DecodeEntries parses a batch serialised by EncodeEntries. It accepts
// exactly what EncodeEntries produces: a count no entry header can back, an
// unknown flag bit, or bytes after the last entry are errors — the batch
// arrives from a peer, and its count must not size an allocation unchecked.
func DecodeEntries(data []byte) ([]Entry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("memtable: short batch (%d bytes)", len(data))
	}
	count := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(count)*9 > uint64(len(data)) {
		return nil, fmt.Errorf("memtable: batch of %d entries in %d bytes", count, len(data))
	}
	out := make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(data) < 9 {
			return nil, fmt.Errorf("memtable: truncated entry header at %d", i)
		}
		klen := binary.LittleEndian.Uint32(data)
		vlen := binary.LittleEndian.Uint32(data[4:])
		flags := data[8]
		if flags > 1 {
			return nil, fmt.Errorf("memtable: unknown entry flags %#x at %d", flags, i)
		}
		data = data[9:]
		if uint64(len(data)) < uint64(klen)+uint64(vlen) {
			return nil, fmt.Errorf("memtable: truncated entry body at %d", i)
		}
		out = append(out, Entry{
			Key:       data[:klen:klen],
			Value:     data[klen : klen+vlen : klen+vlen],
			Tombstone: flags&1 != 0,
		})
		data = data[klen+vlen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("memtable: %d bytes after the last entry", len(data))
	}
	return out, nil
}
