// Package wal is PapyrusKV's per-rank, per-database write-ahead log. It
// closes the durability gap between an acknowledged put and the flush that
// makes it an SSTable: every local put (and every migrated or synchronous
// remote entry applied at its owner) is framed into the active WAL segment
// on the NVM device before the MemTable insert is acknowledged, so a rank
// kill before the flush loses nothing that was acked.
//
// The log is two independent streams per database — "local" for entries
// this rank owns, "remote" for entries staged toward other owners — each a
// chain of append-only segment files under <rank-dir>/wal/. A segment
// rotates exactly when its MemTable rolls, and is deleted only after that
// table's SSTable flush (or migration) commits, which bounds on-device WAL
// bytes by the MemTable budget. A database-wide sequence number written
// into every record gives replay a total order across both streams.
//
// In memory, appends frame records into a chain of fixed-size blocks, and
// a rotation is a cut in that chain, after its last record: neither
// touches the device, so both are safe to call under the caller's own
// locks. The commit that next
// writes the chain — Commit, GroupCommit, Remove's write-through, Close —
// writes the blocks in order and, at each cut, closes the sealed segment
// and opens the next.
//
// Records are CRC32C-framed. Replay distinguishes the two ways a segment
// can be damaged: an incomplete frame at the end of the file is a torn
// tail — the expected remains of a crash mid-append — and is silently
// truncated to the last whole frame; a complete frame that fails its
// checksum or carries inconsistent lengths is mid-log corruption and
// surfaces as ErrCorrupt.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout, all little-endian:
//
//	crc32c  uint32  // over the payload
//	length  uint32  // payload bytes
//	payload:
//	  seq    uint64 // database-wide append order, across both streams
//	  epoch  uint32 // reopen generation of the segment that wrote it
//	  flags  uint8  // bit 0: tombstone
//	  klen   uint32
//	  vlen   uint32
//	  key    [klen]byte
//	  value  [vlen]byte
const (
	frameHeader  = 8
	payloadFixed = 21

	flagTombstone = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports mid-log corruption: a complete frame whose checksum or
// internal lengths are wrong. A torn tail is not corruption — replay
// truncates it silently — so ErrCorrupt always means bytes that were once
// acknowledged can no longer be trusted, and the owning rank's failure
// domain must be failed rather than served from a damaged log.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one logged operation.
type Record struct {
	// Seq is the database-wide append sequence number; replay merges the
	// local and remote streams by it.
	Seq uint64
	// Epoch is the reopen generation of the segment the record was
	// written into; each Open starts a fresh epoch above every surviving
	// one.
	Epoch uint32
	// Tombstone marks a delete; Value is empty.
	Tombstone bool
	Key       []byte
	Value     []byte
}

// EncodedSize returns the framed size of r in bytes.
func EncodedSize(r Record) int {
	return frameHeader + payloadFixed + len(r.Key) + len(r.Value)
}

// AppendRecord appends r's frame to dst and returns the extended slice.
func AppendRecord(dst []byte, r Record) []byte {
	plen := payloadFixed + len(r.Key) + len(r.Value)
	off := len(dst)
	dst = append(dst, make([]byte, frameHeader+plen)...)
	p := dst[off+frameHeader:]
	binary.LittleEndian.PutUint64(p[0:], r.Seq)
	binary.LittleEndian.PutUint32(p[8:], r.Epoch)
	var flags byte
	if r.Tombstone {
		flags |= flagTombstone
	}
	p[12] = flags
	binary.LittleEndian.PutUint32(p[13:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(p[17:], uint32(len(r.Value)))
	copy(p[payloadFixed:], r.Key)
	copy(p[payloadFixed+len(r.Key):], r.Value)
	binary.LittleEndian.PutUint32(dst[off:], crc32.Checksum(p, crcTable))
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(plen))
	return dst
}

// DecodeAll parses data as a sequence of frames. It returns the decoded
// records, the length of the clean prefix, and an error.
//
//   - clean == len(data), err == nil: the segment is whole.
//   - clean < len(data), err == nil: the tail is torn — an incomplete
//     header or payload at end of file. The records before it are good;
//     the caller truncates at clean.
//   - err wraps ErrCorrupt: a complete frame at offset clean failed its
//     checksum or its lengths disagree. The records before it are returned
//     so the caller can report what was salvageable, but the log cannot be
//     trusted past that point.
//
// Decoded keys and values are copies, independent of data.
func DecodeAll(data []byte) (recs []Record, clean int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, off, nil // torn header
		}
		crc := binary.LittleEndian.Uint32(data[off:])
		plen := binary.LittleEndian.Uint32(data[off+4:])
		if uint64(plen) > uint64(len(data)-off-frameHeader) {
			return recs, off, nil // torn payload
		}
		p := data[off+frameHeader : off+frameHeader+int(plen)]
		if crc32.Checksum(p, crcTable) != crc {
			return recs, off, fmt.Errorf("%w: bad checksum at offset %d", ErrCorrupt, off)
		}
		if plen < payloadFixed {
			return recs, off, fmt.Errorf("%w: payload of %d bytes at offset %d", ErrCorrupt, plen, off)
		}
		if p[12]&^flagTombstone != 0 {
			return recs, off, fmt.Errorf("%w: unknown flags %#x at offset %d", ErrCorrupt, p[12], off)
		}
		klen := binary.LittleEndian.Uint32(p[13:])
		vlen := binary.LittleEndian.Uint32(p[17:])
		if uint64(klen)+uint64(vlen)+payloadFixed != uint64(plen) {
			return recs, off, fmt.Errorf("%w: inconsistent lengths at offset %d", ErrCorrupt, off)
		}
		r := Record{
			Seq:       binary.LittleEndian.Uint64(p[0:]),
			Epoch:     binary.LittleEndian.Uint32(p[8:]),
			Tombstone: p[12]&flagTombstone != 0,
			Key:       append([]byte(nil), p[payloadFixed:payloadFixed+klen]...),
			Value:     append([]byte(nil), p[payloadFixed+klen:payloadFixed+klen+vlen]...),
		}
		recs = append(recs, r)
		off += frameHeader + int(plen)
	}
	return recs, off, nil
}
