// Package sstable implements PapyrusKV's Sorted String Tables: the
// immutable, key-sorted on-NVM representation an immutable local MemTable
// is flushed into, and the unit of compaction, checkpointing, and
// storage-group sharing.
//
// An SSTable is three files (§2.4):
//
//	sst-<ssid>.data   SSData — the key-value records, sorted by key
//	sst-<ssid>.idx    SSIndex — offsets and lengths of the keys in SSData
//	sst-<ssid>.bloom  bloom filter over the keys
//
// SSIDs are per-database, per-rank, unique increasing integers starting at
// one. A get opens the bloom filter first to decide whether the SSTable can
// be skipped; on a possible hit it loads the SSIndex into memory and
// searches SSData — either by binary search (O(log n) random reads,
// profitable on NVM's fast random access) or by sequential scan (the
// baseline the paper's Figure 8 "B" configurations toggle).
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"

	"papyruskv/internal/bloom"
	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

const (
	indexMagic  = 0x504b5649 // "PKVI"
	recHeader   = 9          // klen u32, vlen u32, flags u8
	recTrailer  = 4          // CRC32C over header+key+value
	indexEntry  = 16         // offset u64, keylen u32, reclen u32
	indexHeader = 16         // magic u32, count u64, crc u32 over entries
	maxKVLen    = 1 << 30    // sanity bound on klen/vlen from disk
)

// ErrCorrupt reports on-NVM data that fails checksum or structural
// validation. Storage-group peers (§2.7) and restored snapshots read files
// they did not write, so every read path verifies CRC32C checksums and
// surfaces damage as a typed error — never as wrong data.
var ErrCorrupt = errors.New("sstable: corrupt data")

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DataName, IndexName, and BloomName build the device-relative file names of
// SSTable ssid under directory dir.
func DataName(dir string, ssid uint64) string  { return fmt.Sprintf("%s/sst-%06d.data", dir, ssid) }
func IndexName(dir string, ssid uint64) string { return fmt.Sprintf("%s/sst-%06d.idx", dir, ssid) }
func BloomName(dir string, ssid uint64) string { return fmt.Sprintf("%s/sst-%06d.bloom", dir, ssid) }

// Meta summarises a written SSTable: identity, sizes, key bounds, and the
// CRC32C of each of its three files. The manifest records it on flush and
// compaction install, and recovery validates the on-device files against it.
type Meta struct {
	SSID      uint64
	Count     int
	DataBytes int64
	DataCRC   uint32
	IndexCRC  uint32
	BloomCRC  uint32
	MinKey    []byte
	MaxKey    []byte
}

// Writer streams one SSTable onto a device. Add must be called with strictly
// ascending keys; Close writes the SSIndex and bloom filter and publishes
// all three files.
type Writer struct {
	dev     *nvm.Device
	dir     string
	ssid    uint64
	data    *nvm.Writer
	index   []byte
	filter  *bloom.Filter
	count    int
	firstKey []byte
	lastKey  []byte
	dataCRC  uint32 // running CRC32C over the logical SSData byte stream
	buf      []byte
	pending []byte // write-behind buffer: records stream to the device in
	// large sequential chunks, as the compaction thread would, instead of
	// paying one device operation per record
	written int64 // logical SSData bytes emitted (pending included)
}

// writeChunk is the streaming granularity of SSData writes.
const writeChunk = 1 << 20

// NewWriter starts SSTable ssid in dir. expectedCount sizes the bloom
// filter; passing a low estimate only raises its false-positive rate.
func NewWriter(dev *nvm.Device, dir string, ssid uint64, expectedCount int) (*Writer, error) {
	data, err := dev.Create(DataName(dir, ssid))
	if err != nil {
		return nil, err
	}
	return &Writer{
		dev:    dev,
		dir:    dir,
		ssid:   ssid,
		data:   data,
		filter: bloom.New(expectedCount, 0.01),
	}, nil
}

// Add appends entry e. Keys must be strictly ascending.
func (w *Writer) Add(e memtable.Entry) error {
	if w.lastKey != nil && bytes.Compare(e.Key, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys not strictly ascending: %q after %q", e.Key, w.lastKey)
	}
	if w.count == 0 {
		w.firstKey = append([]byte(nil), e.Key...)
	}
	w.lastKey = append(w.lastKey[:0], e.Key...)
	offset := w.written
	recLen := recHeader + len(e.Key) + len(e.Value) + recTrailer

	w.buf = w.buf[:0]
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(e.Key)))
	w.buf = append(w.buf, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(e.Value)))
	w.buf = append(w.buf, u32[:]...)
	var flags byte
	if e.Tombstone {
		flags |= 1
	}
	w.buf = append(w.buf, flags)
	w.buf = append(w.buf, e.Key...)
	w.buf = append(w.buf, e.Value...)
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(w.buf, crcTable))
	w.buf = append(w.buf, u32[:]...)
	w.pending = append(w.pending, w.buf...)
	w.written += int64(len(w.buf))
	w.dataCRC = crc32.Update(w.dataCRC, crcTable, w.buf)
	if len(w.pending) >= writeChunk {
		if _, err := w.data.Write(w.pending); err != nil {
			return err
		}
		w.pending = w.pending[:0]
	}

	var ie [indexEntry]byte
	binary.LittleEndian.PutUint64(ie[0:], uint64(offset))
	binary.LittleEndian.PutUint32(ie[8:], uint32(len(e.Key)))
	binary.LittleEndian.PutUint32(ie[12:], uint32(recLen))
	w.index = append(w.index, ie[:]...)

	w.filter.Add(e.Key)
	w.count++
	return nil
}

// Count returns the number of entries added so far.
func (w *Writer) Count() int { return w.count }

// Close finishes the SSTable, writing the index and bloom files.
func (w *Writer) Close() (Meta, error) {
	if len(w.pending) > 0 {
		if _, err := w.data.Write(w.pending); err != nil {
			return Meta{}, err
		}
		w.pending = nil
	}
	dataBytes := w.data.Size()
	if err := w.data.Close(); err != nil {
		return Meta{}, err
	}
	hdr := make([]byte, indexHeader)
	binary.LittleEndian.PutUint32(hdr[0:], indexMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(w.count))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(w.index, crcTable))
	idx := append(hdr, w.index...)
	if err := w.dev.WriteFile(IndexName(w.dir, w.ssid), idx); err != nil {
		return Meta{}, err
	}
	// The bloom file carries a leading CRC32C over its payload.
	payload := w.filter.Marshal()
	blm := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(blm, crc32.Checksum(payload, crcTable))
	blm = append(blm, payload...)
	if err := w.dev.WriteFile(BloomName(w.dir, w.ssid), blm); err != nil {
		return Meta{}, err
	}
	return Meta{
		SSID:      w.ssid,
		Count:     w.count,
		DataBytes: dataBytes,
		DataCRC:   w.dataCRC,
		IndexCRC:  crc32.Checksum(idx, crcTable),
		BloomCRC:  crc32.Checksum(blm, crcTable),
		MinKey:    w.firstKey,
		MaxKey:    append([]byte(nil), w.lastKey...),
	}, nil
}

// Abort discards the partial SSTable.
func (w *Writer) Abort() {
	w.data.Abort()
}

// WriteTable flushes a sorted entry slice (a sealed MemTable's contents) as
// SSTable ssid.
func WriteTable(dev *nvm.Device, dir string, ssid uint64, entries []memtable.Entry) (Meta, error) {
	w, err := NewWriter(dev, dir, ssid, len(entries))
	if err != nil {
		return Meta{}, err
	}
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			w.Abort()
			return Meta{}, err
		}
	}
	return w.Close()
}

// indexRec is one parsed SSIndex entry.
type indexRec struct {
	offset uint64
	keyLen uint32
	recLen uint32
}

func parseIndex(raw []byte) ([]indexRec, error) {
	if len(raw) < indexHeader {
		return nil, fmt.Errorf("%w: short index (%d bytes)", ErrCorrupt, len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != indexMagic {
		return nil, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(raw[4:])
	crc := binary.LittleEndian.Uint32(raw[12:])
	raw = raw[indexHeader:]
	if uint64(len(raw)) < count*indexEntry {
		return nil, fmt.Errorf("%w: index truncated: %d entries, %d bytes", ErrCorrupt, count, len(raw))
	}
	if crc32.Checksum(raw, crcTable) != crc {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	recs := make([]indexRec, count)
	for i := range recs {
		base := i * indexEntry
		recs[i] = indexRec{
			offset: binary.LittleEndian.Uint64(raw[base:]),
			keyLen: binary.LittleEndian.Uint32(raw[base+8:]),
			recLen: binary.LittleEndian.Uint32(raw[base+12:]),
		}
	}
	return recs, nil
}

// SearchMode selects how Get locates a key inside SSData.
type SearchMode int

const (
	// BinarySearch does O(log n) random key reads through the SSIndex —
	// the PAPYRUSKV_BIN_SEARCH optimisation.
	BinarySearch SearchMode = iota
	// SequentialSearch scans SSData from the start, the pre-optimisation
	// baseline of Figure 8.
	SequentialSearch
)

// Get searches SSTable ssid in dir for key. found=false with a nil error
// means the key is not in this SSTable (the caller continues to the next
// lower SSID). A found tombstone reports found=true, tombstone=true: the
// search is over, the key is deleted.
//
// useBloom controls whether the bloom filter file is consulted first.
func Get(dev *nvm.Device, dir string, ssid uint64, key []byte, mode SearchMode, useBloom bool) (value []byte, tombstone, found bool, err error) {
	if useBloom {
		f, err := loadBloom(dev, dir, ssid)
		if err != nil {
			return nil, false, false, err
		}
		if !f.MayContain(key) {
			return nil, false, false, nil
		}
	}
	if mode == SequentialSearch {
		return seqSearch(dev, dir, ssid, key)
	}
	return binSearch(dev, dir, ssid, key)
}

// loadBloom reads SSTable ssid's bloom file, verifies its leading CRC32C,
// and unmarshals the filter.
func loadBloom(dev *nvm.Device, dir string, ssid uint64) (*bloom.Filter, error) {
	raw, err := dev.ReadFile(BloomName(dir, ssid))
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: short bloom file (%d bytes)", ErrCorrupt, len(raw))
	}
	if crc32.Checksum(raw[4:], crcTable) != binary.LittleEndian.Uint32(raw) {
		return nil, fmt.Errorf("%w: bloom checksum mismatch", ErrCorrupt)
	}
	f, err := bloom.Load(raw[4:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return f, nil
}

// loadIndex reads and validates SSTable ssid's SSIndex.
func loadIndex(dev *nvm.Device, dir string, ssid uint64) ([]indexRec, error) {
	raw, err := dev.ReadFile(IndexName(dir, ssid))
	if err != nil {
		return nil, err
	}
	return parseIndex(raw)
}

func binSearch(dev *nvm.Device, dir string, ssid uint64, key []byte) ([]byte, bool, bool, error) {
	recs, err := loadIndex(dev, dir, ssid)
	if err != nil {
		return nil, false, false, err
	}
	f, err := dev.OpenFile(DataName(dir, ssid))
	if err != nil {
		return nil, false, false, err
	}
	defer f.Close()
	return searchRecords(f, recs, key)
}

// searchRecords binary-searches the records listed in recs through the open
// data file. Every probe reads and checksum-verifies the full record before
// its key is trusted: an unverified bit-flipped key could silently misroute
// the search into a wrong "not found".
func searchRecords(f *nvm.File, recs []indexRec, key []byte) ([]byte, bool, bool, error) {
	lo, hi := 0, len(recs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		recKey, val, flags, err := readRecord(f, recs[mid])
		if err != nil {
			return nil, false, false, err
		}
		switch c := bytes.Compare(key, recKey); {
		case c < 0:
			hi = mid - 1
		case c > 0:
			lo = mid + 1
		default:
			return val, flags&1 != 0, true, nil
		}
	}
	return nil, false, false, nil
}

// readRecord reads the record described by r and verifies its CRC32C
// trailer, returning the key, value, and flags.
func readRecord(f *nvm.File, r indexRec) (key, val []byte, flags byte, err error) {
	if r.recLen < recHeader+recTrailer || r.keyLen > maxKVLen || r.recLen > 2*maxKVLen {
		return nil, nil, 0, fmt.Errorf("%w: implausible index entry (keyLen=%d recLen=%d)", ErrCorrupt, r.keyLen, r.recLen)
	}
	rec := make([]byte, r.recLen)
	if _, err := f.ReadAt(rec, int64(r.offset)); err != nil && err != io.EOF {
		return nil, nil, 0, err
	}
	body := rec[:len(rec)-recTrailer]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rec[len(rec)-recTrailer:]) {
		return nil, nil, 0, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	klen := binary.LittleEndian.Uint32(rec)
	vlen := binary.LittleEndian.Uint32(rec[4:])
	if uint64(recHeader)+uint64(klen)+uint64(vlen)+recTrailer != uint64(len(rec)) {
		return nil, nil, 0, fmt.Errorf("%w: record length mismatch", ErrCorrupt)
	}
	return rec[recHeader : recHeader+klen], rec[recHeader+klen : recHeader+klen+vlen], rec[8], nil
}

func seqSearch(dev *nvm.Device, dir string, ssid uint64, key []byte) ([]byte, bool, bool, error) {
	sc, err := NewScanner(dev, dir, ssid)
	if err != nil {
		return nil, false, false, err
	}
	defer sc.Close()
	for {
		e, ok, err := sc.Next()
		if err != nil {
			return nil, false, false, err
		}
		if !ok {
			return nil, false, false, nil
		}
		switch c := bytes.Compare(e.Key, key); {
		case c == 0:
			// Copied out: the entry aliases the scanner's read window, which
			// a caller caching this one value must not keep alive.
			return bytes.Clone(e.Value), e.Tombstone, true, nil
		case c > 0:
			// Records are sorted; the key cannot appear later.
			return nil, false, false, nil
		}
	}
}

// ListSSIDs returns the SSIDs of all complete SSTables that are direct
// children of dir, ascending. A table is complete when all three files
// exist (a crashed writer can leave partial sets behind; they are ignored).
// Subdirectories are excluded deliberately: a rank's directory also holds
// its WAL, its manifest, and quarantined orphans, none of which may be
// mistaken for live tables.
func ListSSIDs(dev *nvm.Device, dir string) ([]uint64, error) {
	files, err := dev.List(dir)
	if err != nil {
		return nil, err
	}
	parts := map[uint64]int{}
	for _, f := range files {
		base := f[strings.LastIndex(f, "/")+1:]
		if f != dir+"/"+base {
			continue // a file in a subdirectory, not a live table
		}
		if !strings.HasPrefix(base, "sst-") {
			continue
		}
		dot := strings.LastIndex(base, ".")
		if dot < 0 {
			continue
		}
		id, err := strconv.ParseUint(base[4:dot], 10, 64)
		if err != nil {
			continue
		}
		switch base[dot+1:] {
		case "data", "idx", "bloom":
			parts[id]++
		}
	}
	var out []uint64
	for id, n := range parts {
		if n == 3 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Remove deletes all three files of SSTable ssid, then fsyncs the parent
// directory so the unlinks survive a crash — a half-removed table whose
// directory entries reappear after a power cut would be re-listed (and
// quarantined) on the next boot, defeating the deletion the manifest
// already committed.
func Remove(dev *nvm.Device, dir string, ssid uint64) error {
	for _, name := range []string{DataName(dir, ssid), IndexName(dir, ssid), BloomName(dir, ssid)} {
		if err := dev.Remove(name); err != nil {
			return err
		}
	}
	return dev.SyncDir(dir)
}

// ReadMeta reconstructs SSTable ssid's Meta from its on-device files: sizes
// and CRCs by full read, entry count from the index, key bounds from the
// first and last data records. Open uses it to adopt tables that predate
// the manifest (a legacy zero-copy reopen) and restart uses it to manifest
// restored snapshot files; both are cold paths, so the full reads are
// acceptable.
func ReadMeta(dev *nvm.Device, dir string, ssid uint64) (Meta, error) {
	data, err := dev.ReadFile(DataName(dir, ssid))
	if err != nil {
		return Meta{}, err
	}
	idxRaw, err := dev.ReadFile(IndexName(dir, ssid))
	if err != nil {
		return Meta{}, err
	}
	recs, err := parseIndex(idxRaw)
	if err != nil {
		return Meta{}, err
	}
	blm, err := dev.ReadFile(BloomName(dir, ssid))
	if err != nil {
		return Meta{}, err
	}
	m := Meta{
		SSID:      ssid,
		Count:     len(recs),
		DataBytes: int64(len(data)),
		DataCRC:   crc32.Checksum(data, crcTable),
		IndexCRC:  crc32.Checksum(idxRaw, crcTable),
		BloomCRC:  crc32.Checksum(blm, crcTable),
	}
	if len(recs) > 0 {
		for i, r := range []indexRec{recs[0], recs[len(recs)-1]} {
			end := r.offset + uint64(r.recLen)
			if r.recLen < recHeader+recTrailer || end > uint64(len(data)) ||
				uint64(r.keyLen) > uint64(r.recLen)-recHeader-recTrailer {
				return Meta{}, fmt.Errorf("%w: index entry overruns data file", ErrCorrupt)
			}
			key := append([]byte(nil), data[r.offset+recHeader:r.offset+recHeader+uint64(r.keyLen)]...)
			if i == 0 {
				m.MinKey = key
			} else {
				m.MaxKey = key
			}
		}
	}
	return m, nil
}
