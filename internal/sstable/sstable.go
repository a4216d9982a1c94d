// Package sstable implements PapyrusKV's Sorted String Tables: the
// immutable, key-sorted on-NVM representation an immutable local MemTable
// is flushed into, and the unit of compaction, checkpointing, and
// storage-group sharing.
//
// An SSTable is three files (§2.4):
//
//	sst-<ssid>.data   SSData — the key-value records, sorted by key
//	sst-<ssid>.idx    SSIndex — one fence entry per block of SSData
//	sst-<ssid>.bloom  bloom filter over the keys
//
// SSData is a run of records, each
//
//	klen u32 | vlen u32 | flags u8 | key | value | CRC32C u32 over all before
//
// cut into blocks: a block is a run of consecutive records that ends at the
// first record boundary blockSize or more bytes past its start; a record of
// blockSize or more is a block of its own. The SSIndex names each block by
// where it starts and the first key in it (all integers little-endian):
//
//	magic  u32   indexMagic
//	crc    u32   CRC32C over every byte after this field
//	count  u64   records in SSData
//	blocks u32   entries that follow
//	blocks × { offset u64 | klen u32 | key }
//
// Offsets and fence keys ascend strictly, the first offset is 0, and the
// file ends with the last entry. This is the one place the layout is
// written down; parseIndex is its only decoder.
//
// SSIDs are per-database, per-rank, unique increasing integers starting at
// one. A get opens the bloom filter first to decide whether the SSTable can
// be skipped; on a possible hit it loads the SSIndex into memory and
// searches SSData — either through the index (an in-memory binary search
// over the fence keys, then one random read of the one block that can hold
// the key; profitable on NVM's fast random access) or by sequential scan
// (the baseline the paper's Figure 8 "B" configurations toggle).
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
	"sync"

	"papyruskv/internal/bloom"
	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

const (
	// indexMagic is "PKVJ". The per-record SSIndex this format replaced was
	// "PKVI"; a file left over from it fails the magic check as ErrCorrupt.
	indexMagic  = 0x504b564a
	recHeader   = 9       // klen u32, vlen u32, flags u8
	recTrailer  = 4       // CRC32C over header+key+value
	indexHeader = 20      // magic u32, crc u32, count u64, blocks u32
	fenceHeader = 12      // offset u64, klen u32; the key follows
	maxKVLen    = 1 << 30 // sanity bound on klen/vlen from disk

	// blockSize is the SSData span one SSIndex entry covers, and so what a
	// get reads to answer from a table: small enough that the read and the
	// walk through it stay a few microseconds, large enough that the fence
	// keys of a table are a fraction of a percent of its data.
	blockSize = 4 << 10
	// maxBlockRecords bounds the records one block can hold (a block is cut
	// once it spans blockSize and no record is shorter than its framing), and
	// with it the record count an index of a given block count may claim.
	maxBlockRecords = blockSize/(recHeader+recTrailer) + 1
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
	dev      *nvm.Device
	dir      string
	ssid     uint64
	data     *nvm.Writer
	index    []byte // encoded fence entries, one per block started so far
	blocks   int
	blockOff int64 // where the block being filled starts in SSData
	filter   *bloom.Filter
	count    int
	firstKey []byte
	lastKey  []byte
	dataCRC  uint32 // running CRC32C over the logical SSData byte stream
	// pending is the write-behind buffer, writeChunk bytes from writePool:
	// Add encodes each record straight into it, and it goes to the device
	// in one write before a record would overflow it — large sequential
	// chunks, as the compaction thread would write, instead of one device
	// operation per record. pooled is its pool handle; Close and Abort
	// return it.
	pending []byte
	pooled  *[]byte
	written int64  // logical SSData bytes emitted (pending included)
	sealed  []byte // the SSIndex file image, once Close has written it
}

// writeChunk is the streaming granularity of SSData writes.
const writeChunk = 1 << 20

// writePool holds the writers' write-behind buffers, writeChunk bytes each.
// A buffer is reused as soon as the device write of its bytes returns.
var writePool = sync.Pool{New: func() any { b := make([]byte, 0, writeChunk); return &b }}

// NewWriter starts SSTable ssid in dir. expectedCount sizes the bloom
// filter; passing a low estimate only raises its false-positive rate.
func NewWriter(dev *nvm.Device, dir string, ssid uint64, expectedCount int) (*Writer, error) {
	data, err := dev.Create(DataName(dir, ssid))
	if err != nil {
		return nil, err
	}
	pooled := writePool.Get().(*[]byte)
	return &Writer{
		dev:     dev,
		dir:     dir,
		ssid:    ssid,
		data:    data,
		filter:  bloom.New(expectedCount, 0.01),
		pending: (*pooled)[:0],
		pooled:  pooled,
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
	recLen := recHeader + len(e.Key) + len(e.Value) + recTrailer
	if w.count == 0 || w.written-w.blockOff >= blockSize || recLen >= blockSize {
		w.blockOff = w.written
		w.index = appendFence(w.index, w.written, e.Key)
		w.blocks++
	}
	if len(w.pending)+recLen > writeChunk {
		if err := w.flush(); err != nil {
			return err
		}
	}
	// A record longer than writeChunk grows a one-off buffer, which the
	// next flush drops.
	start := len(w.pending)
	w.pending = appendRecord(w.pending, e)
	w.dataCRC = crc32.Update(w.dataCRC, crcTable, w.pending[start:])
	w.written += int64(recLen)
	w.filter.Add(e.Key)
	w.count++
	return nil
}

// appendRecord appends e to dst as one SSData record, CRC32C trailer
// included.
func appendRecord(dst []byte, e memtable.Entry) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Value)))
	var flags byte
	if e.Tombstone {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = append(dst, e.Key...)
	dst = append(dst, e.Value...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// flush writes the buffered records to the device and empties the buffer.
func (w *Writer) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	_, err := w.data.Write(w.pending)
	w.pending = (*w.pooled)[:0]
	return err
}

// Count returns the number of entries added so far.
func (w *Writer) Count() int { return w.count }

// Close finishes the SSTable, writing the index and bloom files. If any step
// fails, nothing of the table stays on the device: the data file is aborted,
// or removed once published, and so is a published index. A leftover would
// be worst on a full device, where reclaim is trying to free space: the
// partial data file's name is never listed, so nothing would remove it.
func (w *Writer) Close() (Meta, error) {
	meta, err := w.seal()
	w.release()
	if err != nil {
		// Best effort: the caller acts on err, not on the cleanup's.
		w.data.Abort()
		_ = w.dev.Remove(DataName(w.dir, w.ssid))
		_ = w.dev.Remove(IndexName(w.dir, w.ssid))
	}
	return meta, err
}

// seal writes the last buffered records, publishes the data file, and
// writes the index and bloom files.
func (w *Writer) seal() (Meta, error) {
	if err := w.flush(); err != nil {
		return Meta{}, err
	}
	dataBytes := w.data.Size()
	if err := w.data.Close(); err != nil {
		return Meta{}, err
	}
	idx := sealIndex(w.count, w.blocks, w.index)
	if err := w.dev.WriteFile(IndexName(w.dir, w.ssid), idx); err != nil {
		return Meta{}, err
	}
	w.sealed = idx
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

// release hands the write-behind buffer back to writePool, once.
func (w *Writer) release() {
	if w.pooled != nil {
		writePool.Put(w.pooled)
		w.pooled, w.pending = nil, nil
	}
}

// Table opens the table a successful Close just published for reads. Its
// bloom filter and SSIndex are the ones the writer built in memory, so
// nothing is read back from the device: only the data file is opened.
func (w *Writer) Table() (*Table, error) {
	index, err := parseIndex(w.sealed)
	if err != nil {
		return nil, err
	}
	data, err := w.dev.OpenFile(DataName(w.dir, w.ssid))
	if err != nil {
		return nil, err
	}
	return &Table{filter: w.filter, index: index, data: data}, nil
}

// Abort discards the partial SSTable.
func (w *Writer) Abort() {
	w.release()
	w.data.Abort()
}

// WriteTable flushes a sorted entry slice (a sealed MemTable's contents) as
// SSTable ssid.
func WriteTable(dev *nvm.Device, dir string, ssid uint64, entries []memtable.Entry) (Meta, error) {
	w, err := NewWriter(dev, dir, ssid, len(entries))
	if err != nil {
		return Meta{}, err
	}
	return w.WriteAll(entries)
}

// WriteAll adds entries, which must ascend strictly, and closes the writer;
// on error the partial table is aborted.
func (w *Writer) WriteAll(entries []memtable.Entry) (Meta, error) {
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			w.Abort()
			return Meta{}, err
		}
	}
	return w.Close()
}

// appendFence appends one SSIndex entry: a block starting at off whose first
// key is key.
func appendFence(dst []byte, off int64, key []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	return append(dst, key...)
}

// sealIndex frames the encoded fence entries of a table of count records as
// an SSIndex file.
func sealIndex(count, blocks int, fences []byte) []byte {
	idx := make([]byte, indexHeader, indexHeader+len(fences))
	binary.LittleEndian.PutUint32(idx[0:], indexMagic)
	binary.LittleEndian.PutUint64(idx[8:], uint64(count))
	binary.LittleEndian.PutUint32(idx[16:], uint32(blocks))
	idx = append(idx, fences...)
	binary.LittleEndian.PutUint32(idx[4:], crc32.Checksum(idx[8:], crcTable))
	return idx
}

// ssIndex is a parsed SSIndex: the fence key and SSData offset of every
// block, and the table's record count. The keys alias the raw file image it
// was parsed from.
type ssIndex struct {
	count   int
	offsets []int64
	keys    [][]byte
	rawLen  int
}

// memBytes is what a loaded index holds on the heap: the raw file image the
// fence keys alias, plus an offset and a slice header per block.
func (x *ssIndex) memBytes() int64 { return int64(x.rawLen) + int64(len(x.keys))*(8+24) }

// parseIndex validates and decodes an SSIndex file image. The checksum
// covers the counts as well as the entries, every count is bounded by the
// bytes present before anything is sized from it, and the entries must
// ascend strictly and fill the file exactly.
func parseIndex(raw []byte) (*ssIndex, error) {
	if len(raw) < indexHeader {
		return nil, fmt.Errorf("%w: short index (%d bytes)", ErrCorrupt, len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != indexMagic {
		return nil, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	if crc32.Checksum(raw[8:], crcTable) != binary.LittleEndian.Uint32(raw[4:]) {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(raw[8:])
	blocks := uint64(binary.LittleEndian.Uint32(raw[16:]))
	body := raw[indexHeader:]
	if blocks > uint64(len(body))/fenceHeader || count < blocks || count > blocks*maxBlockRecords {
		return nil, fmt.Errorf("%w: index of %d bytes claims %d blocks, %d records", ErrCorrupt, len(raw), blocks, count)
	}
	x := &ssIndex{
		count:   int(count),
		offsets: make([]int64, blocks),
		keys:    make([][]byte, blocks),
		rawLen:  len(raw),
	}
	for i := range x.keys {
		if len(body) < fenceHeader {
			return nil, fmt.Errorf("%w: index truncated at block %d", ErrCorrupt, i)
		}
		off := binary.LittleEndian.Uint64(body)
		klen := binary.LittleEndian.Uint32(body[8:])
		body = body[fenceHeader:]
		if uint64(klen) > uint64(len(body)) {
			return nil, fmt.Errorf("%w: index truncated in block %d's key", ErrCorrupt, i)
		}
		key := body[:klen:klen]
		body = body[klen:]
		switch {
		case i == 0 && off != 0:
			return nil, fmt.Errorf("%w: first block at offset %d", ErrCorrupt, off)
		case i > 0 && (int64(off) <= x.offsets[i-1] || bytes.Compare(key, x.keys[i-1]) <= 0):
			return nil, fmt.Errorf("%w: index block %d out of order", ErrCorrupt, i)
		}
		x.offsets[i], x.keys[i] = int64(off), key
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last index entry", ErrCorrupt, len(body))
	}
	return x, nil
}

// locate maps key to the one block of an SSData file of dataSize bytes that
// can hold it — the last block whose fence key is <= key — as the byte span
// [off, end). ok=false means key sorts before every record of the table (or
// the table is empty). It is the only routine that turns a key into a data
// offset, and it touches no device.
func (x *ssIndex) locate(key []byte, dataSize int64) (off, end int64, ok bool) {
	lo, hi := 0, len(x.keys) // first block whose fence key is > key
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(x.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, 0, false
	}
	end = dataSize
	if lo < len(x.offsets) {
		end = x.offsets[lo]
	}
	return x.offsets[lo-1], end, true
}

// SearchMode selects how Get locates a key inside SSData.
type SearchMode int

const (
	// BinarySearch binary-searches the SSIndex's fence keys in memory and
	// reads the one block that can hold the key — the PAPYRUSKV_BIN_SEARCH
	// optimisation.
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
func loadIndex(dev *nvm.Device, dir string, ssid uint64) (*ssIndex, error) {
	raw, err := dev.ReadFile(IndexName(dir, ssid))
	if err != nil {
		return nil, err
	}
	return parseIndex(raw)
}

// Table is one SSTable open for point reads: its validated bloom filter, its
// parsed SSIndex and an open handle on SSData. A lookup through it pays only
// the one block read; the bloom and index were checked once, when the table
// was opened.
type Table struct {
	filter *bloom.Filter
	index  *ssIndex
	data   *nvm.File
}

// OpenTable reads and CRC-checks SSTable ssid's bloom filter and SSIndex and
// opens its data file. On any error nothing stays open.
func OpenTable(dev *nvm.Device, dir string, ssid uint64) (*Table, error) {
	filter, err := loadBloom(dev, dir, ssid)
	if err != nil {
		return nil, err
	}
	index, err := loadIndex(dev, dir, ssid)
	if err != nil {
		return nil, err
	}
	data, err := dev.OpenFile(DataName(dir, ssid))
	if err != nil {
		return nil, err
	}
	return &Table{filter: filter, index: index, data: data}, nil
}

// Get looks key up with the package-level Get's contract in BinarySearch
// mode: the bloom filter first when useBloom, then one in-memory locate and
// one block read.
func (t *Table) Get(key []byte, useBloom bool) (value []byte, tombstone, found bool, err error) {
	if useBloom && !t.filter.MayContain(key) {
		return nil, false, false, nil
	}
	return searchRecords(t.data, t.index, key)
}

// Close closes the data file.
func (t *Table) Close() error { return t.data.Close() }

// memBytes is what the table holds on the heap: bloom bits and the index.
func (t *Table) memBytes() int64 { return int64(t.filter.SizeBytes()) + t.index.memBytes() }

func binSearch(dev *nvm.Device, dir string, ssid uint64, key []byte) ([]byte, bool, bool, error) {
	idx, err := loadIndex(dev, dir, ssid)
	if err != nil {
		return nil, false, false, err
	}
	f, err := dev.OpenFile(DataName(dir, ssid))
	if err != nil {
		return nil, false, false, err
	}
	defer f.Close()
	return searchRecords(f, idx, key)
}

// blockPool holds the scratch buffers searchRecords reads blocks into. A
// buffer never leaves searchRecords: what a get returns is copied out of it.
var blockPool = sync.Pool{New: func() any { b := make([]byte, 0, 2*blockSize); return &b }}

// maxPooledBlock is the largest block read through the pool; a bigger one (a
// single oversized record) gets a buffer of its own, left to the collector.
const maxPooledBlock = 64 << 10

// searchRecords looks key up in the open data file f through its index: one
// in-memory locate, one read of the block it names, and a forward walk that
// checksum-verifies every record before its key is compared — an unverified
// bit-flipped key could silently misroute the search into a wrong "not
// found". The value returned is an exact-size copy, so a caller that caches
// it retains those bytes and nothing else.
func searchRecords(f *nvm.File, idx *ssIndex, key []byte) ([]byte, bool, bool, error) {
	off, end, ok := idx.locate(key, f.Size())
	if !ok {
		return nil, false, false, nil
	}
	if end <= off || end > f.Size() {
		return nil, false, false, fmt.Errorf("%w: index block [%d,%d) outside a data file of %d bytes", ErrCorrupt, off, end, f.Size())
	}
	n := int(end - off)
	if n > maxPooledBlock {
		return readBlock(f, make([]byte, n), off, key)
	}
	bp := blockPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	val, tomb, found, err := readBlock(f, (*bp)[:n], off, key)
	blockPool.Put(bp)
	return val, tomb, found, err
}

// readBlock fills block from f at off and searches it for key.
func readBlock(f *nvm.File, block []byte, off int64, key []byte) ([]byte, bool, bool, error) {
	if n, err := f.ReadAt(block, off); err != nil && err != io.EOF {
		return nil, false, false, err
	} else if n < len(block) {
		return nil, false, false, fmt.Errorf("%w: data file ends %d bytes into the block at %d", ErrCorrupt, n, off)
	}
	return searchBlock(block, key)
}

// searchBlock walks the records of one SSData block for key. A value it
// returns is a copy: block is a pooled read buffer.
func searchBlock(block, key []byte) ([]byte, bool, bool, error) {
	for len(block) > 0 {
		e, n, err := decodeRecord(block)
		if err != nil {
			return nil, false, false, err
		}
		switch c := bytes.Compare(e.Key, key); {
		case c == 0:
			return detach(e.Value), e.Tombstone, true, nil
		case c > 0:
			return nil, false, false, nil
		}
		block = block[n:]
	}
	return nil, false, false, nil
}

// detach returns a copy of v with cap == len: values leave this package
// owning exactly their own bytes, never a read buffer's.
func detach(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// recordLen returns the encoded length of the record whose header starts
// buf, which must hold at least recHeader bytes.
func recordLen(buf []byte) (int, error) {
	klen := binary.LittleEndian.Uint32(buf)
	vlen := binary.LittleEndian.Uint32(buf[4:])
	if klen > maxKVLen || vlen > maxKVLen {
		return 0, fmt.Errorf("%w: implausible record header (klen=%d vlen=%d)", ErrCorrupt, klen, vlen)
	}
	return recHeader + int(klen) + int(vlen) + recTrailer, nil
}

// decodeRecord decodes the record at the start of buf and verifies its
// CRC32C trailer, returning the entry — key and value alias buf — and the
// record's encoded length.
func decodeRecord(buf []byte) (memtable.Entry, int, error) {
	if len(buf) < recHeader {
		return memtable.Entry{}, 0, fmt.Errorf("%w: %d trailing bytes where a record should start", ErrCorrupt, len(buf))
	}
	total, err := recordLen(buf)
	if err != nil {
		return memtable.Entry{}, 0, err
	}
	if total > len(buf) {
		return memtable.Entry{}, 0, fmt.Errorf("%w: record of %d bytes overruns its %d-byte block", ErrCorrupt, total, len(buf))
	}
	body := buf[:total-recTrailer]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(buf[total-recTrailer:]) {
		return memtable.Entry{}, 0, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	klen := int(binary.LittleEndian.Uint32(buf))
	return memtable.Entry{
		Key:       body[recHeader : recHeader+klen : recHeader+klen],
		Value:     body[recHeader+klen : len(body) : len(body)],
		Tombstone: body[8]&1 != 0,
	}, total, nil
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
			return detach(e.Value), e.Tombstone, true, nil
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
// and CRCs by full read, entry count from the index header, key bounds from
// the first and last data records. Open uses it to adopt tables that predate
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
	idx, err := parseIndex(idxRaw)
	if err != nil {
		return Meta{}, err
	}
	blm, err := dev.ReadFile(BloomName(dir, ssid))
	if err != nil {
		return Meta{}, err
	}
	m := Meta{
		SSID:      ssid,
		Count:     idx.count,
		DataBytes: int64(len(data)),
		DataCRC:   crc32.Checksum(data, crcTable),
		IndexCRC:  crc32.Checksum(idxRaw, crcTable),
		BloomCRC:  crc32.Checksum(blm, crcTable),
	}
	if idx.count == 0 {
		return m, nil
	}
	// The last block starts at the last fence; walk it to the file's end.
	last := idx.offsets[len(idx.offsets)-1]
	if last >= int64(len(data)) {
		return Meta{}, fmt.Errorf("%w: index block at %d past a data file of %d bytes", ErrCorrupt, last, len(data))
	}
	first, _, err := decodeRecord(data)
	if err != nil {
		return Meta{}, err
	}
	m.MinKey = bytes.Clone(first.Key)
	for rest := data[last:]; len(rest) > 0; {
		e, n, err := decodeRecord(rest)
		if err != nil {
			return Meta{}, err
		}
		m.MaxKey, rest = e.Key, rest[n:]
	}
	m.MaxKey = bytes.Clone(m.MaxKey)
	return m, nil
}
