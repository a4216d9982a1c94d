package sstable

import (
	"bytes"
	"fmt"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// Scanner streams the records of one SSData file in key order. Compaction,
// checkpoint redistribution, sequential-search gets, and range scans all use
// it. A scanner comes from one of two places, and the only difference is who
// owns the data handle and where SeekRange finds the SSIndex: NewScanner
// opens the file itself and loads the index on demand; Table.Scanner borrows
// an open table's handle and parsed index, which is how iterators read the
// tables their pinned read view names — they are not ReaderCache readers.
// Both return it by value, so a caller keeps one per table in one array; a
// used scanner must not be copied.
//
// The scanner reads in place: each refill extends its view of the file's
// mapping, charged to the device as one read of the bytes it adds. Entries
// returned by Next alias the mapping and are valid until the scanner closes
// — for a table's scanner, until the table does, which is never earlier.
// Nothing outside this package may keep one past that, so every consumer
// copies what it keeps: Writer.Add, Iterator.Next, producePage and the
// DB.Scan gather into their own buffers, redistribution in DB.Put,
// seqSearch with detach, and ReadAll.
type Scanner struct {
	f    *nvm.File
	dev  *nvm.Device
	dir  string
	ssid uint64
	// idx is set only on a table's scanner: the table's parsed SSIndex,
	// borrowed with its data handle, which Close leaves open. An uncached
	// scanner's seeks load the index from the device.
	idx *ssIndex

	buf    []byte // a view of [off, off+len(buf)) of the file
	off    int64  // file offset of buf[0]
	pos    int    // parse position within buf
	limit  int64  // file offset no read passes: the end of the table or of the span SeekRange bounds
	window int    // bytes the next refill reads ahead
	last   []byte // key of the record Next returned last, nil after a seek
	// pending holds the record SeekRange decoded to find the seek point;
	// Next returns it before touching the file.
	pending    memtable.Entry
	hasPending bool
}

// Read-ahead is geometric: the first refill after an open or an unbounded
// seek reads scannerFirstWindow bytes and every later one twice the previous,
// up to scannerChunk, so a long sequential pass — compaction "needs
// sequential file read" (§2.5) — reaches 1MB reads, bandwidth-bound rather
// than latency-bound, within nine refills. A bounded seek whose span is at
// most maxSpanRead bytes reads the whole span at once instead.
const (
	scannerFirstWindow = 4 << 10
	scannerChunk       = 1 << 20
	maxSpanRead        = 64 << 10
)

// NewScanner opens SSTable ssid's data file for a sequential scan.
func NewScanner(dev *nvm.Device, dir string, ssid uint64) (Scanner, error) {
	f, err := dev.OpenFile(DataName(dir, ssid))
	if err != nil {
		return Scanner{}, err
	}
	return Scanner{f: f, dev: dev, dir: dir, ssid: ssid, limit: f.Size(), window: scannerFirstWindow}, nil
}

// Scanner returns a scanner over the open table. It reads through the
// table's data handle and seeks with its parsed index, so an open and a
// seek touch no file but SSData itself; the handle stays the table's, and
// the table must stay open until the scanner closes.
func (t *Table) Scanner() Scanner {
	return Scanner{f: t.data, idx: t.index, limit: t.data.Size(), window: scannerFirstWindow}
}

// SeekRange positions the scanner on the records with lo <= key < hi (empty:
// unbounded). The SSIndex names the block lo falls in, where the scanner
// decodes forward to the first record >= lo, and the block hi falls in: no
// read passes its end, where Next reports the end of the table (at once when
// hi sorts before the table). The first read covers that span when it is at
// most maxSpanRead bytes, so a short range costs one read per table. Records >= hi in
// the last block may still be returned; the caller's merge stops at hi.
//
// An unreadable or corrupt index degrades to an unbounded forward decode
// from offset 0 — a slower scan, never a failed one; the data records' own
// CRCs still guard every byte actually returned. Seeking discards buffered
// read-ahead; interleaving SeekRange with Next is allowed.
func (s *Scanner) SeekRange(lo, hi []byte) error {
	size := s.f.Size()
	s.hasPending = false
	s.rewind(0, size)
	if len(lo) == 0 && len(hi) == 0 {
		return nil
	}
	idx := s.idx
	if idx == nil {
		if idx, _ = loadIndex(s.dev, s.dir, s.ssid); idx == nil {
			return s.skipTo(lo)
		}
	}
	var off int64
	limit := size
	if len(lo) > 0 {
		off, _, _ = idx.locate(lo, size) // not found: 0, every record is >= lo
	}
	if len(hi) > 0 {
		_, limit, _ = idx.locate(hi, size) // not found: 0, every record is >= hi
	}
	s.rewind(off, max(off, limit))
	if span := s.limit - off; len(hi) > 0 && span <= maxSpanRead {
		s.window = int(span)
	}
	return s.skipTo(lo)
}

// SeekGE is the unbounded SeekRange(key, nil); the benchmark probes call it
// by name.
func (s *Scanner) SeekGE(key []byte) error { return s.SeekRange(key, nil) }

// rewind discards buffered data and repositions the scanner at off, reading
// no further than limit, with the read-ahead ramp restarted.
func (s *Scanner) rewind(off, limit int64) {
	s.buf, s.off, s.pos, s.limit, s.window, s.last = nil, off, 0, limit, scannerFirstWindow, nil
}

// skipTo decodes records forward until one with key >= key appears, and
// holds it for the next Next call.
func (s *Scanner) skipTo(key []byte) error {
	for {
		e, ok, err := s.Next()
		if err != nil || !ok {
			return err
		}
		if bytes.Compare(e.Key, key) >= 0 {
			s.pending, s.hasPending = e, true
			return nil
		}
	}
}

// fill ensures at least need bytes are available at s.pos, extending the
// view as required. Returns false at a clean end of the span. Each refill
// adds min(window, bytes left before limit) — never fewer than the record
// needs — to the unconsumed tail (at most one partial record), and only the
// added bytes are charged.
func (s *Scanner) fill(need int) (bool, error) {
	avail := len(s.buf) - s.pos
	if avail >= need {
		return true, nil
	}
	end := s.off + int64(len(s.buf))
	left := s.limit - end
	if int64(avail)+left < int64(need) {
		if avail == 0 && left == 0 {
			return false, nil
		}
		return false, fmt.Errorf("%w: record of %d bytes runs past offset %d", ErrCorrupt, need, s.limit)
	}
	n := max(int(min(int64(s.window), left)), need-avail)
	if s.window < scannerChunk {
		s.window *= 2
	}
	buf, err := s.f.Extend(s.buf[s.pos:], end, n)
	if err != nil {
		return false, err
	}
	s.buf, s.off, s.pos = buf, s.off+int64(s.pos), 0
	return true, nil
}

// Next returns the next record. ok=false signals the end of the table, or
// of the span a bounded SeekRange reads. A record that fails its CRC, or
// whose key does not sort after the previous one's, is ErrCorrupt: the merge
// a scanner feeds relies on the order as much as on the bytes.
func (s *Scanner) Next() (memtable.Entry, bool, error) {
	if s.hasPending {
		s.hasPending = false
		return s.pending, true, nil
	}
	ok, err := s.fill(recHeader)
	if err != nil || !ok {
		return memtable.Entry{}, false, err
	}
	total, err := recordLen(s.buf[s.pos:])
	if err != nil {
		return memtable.Entry{}, false, err
	}
	if _, err := s.fill(total); err != nil {
		return memtable.Entry{}, false, err
	}
	rec := s.buf[s.pos : s.pos+total]
	s.pos += total
	e, _, err := decodeRecord(rec)
	if err == nil && s.last != nil && bytes.Compare(e.Key, s.last) <= 0 {
		err = fmt.Errorf("%w: key %q does not sort after %q", ErrCorrupt, e.Key, s.last)
	}
	if err != nil {
		return memtable.Entry{}, false, err
	}
	s.last = e.Key
	return e, true, nil
}

// Close releases the data file: an uncached scanner unmaps the file it
// opened, a table's scanner leaves the table's mapping alone. A repeated
// Close unmaps nothing twice.
func (s *Scanner) Close() error {
	s.buf, s.last, s.pending, s.hasPending = nil, nil, memtable.Entry{}, false
	if s.idx != nil {
		return nil // the table's handle
	}
	return s.f.Close()
}

// ReadAll returns every record of SSTable ssid in key order, each copied out
// of the mapping as it is read.
func ReadAll(dev *nvm.Device, dir string, ssid uint64) ([]memtable.Entry, error) {
	sc, err := NewScanner(dev, dir, ssid)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var out []memtable.Entry
	for {
		e, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		// Copied: the entry aliases the mapping the deferred Close unmaps.
		out = append(out, memtable.Entry{Key: bytes.Clone(e.Key), Value: bytes.Clone(e.Value), Tombstone: e.Tombstone})
	}
}
