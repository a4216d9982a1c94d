package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// Scanner streams the records of one SSData file in key order. Compaction,
// checkpoint redistribution, sequential-search gets, and range scans all use
// it. A scanner comes from one of two places, and the only difference is who
// owns the data handle and where SeekGE finds the SSIndex: NewScanner opens
// the file itself and loads the index on demand; ReaderCache.NewScanner pins
// the cached reader and borrows both.
//
// Entries returned by Next alias the scanner's read window. A window is
// never written again once records have been handed out of it (fill moves on
// to a fresh one), so an entry stays valid for as long as it is referenced —
// across later Next calls and past Close. It also keeps its whole window
// reachable: a consumer that retains a few entries long-term copies them.
type Scanner struct {
	f    *nvm.File
	dev  *nvm.Device
	dir  string
	ssid uint64
	// cache and r are set on a cache-opened scanner: r is the pinned reader
	// that owns f, released — not closed — by Close.
	cache *ReaderCache
	r     *tableReader

	buf    []byte
	off    int64 // file offset of buf[0]
	pos    int   // parse position within buf
	size   int64
	window int // bytes the next refill reads ahead
	// pending holds one decoded record SeekGE's degraded (index-less) path
	// read past the seek point; Next returns it before touching the file.
	pending *memtable.Entry
}

// Read-ahead is geometric: the first refill after an open or a seek reads
// scannerFirstWindow bytes and every later one twice the previous, up to
// scannerChunk. A short range costs about what it returns, while a long
// sequential pass — compaction "needs sequential file read" (§2.5) — reaches
// 1MB reads, bandwidth-bound rather than latency-bound, within nine refills.
const (
	scannerFirstWindow = 4 << 10
	scannerChunk       = 1 << 20
)

// NewScanner opens SSTable ssid's data file for a sequential scan.
func NewScanner(dev *nvm.Device, dir string, ssid uint64) (*Scanner, error) {
	f, err := dev.OpenFile(DataName(dir, ssid))
	if err != nil {
		return nil, err
	}
	return &Scanner{f: f, dev: dev, dir: dir, ssid: ssid, size: f.Size(), window: scannerFirstWindow}, nil
}

// NewScanner opens a scanner on SSTable ssid through the cache. The scanner
// pins the cached reader exactly as a Get does for its duration — an entry
// evicted, or a table unlinked by compaction, while the scan is in flight
// stays readable, and the descriptor closes when the last pin drops — and
// reads through the reader's open data handle and parsed index: a warm open
// and seek touch no file but SSData itself. With the cache disabled, or when
// the reader cannot be loaded (a corrupt bloom or index, a stale negative
// entry), the scanner falls back to an uncached open, which needs neither
// structure to stream records and degrades a seek to a forward decode.
func (c *ReaderCache) NewScanner(dir string, ssid uint64) (*Scanner, error) {
	if c.enabled() {
		if r, err := c.acquire(dir, ssid); err == nil {
			return &Scanner{
				f: r.data, dev: c.dev, dir: dir, ssid: ssid, cache: c, r: r,
				size: r.data.Size(), window: scannerFirstWindow,
			}, nil
		}
	}
	return NewScanner(c.dev, dir, ssid)
}

// SeekGE positions the scanner so the next record returned is the first one
// with key >= key, using the SSIndex to binary-search for the right offset
// instead of decoding the whole file. An unreadable or corrupt index degrades
// to a forward decode from offset 0 — a slower scan, never a failed one; the
// data records' own CRCs still guard every byte actually returned. A nil or
// empty key rewinds to the start.
//
// Seeking discards buffered read-ahead and restarts it at the smallest
// window; interleaving SeekGE with Next is allowed.
func (s *Scanner) SeekGE(key []byte) error {
	s.pending = nil
	if len(key) == 0 {
		s.rewindTo(0)
		return nil
	}
	var recs []indexRec
	if s.r != nil {
		recs = s.r.index
	} else {
		// Probe the first record's key before loading the index: a seek at
		// or before the table's first key — most inputs of a range-bounded
		// compaction — resolves with one small read instead of an index load
		// plus a binary search of point reads. Undecidable probes (empty
		// table, corrupt or oversized first key) fall through to the index.
		if atOrAfter, decided := s.firstKeyAtLeast(key); decided && atOrAfter {
			s.rewindTo(0)
			return nil
		}
		var err error
		if recs, err = loadIndex(s.dev, s.dir, s.ssid); err != nil {
			// Corrupt, truncated, or missing index: fall back to scanning
			// forward from the start. The degraded path buffers the first
			// record >= key so it is not lost to the probe.
			s.rewindTo(0)
			return s.skipTo(key)
		}
	}
	// Binary search for the first record with recKey >= key. Index entries
	// carry offsets, not keys, so each probe reads (and CRC-verifies) its
	// record through the open data file, exactly like searchRecords.
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		recKey, _, _, err := readRecord(s.f, recs[mid])
		if err != nil {
			// A record the index pointed at fails validation: distrust the
			// index and degrade to the sequential path.
			s.rewindTo(0)
			return s.skipTo(key)
		}
		if bytes.Compare(recKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(recs) {
		s.rewindTo(s.size) // past the last key: scanner is exhausted
		return nil
	}
	s.rewindTo(int64(recs[lo].offset))
	return nil
}

// seekProbeLen bounds the first-key probe read: big enough for any sane
// first record header + key, small enough to be cheap when the answer is
// "use the index".
const seekProbeLen = 4096

// firstKeyAtLeast reports whether the table's first key is >= key, with one
// bounded read and no buffer disturbance. decided=false means the probe
// could not tell (empty table, short file, implausible header) and the
// caller should use the index. The probe skips the record CRC: it only
// routes the seek — every record actually returned is still verified by
// Next, and a misrouting from corrupt bytes surfaces there.
func (s *Scanner) firstKeyAtLeast(key []byte) (atOrAfter, decided bool) {
	n := seekProbeLen
	if int64(n) > s.size {
		n = int(s.size)
	}
	if n < recHeader {
		return false, false
	}
	probe := make([]byte, n)
	if _, err := s.f.ReadAt(probe, 0); err != nil && err != io.EOF {
		return false, false
	}
	klen := binary.LittleEndian.Uint32(probe)
	if klen > maxKVLen || recHeader+int(klen) > n {
		return false, false
	}
	first := probe[recHeader : recHeader+int(klen)]
	return bytes.Compare(first, key) >= 0, true
}

// rewindTo discards buffered data, repositions the scanner at off, and
// restarts the read-ahead ramp. The old window is dropped, not truncated:
// entries already returned may still alias it.
func (s *Scanner) rewindTo(off int64) {
	s.buf = nil
	s.off = off
	s.pos = 0
	s.window = scannerFirstWindow
}

// skipTo is SeekGE's index-less fallback: decode records forward until one
// with key >= key appears, and hold it for the next Next call.
func (s *Scanner) skipTo(key []byte) error {
	for {
		e, ok, err := s.Next()
		if err != nil || !ok {
			return err
		}
		if bytes.Compare(e.Key, key) >= 0 {
			s.pending = &e
			return nil
		}
	}
}

// fill ensures at least need bytes are available at s.pos, reading the next
// window as required. Returns false at clean EOF. Each refill lands in a
// fresh window, with the unconsumed tail (at most one partial record)
// carried over, so entries aliasing the previous window are undisturbed.
func (s *Scanner) fill(need int) (bool, error) {
	avail := len(s.buf) - s.pos
	if avail >= need {
		return true, nil
	}
	remainingInFile := s.size - (s.off + int64(len(s.buf)))
	if int64(avail)+remainingInFile < int64(need) {
		if avail == 0 && remainingInFile == 0 {
			return false, nil
		}
		return false, fmt.Errorf("%w: truncated data file (need %d, have %d)", ErrCorrupt, need, int64(avail)+remainingInFile)
	}
	toRead := s.window
	if s.window < scannerChunk {
		s.window *= 2
	}
	if need-avail > toRead {
		toRead = need - avail
	}
	if int64(toRead) > remainingInFile {
		toRead = int(remainingInFile)
	}
	win := make([]byte, avail+toRead)
	copy(win, s.buf[s.pos:])
	s.off += int64(s.pos)
	s.pos = 0
	n, err := s.f.ReadAt(win[avail:], s.off+int64(avail))
	s.buf = win[:avail+n]
	if err != nil && err != io.EOF {
		return false, err
	}
	if len(s.buf) < need {
		return false, fmt.Errorf("%w: short read in data file", ErrCorrupt)
	}
	return true, nil
}

// Next returns the next record. ok=false signals the end of the table.
func (s *Scanner) Next() (memtable.Entry, bool, error) {
	if s.pending != nil {
		e := *s.pending
		s.pending = nil
		return e, true, nil
	}
	ok, err := s.fill(recHeader)
	if err != nil || !ok {
		return memtable.Entry{}, false, err
	}
	hdr := s.buf[s.pos:]
	klen := binary.LittleEndian.Uint32(hdr)
	vlen := binary.LittleEndian.Uint32(hdr[4:])
	flags := hdr[8]
	if klen > maxKVLen || vlen > maxKVLen {
		return memtable.Entry{}, false, fmt.Errorf("%w: implausible record header (klen=%d vlen=%d)", ErrCorrupt, klen, vlen)
	}
	total := recHeader + int(klen) + int(vlen) + recTrailer
	if ok, err := s.fill(total); err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("%w: record body truncated", ErrCorrupt)
		}
		return memtable.Entry{}, false, err
	}
	rec := s.buf[s.pos : s.pos+total]
	s.pos += total
	body := rec[:total-recTrailer]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rec[total-recTrailer:]) {
		return memtable.Entry{}, false, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	key := body[recHeader : recHeader+int(klen) : recHeader+int(klen)]
	val := body[recHeader+int(klen) : len(body) : len(body)]
	return memtable.Entry{Key: key, Value: val, Tombstone: flags&1 != 0}, true, nil
}

// Close releases the data file: a cache-opened scanner drops its pin on the
// cached reader (whose descriptor closes once it is evicted and unpinned), an
// uncached one closes the handle it opened.
func (s *Scanner) Close() error {
	if s.cache == nil {
		return s.f.Close()
	}
	// The handle belongs to the cache: never close it from here, and drop
	// the pin once only, so a repeated Close cannot steal another reader's.
	if s.r != nil {
		s.cache.release(s.r)
		s.r = nil
	}
	return nil
}

// ReadAll returns every record of SSTable ssid in key order.
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
		out = append(out, e)
	}
}
