package sstable

import (
	"bytes"
	"fmt"
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
	// pending holds the record SeekGE decoded to find the seek point; Next
	// returns it before touching the file.
	pending    memtable.Entry
	hasPending bool
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
// with key >= key: the SSIndex names the one block that can hold it, and the
// scanner decodes forward from that block's start instead of from the start
// of the file. An unreadable or corrupt index degrades to a forward decode
// from offset 0 — a slower scan, never a failed one; the data records' own
// CRCs still guard every byte actually returned. A nil or empty key rewinds
// to the start.
//
// Seeking discards buffered read-ahead and restarts it at the smallest
// window; interleaving SeekGE with Next is allowed.
func (s *Scanner) SeekGE(key []byte) error {
	s.hasPending = false
	s.rewindTo(0)
	if len(key) == 0 {
		return nil
	}
	var idx *ssIndex
	if s.r != nil {
		idx = s.r.index
	} else if loaded, err := loadIndex(s.dev, s.dir, s.ssid); err == nil {
		idx = loaded
	}
	if idx != nil {
		off, _, ok := idx.locate(key, s.size)
		if !ok {
			return nil // every record of the table is >= key
		}
		s.rewindTo(off)
	}
	// Decode forward to the first record >= key and hold it for Next; with
	// an index that is at most one block away.
	return s.skipTo(key)
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
	if ok, err := s.fill(total); err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("%w: record body truncated", ErrCorrupt)
		}
		return memtable.Entry{}, false, err
	}
	rec := s.buf[s.pos : s.pos+total]
	s.pos += total
	e, _, err := decodeRecord(rec)
	return e, err == nil, err
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
