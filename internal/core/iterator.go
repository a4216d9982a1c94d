package core

// Ordered iteration with snapshot semantics. An Iterator is a per-rank k-way
// merge over every structure that can hold a live version of an owned key —
// the mutable local MemTable, the immutable local MemTables, optionally the
// remote-side staging tables, and all live SSTables — visited
// newest-source-first so on a key tie the most recent version wins and a
// tombstone suppresses every older incarnation below it.
//
// The snapshot discipline has two halves, split by mutability:
//
//   - MemTables: sealed tables never change, so holding the *Table reference
//     is the snapshot (flush removes a table from immLocal but cannot mutate
//     it). The mutable tables are captured with SnapshotRange — a bounded
//     point-in-time copy, immune to later Puts.
//   - SSTables: files are immutable, but compaction and scrub quarantine
//     take superseded ones away. The iterator pins the read view (view.go)
//     once, for its whole life, and opens one scanner per range-overlapping
//     table from the table's handle, borrowing its open data file and
//     index. A table the version drops meanwhile is doomed, not gone: its
//     files stay until the last view naming it — this one — retires.
//
// Each scanner reads only the blocks [lo, hi) can touch, once, into a pooled
// window whose entries are valid through the scanner's following Next; the
// merge's are valid until its next Next. Next, producePage and the DB.Scan
// gather copy what they keep before they pull again.
//
// Flush between the MemTable capture and the view pin can only add a table
// whose content the iterator already holds from the MemTable side — a
// benign duplicate the merge's newest-wins tie-break collapses — never
// remove one, because the capture happens first.

import (
	"fmt"

	"papyruskv/internal/memtable"
	"papyruskv/internal/sstable"
)

// memSources appends one side's MemTables to a merge's source list in
// memGet's newest-first order: the mutable table as a SnapshotRange copy
// held in run, then each sealed table through its lock-free cursor. Caller
// holds db.mu.
func memSources(sources []memtable.Source, run *memtable.Run, mt *memtable.Table, imm []*memtable.Table, lo, hi []byte) []memtable.Source {
	*run = mt.SnapshotRange(lo, hi)
	sources = append(sources, run)
	for i := len(imm) - 1; i >= 0; i-- {
		sources = append(sources, imm[i].CursorFrom(lo).Source())
	}
	return sources
}

// Iterator walks this rank's owned pairs in ascending key order over a
// pinned snapshot. It is single-goroutine: Next/Key/Value/Close must not be
// called concurrently. Key and Value return buffers that are reused by the
// next Next call; callers keeping a pair must copy it.
type Iterator struct {
	db       *DB
	m        *memtable.Merger
	view     *readView         // pinned until release
	hi       []byte            // the merge's upper bound, copied at open
	scanners []sstable.Scanner // one per overlapping table, in one array
	key, val []byte
	err      error
	closed   bool
	// runs and mem hold the MemTable sources without allocating in the
	// common case of a few sealed tables.
	runs [2]memtable.Run
	mem  [6]memtable.Source
}

// NewIterator opens an ordered iterator over the keys this rank owns in
// [lo, hi) (nil lo: from the smallest key; nil hi: to the largest). The view
// is a snapshot: puts, deletes, flushes, and compactions after the open are
// invisible, and the files of every SSTable it reads stay on the device
// until Close. Close must be called to release the snapshot: the files of a
// table compacted away under an iterator never closed are left behind as
// orphans, which the next Open quarantines. A Degraded (read-only) rank
// still serves iterators; only a Failed rank refuses.
func (db *DB) NewIterator(lo, hi []byte) (*Iterator, error) {
	return db.newIterator(lo, hi, false)
}

// newIterator opens the iterator's sources and starts its merge.
func (db *DB) newIterator(lo, hi []byte, withStaging bool) (*Iterator, error) {
	it, sources, err := db.openIterator(lo, hi, withStaging)
	if err != nil {
		return nil, err
	}
	if err := it.merge(sources); err != nil {
		return nil, err
	}
	return it, nil
}

// openIterator captures the sources of an iterator over [lo, hi), newest
// first, without merging them yet. withStaging additionally includes the
// remote-side staging tables (the mutable remote MemTable and the immutable
// remote list) — DB.Scan uses it so locally staged writes and deletes shadow
// the owner ranks' streams, mirroring getRemote's staging-first search
// order. Staged entries are hash-disjoint from owned ones, so the extra
// sources never collide with the local ones.
func (db *DB) openIterator(lo, hi []byte, withStaging bool) (*Iterator, []memtable.Source, error) {
	if err := db.checkOpen(); err != nil {
		return nil, nil, err
	}
	if err := db.readHealth(); err != nil {
		return nil, nil, err
	}
	it := &Iterator{db: db}
	bounds := append(append(make([]byte, 0, len(lo)+len(hi)), lo...), hi...)
	lo, hi = bounds[:len(lo):len(lo)], bounds[len(lo):]
	it.hi = hi

	// MemTables first, SSTables second — see the package comment: this
	// order makes a concurrent flush a benign duplicate instead of a gap.
	// Sources go newest first: every MemTable source outranks every SSTable
	// source (a flushed table leaves the list only after its SSTable is
	// published, so in-memory versions are never older), newest list
	// entries first.
	db.mu.Lock()
	mem := memSources(it.mem[:0], &it.runs[0], db.localMT, db.immLocal, lo, hi)
	if withStaging {
		mem = memSources(mem, &it.runs[1], db.remoteMT, db.immRemote, lo, hi)
	}
	db.mu.Unlock()

	// The view's recency walk yields only the tables intersecting [lo, hi),
	// so the merge opens one scanner per level beyond L0 instead of one per
	// live table.
	it.view = db.pinView()
	n := 0
	for range it.view.tables(lo, hi, false) {
		n++
	}
	it.scanners = make([]sstable.Scanner, 0, n)
	sources := append(make([]memtable.Source, 0, len(mem)+n), mem...)
	for t := range it.view.tables(lo, hi, false) {
		sc, err := t.h.scanner()
		if err == nil {
			it.scanners = append(it.scanners, sc)
			err = it.scanners[len(it.scanners)-1].SeekRange(lo, hi)
		}
		if err != nil {
			it.release()
			return nil, nil, fmt.Errorf("papyruskv: open iterator on SSTable %d: %w", t.SSID, err)
		}
		sources = append(sources, &it.scanners[len(it.scanners)-1])
	}
	return it, sources, nil
}

// merge starts the iterator's merge over sources — its own, which
// openIterator returned, and any older ones appended after them — up to the
// first key >= its upper bound. On error the iterator is released.
func (it *Iterator) merge(sources []memtable.Source) error {
	m, err := memtable.NewMerger(sources, it.hi)
	if err != nil {
		it.release()
		it.closed = true // never counted open: Close has nothing to undo
		return err
	}
	it.m = m
	it.db.metrics.IteratorsOpen.Add(1)
	return nil
}

// Next advances to the next live pair, reporting whether one exists.
// Tombstones are filtered here, at the public edge: a deleted key simply
// does not appear. The internal consumers — the cross-rank merge and the
// page producer — pull it.m directly and see tombstones, so a newer
// source's tombstone can shadow an older rank's stream.
func (it *Iterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	for {
		e, ok, err := it.m.Next()
		if err != nil {
			it.err = err
		}
		if err != nil || !ok {
			return false
		}
		if e.Tombstone {
			continue
		}
		it.key = append(it.key[:0], e.Key...)
		it.val = append(it.val[:0], e.Value...)
		return true
	}
}

// Key returns the current pair's key; valid until the next Next or Close.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current pair's value; valid until the next Next or Close.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iteration hit, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the snapshot: the scanners close and the view pin drops,
// taking with it the files of every table the version dropped while this
// iterator was its last reader. Close is idempotent, and may come after
// DB.Close: an iterator left open does not hold DB.Close up and still walks
// its snapshot, and its own Close then removes the superseded files. Close
// it before the database is opened again.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.db.metrics.IteratorsOpen.Add(^uint64(0))
	it.release()
	return nil
}

// release closes the scanners, then drops the view pin that keeps their
// tables open; shared by Close and the open-path error exits (which run
// before the gauge increment).
func (it *Iterator) release() {
	for i := range it.scanners {
		it.scanners[i].Close()
	}
	it.scanners = nil
	if it.view != nil {
		it.db.unpinView(it.view)
		it.view = nil
	}
	it.m = nil
}
