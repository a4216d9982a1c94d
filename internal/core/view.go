package core

// The read view: the live leveled version as gets see it, published
// immutable behind one atomic pointer (DB.view). Each table in it carries a
// handle that owns the table's validated bloom filter, parsed SSIndex and
// open data file, so an own-rank get walks the levels and probes tables
// with no lock, no map lookup and no per-table pin — one atomic pin on the
// view covers every table it names.
//
// Lifetimes:
//
//   - A view is republished under sstMu wherever db.levels changes: flush
//     and compaction installs, Open/Restart/Recover composing a version, and
//     scrub quarantine or repair. The DB holds one pin on the current view;
//     a get or an open iterator adds one for its duration. When a superseded
//     view's pins drain, it retires and drops its hold on each handle.
//   - A handle lives in every view from the one that added its table to the
//     one that dropped it. The last of those views to retire closes its
//     table.
//   - Files outlive their handles, and nothing waits for a reader.
//     Compaction and scrub quarantine mark the handles they drop as doomed
//     — the table's files are to be removed, or moved into quarantine — and
//     the mark is set before the view that drops them is published. The
//     last handle naming the files to retire runs that fate. A get or an
//     iterator on a pinned view therefore never finds a table's files gone,
//     whether its handle was loaded before the table left the version or
//     loads on this very probe.
//
// A handle loads lazily, on its table's first probe, unless the table was
// just written: flush and compaction hand over the writer's in-memory bloom
// and index (sstable.Writer.Table), so writing a table reads nothing back.
// A load that fails is not remembered; the next probe tries again. Handles
// count into the device's reader_cache_ counters: a probe of an open table
// is a hit, a load a miss, and closing a loaded handle an eviction.

import (
	"bytes"
	"iter"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"papyruskv/internal/manifest"
	"papyruskv/internal/sstable"
)

// readView is one published version. levels mirrors db.levels at publish
// time; nothing in a view changes after it is published.
type readView struct {
	levels [][]viewTable
	// refs counts the pins on the view, plus the DB's own while the view is
	// current. A view that drains to zero is retired: refs is parked at
	// viewRetired so a get that loaded the pointer too late cannot pin it.
	refs atomic.Int64
}

// viewRetired parks a retired view's pin count far below zero.
const viewRetired = math.MinInt64 / 2

// viewTable is one live table: its manifest record and its read handle.
type viewTable struct {
	manifest.TableMeta
	h *tableHandle
}

// tableHandle owns one live table's read state for as long as any view
// names the table.
type tableHandle struct {
	db   *DB
	ssid uint64

	mu sync.Mutex // serialises loads
	t  atomic.Pointer[sstable.Table]

	// views counts the unretired views holding the handle; the last of them
	// to retire closes the table.
	views atomic.Int32
	files *tableFiles
}

// tableFiles is one table's files as its handles share them. A repair or an
// at-rest rewrite swaps a fresh handle in for a table (reopenTable) while an
// older view may still read through the handle it replaced, so both name
// one tableFiles, and the files' fate waits for both.
type tableFiles struct {
	handles atomic.Int32 // published handles not yet retired
	// fate is what becomes of the files once the last handle retires, set
	// when the table leaves the version for good: compaction removes them,
	// scrub quarantine moves them aside. nil keeps them.
	fate func(ssid uint64)
}

// newHandle returns a handle for table ssid. t, when non-nil, is the table
// already open (a writer's, or one Recover validated); otherwise the first
// probe loads it.
func (db *DB) newHandle(ssid uint64, t *sstable.Table) *tableHandle {
	h := &tableHandle{db: db, ssid: ssid, files: &tableFiles{}}
	if t != nil {
		h.t.Store(t)
		db.openTables.Add(1)
	}
	return h
}

// table returns the handle's open table, opening it on first use; hit
// reports that it was open already.
func (h *tableHandle) table() (t *sstable.Table, hit bool, err error) {
	if t = h.t.Load(); t != nil {
		return t, true, nil
	}
	t, err = h.load()
	return t, false, err
}

// writtenHandle returns a handle on table ssid, which w just wrote, holding
// the writer's in-memory bloom filter and index. Should the data file fail
// to open, the handle loads on first probe like any other.
func (db *DB) writtenHandle(w *sstable.Writer, ssid uint64) *tableHandle {
	t, _ := w.Table()
	return db.newHandle(ssid, t)
}

// load opens the table — reading and CRC-checking its bloom filter and
// SSIndex — and counts the device's reader-cache miss.
func (h *tableHandle) load() (*sstable.Table, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.t.Load(); t != nil {
		return t, nil
	}
	t, err := sstable.OpenTable(h.db.rt.cfg.Device, h.db.ownDir, h.ssid)
	if err != nil {
		return nil, err
	}
	h.t.Store(t)
	h.db.openTables.Add(1)
	h.db.metrics.Readers.Misses.Add(1)
	return t, nil
}

// close closes the handle's table, if one is open, counting an eviction.
// Only a handle no view can reach is closed: the last view's retirement, or
// a caller discarding a handle it never published.
func (h *tableHandle) close() {
	if t := h.t.Swap(nil); t != nil {
		t.Close()
		h.db.openTables.Add(-1)
		h.db.metrics.Readers.Evictions.Add(1)
	}
}

// unref drops one view's hold. The last one closes the table, and when it
// retires the files' last handle too, runs their fate.
func (h *tableHandle) unref() {
	if h.views.Add(-1) != 0 {
		return
	}
	h.close()
	if f := h.files; f.handles.Add(-1) == 0 && f.fate != nil {
		f.fate(h.ssid)
		h.db.doomedTables.Add(-1)
	}
}

// scanner opens a scanner on the handle's table, borrowing its data file and
// index. A table that fails to load (a corrupt bloom or index) is scanned
// through a file of its own instead: the seek degrades to a forward decode,
// and every record is still CRC-checked.
func (h *tableHandle) scanner() (sstable.Scanner, error) {
	t, hit, err := h.table()
	if err != nil {
		return sstable.NewScanner(h.db.rt.cfg.Device, h.db.ownDir, h.ssid)
	}
	if hit {
		h.db.metrics.Readers.Hits.Add(1)
	}
	return t.Scanner(), nil
}

// pinView returns the current view, pinned until unpinView. The loop only
// repeats if the view retired between the pointer load and the pin, which
// means a newer one is already published.
func (db *DB) pinView() *readView {
	for {
		v := db.view.Load()
		if v.refs.Add(1) > 0 {
			return v
		}
	}
}

// unpinView drops one pin, retiring a superseded view on its last.
func (db *DB) unpinView(v *readView) {
	if v.refs.Add(-1) == 0 {
		v.retire()
	}
}

// retire drops the view's hold on its handles, unless a late pin revived it
// — that pin's unpin retires it instead.
func (v *readView) retire() {
	if !v.refs.CompareAndSwap(0, viewRetired) {
		return
	}
	for _, run := range v.levels {
		for _, t := range run {
			t.h.unref()
		}
	}
}

// publishLocked rebuilds the view from db.levels and swaps it in. A table
// keeps the handle the current view holds for it unless fresh names a
// replacement, which then shares the replaced handle's files; a table new to
// the view without one gets a handle that loads on first probe. fate, when
// non-nil, dooms the files of every table that leaves the version (see
// tableFiles). Caller holds sstMu for writing.
func (db *DB) publishLocked(fate func(ssid uint64), fresh ...*tableHandle) {
	old := db.view.Load()
	handles := make(map[uint64]*tableHandle)
	if old != nil {
		for _, run := range old.levels {
			for _, t := range run {
				handles[t.SSID] = t.h
			}
		}
	}
	for _, h := range fresh {
		if prev := handles[h.ssid]; prev != nil {
			h.files = prev.files
		}
		handles[h.ssid] = h
	}
	v := &readView{levels: make([][]viewTable, len(db.levels))}
	v.refs.Store(1)
	used := make(map[*tableHandle]bool)
	for n, run := range db.levels {
		v.levels[n] = make([]viewTable, len(run))
		for i, t := range run {
			h := handles[t.SSID]
			if h == nil {
				h = db.newHandle(t.SSID, nil)
			}
			if h.views.Add(1) == 1 {
				h.files.handles.Add(1)
			}
			used[h] = true
			v.levels[n][i] = viewTable{TableMeta: t, h: h}
		}
	}
	var doomed []*tableFiles
	if old != nil && fate != nil {
		for _, run := range old.levels {
			for _, t := range run {
				if !used[handles[t.SSID]] { // the table left the version
					t.h.files.fate = fate
					doomed = append(doomed, t.h.files)
				}
			}
		}
		db.doomedTables.Add(int64(len(doomed)))
	}
	db.view.Store(v)
	for _, h := range fresh {
		if !used[h] {
			h.close() // its table left the version before it was published
		}
	}
	if old != nil {
		db.unpinView(old)
	}
	// A doomed table whose fate did not run just now is still read through
	// a pinned view; the fate waits for that pin instead of the caller.
	for _, f := range doomed {
		if f.handles.Load() > 0 {
			db.metrics.ScanUnlinksDeferred.Add(1)
		}
	}
}

// reopenTable swaps a fresh, unloaded handle in for table ssid, so the next
// probe opens the files a repair or an at-rest rewrite just replaced: the
// old handle's descriptor still names the replaced file.
func (db *DB) reopenTable(ssid uint64) {
	db.sstMu.Lock()
	db.publishLocked(nil, db.newHandle(ssid, nil))
	db.sstMu.Unlock()
}

// retireView publishes an empty view at Close, so every handle closes once
// the last get still pinning an older view drains.
func (db *DB) retireView() {
	v := &readView{}
	v.refs.Store(1)
	db.sstMu.Lock()
	old := db.view.Swap(v)
	db.sstMu.Unlock()
	db.unpinView(old)
}

// tables is the one recency walk over a version: it yields every table that
// may hold a key in [lo, hi) — [lo, hi] when inclusive — in newerTable
// order: each covering L0 table newest first, then each deeper level's
// overlapping run, found with one binary search per level. Empty bounds are
// unbounded.
func (v *readView) tables(lo, hi []byte, inclusive bool) iter.Seq[*viewTable] {
	return func(yield func(*viewTable) bool) {
		// past reports that a table starting at minKey lies wholly above
		// the range.
		past := func(minKey []byte) bool {
			c := bytes.Compare(minKey, hi)
			return len(hi) > 0 && (c > 0 || c == 0 && !inclusive)
		}
		for n, run := range v.levels {
			if n == 0 {
				for i := len(run) - 1; i >= 0; i-- {
					if !past(run[i].MinKey) && bytes.Compare(run[i].MaxKey, lo) >= 0 && !yield(&run[i]) {
						return
					}
				}
				continue
			}
			i := sort.Search(len(run), func(i int) bool { return bytes.Compare(run[i].MaxKey, lo) >= 0 })
			for ; i < len(run) && !past(run[i].MinKey); i++ {
				if !yield(&run[i]) {
					return
				}
			}
		}
	}
}

// ids returns the SSIDs the walk yields for [lo, hi), or [lo, hi] when
// inclusive, in a slice sized by a first, counting walk.
func (v *readView) ids(lo, hi []byte, inclusive bool) []uint64 {
	n := 0
	for range v.tables(lo, hi, inclusive) {
		n++
	}
	ids := make([]uint64, 0, n)
	for t := range v.tables(lo, hi, inclusive) {
		ids = append(ids, t.SSID)
	}
	return ids
}
