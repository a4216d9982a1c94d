package sstable

import (
	"bytes"
	"container/heap"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// MergeOrdered compacts the SSTables listed in inputs — newest FIRST; with
// leveled compaction SSID order is no longer recency order, so the caller
// states recency explicitly — into a single new SSTable newSSID. Only
// records with lo <= key <= hi are merged (nil bounds are unbounded), so a
// leveled compaction can rewrite just the victim's key range. When several
// inputs hold the same key, the earliest input in the list wins (§2.5).
//
// Tombstones are carried into the merged table — a compaction over a subset
// of SSTables cannot prove the key is absent from older, unmerged tables —
// unless dropTombstones elides them, which is only sound when the output
// lands on the bottom level of the store: any deeper table could otherwise
// resurrect the deleted key.
//
// The inputs are NOT deleted here. The caller must first commit the
// install+delete edit to its manifest and only then Remove the inputs — a
// crash between writing the merged output and unlinking the inputs must
// leave either the old version (edit not committed: the output is an
// orphan, quarantined on reopen) or the new one (edit committed: leftover
// inputs are orphans), never a mix that resurrects overwritten values.
func MergeOrdered(dev *nvm.Device, dir string, inputs []uint64, newSSID uint64, lo, hi []byte, dropTombstones bool) (Meta, error) {
	m, err := openMerger(dev, dir, inputs, lo)
	if err != nil {
		return Meta{}, err
	}
	defer m.close()
	// Size the output bloom filter from the inputs' true entry counts, so
	// merging large tables keeps the configured false-positive rate and
	// merging tiny ones does not over-allocate. The count is free when the
	// input's index is in the reader cache; otherwise it is one read of the
	// SSIndex, under 1% of the data the merge is about to stream. An
	// unreadable index falls back to a rough estimate rather than failing
	// the merge — the merge itself only needs the data files. A
	// range-bounded merge over-allocates by the out-of-range share; that
	// costs bloom bits, never correctness.
	expected := 0
	for _, id := range inputs {
		if n, err := EntryCount(dev, dir, id); err == nil {
			expected += n
		} else {
			expected += 1024
		}
	}
	w, err := NewWriter(dev, dir, newSSID, expected)
	if err != nil {
		return Meta{}, err
	}
	for {
		e, ok, err := m.next()
		if err != nil {
			w.Abort()
			return Meta{}, err
		}
		if !ok || (len(hi) > 0 && bytes.Compare(e.Key, hi) > 0) {
			// Inputs exhausted, or every remaining record is past the range.
			return w.Close()
		}
		if dropTombstones && e.Tombstone {
			continue
		}
		if err := w.Add(e); err != nil {
			w.Abort()
			return Meta{}, err
		}
	}
}

// EntryCount returns the number of records in SSTable ssid, from the
// device's reader cache when the table's index is already loaded, else from
// the SSIndex file, read whole so the count is covered by its checksum.
func EntryCount(dev *nvm.Device, dir string, ssid uint64) (int, error) {
	if c := lookupCache(dev); c != nil {
		if n, ok := c.cachedCount(dir, ssid); ok {
			return n, nil
		}
	}
	idx, err := loadIndex(dev, dir, ssid)
	if err != nil {
		return 0, err
	}
	return idx.count, nil
}

// MergeScanOrdered streams the logical merge of the given SSTables — inputs
// newest FIRST, each key's newest version only, in ascending key order — to
// fn without writing a new table. Restart-with-redistribution uses it to
// re-put each snapshot pair exactly once (§4.2). A non-nil error from fn
// aborts the scan.
func MergeScanOrdered(dev *nvm.Device, dir string, inputs []uint64, fn func(memtable.Entry) error) error {
	m, err := openMerger(dev, dir, inputs, nil)
	if err != nil {
		return err
	}
	defer m.close()
	for {
		e, ok, err := m.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// merger is the one k-way merge over SSTables: a heap of sequential
// scanners, one per input, that yields each key's newest version in
// ascending key order. It performs the sequential file reads the paper
// describes and never holds more than one record per input in memory.
type merger struct {
	scanners []*Scanner
	heap     mergeHeap
	lastKey  []byte
	started  bool
}

// openMerger opens a scanner on every input — newest first: an input's
// position is its priority on a key tie — positions each at the first key
// >= lo (nil: the start), and primes the heap. The caller closes the merger.
func openMerger(dev *nvm.Device, dir string, inputs []uint64, lo []byte) (*merger, error) {
	m := &merger{scanners: make([]*Scanner, 0, len(inputs))}
	for pri, id := range inputs {
		sc, err := NewScanner(dev, dir, id)
		if err == nil {
			m.scanners = append(m.scanners, sc)
			if len(lo) > 0 {
				err = sc.SeekGE(lo)
			}
		}
		if err == nil {
			err = m.refill(pri)
		}
		if err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

// refill pushes input pri's next record, if it has one.
func (m *merger) refill(pri int) error {
	e, ok, err := m.scanners[pri].Next()
	if ok {
		heap.Push(&m.heap, mergeItem{entry: e, pri: pri})
	}
	return err
}

// next returns the next key's newest version. The heap orders equal keys by
// input priority, so the first occurrence of a key is the newest; later
// duplicates are stale and skipped.
func (m *merger) next() (memtable.Entry, bool, error) {
	for m.heap.Len() > 0 {
		item := heap.Pop(&m.heap).(mergeItem)
		if err := m.refill(item.pri); err != nil {
			return memtable.Entry{}, false, err
		}
		if m.started && bytes.Equal(item.entry.Key, m.lastKey) {
			continue
		}
		m.lastKey = append(m.lastKey[:0], item.entry.Key...)
		m.started = true
		return item.entry, true, nil
	}
	return memtable.Entry{}, false, nil
}

func (m *merger) close() {
	for _, sc := range m.scanners {
		sc.Close()
	}
}

type mergeItem struct {
	entry memtable.Entry
	pri   int // input position: lower = newer, wins ties
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].entry.Key, h[j].entry.Key); c != 0 {
		return c < 0
	}
	return h[i].pri < h[j].pri // newest first among equal keys
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
