package sstable

import (
	"bytes"
	"container/heap"
	"sort"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// Merge compacts the SSTables listed in ssids (any order) into a single new
// SSTable newSSID. When several inputs hold the same key, the record from
// the input with the highest SSID — the newest — wins (§2.5). Tombstones
// are carried into the merged table: a compaction over a subset of SSTables
// cannot prove the key is absent from older, unmerged tables, so dropping
// the tombstone would resurrect deleted keys.
func Merge(dev *nvm.Device, dir string, ssids []uint64, newSSID uint64) (Meta, error) {
	ordered := append([]uint64(nil), ssids...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] > ordered[j] })
	return MergeOrdered(dev, dir, ordered, newSSID, nil, nil, false)
}

// MergeOrdered compacts the SSTables listed in inputs — newest FIRST; with
// leveled compaction SSID order is no longer recency order, so the caller
// states recency explicitly — into a single new SSTable newSSID. Only
// records with lo <= key <= hi are merged (nil bounds are unbounded), so a
// leveled compaction can rewrite just the victim's key range. When several
// inputs hold the same key, the earliest input in the list wins.
//
// dropTombstones elides deletion markers from the output; it is only sound
// when the output lands on the bottom level of the store — any deeper table
// could otherwise resurrect the deleted key.
//
// The inputs are NOT deleted here. The caller must first commit the
// install+delete edit to its manifest and only then Remove the inputs — a
// crash between writing the merged output and unlinking the inputs must
// leave either the old version (edit not committed: the output is an
// orphan, quarantined on reopen) or the new one (edit committed: leftover
// inputs are orphans), never a mix that resurrects overwritten values.
//
// The merge is a streaming k-way heap merge over sequential scanners, so it
// performs the sequential file reads the paper describes and never holds
// more than one record per input in memory.
func MergeOrdered(dev *nvm.Device, dir string, inputs []uint64, newSSID uint64, lo, hi []byte, dropTombstones bool) (Meta, error) {
	scanners := make([]*Scanner, 0, len(inputs))
	defer func() {
		for _, sc := range scanners {
			sc.Close()
		}
	}()

	h := &mergeHeap{}
	expected := 0
	for pri, id := range inputs {
		sc, err := NewScanner(dev, dir, id)
		if err != nil {
			return Meta{}, err
		}
		scanners = append(scanners, sc)
		if len(lo) > 0 {
			if err := sc.SeekGE(lo); err != nil {
				return Meta{}, err
			}
		}
		e, ok, err := sc.Next()
		if err != nil {
			return Meta{}, err
		}
		if ok {
			heap.Push(h, mergeItem{entry: e, pri: pri, scanner: sc})
		}
		// Size the output bloom filter from the inputs' true entry counts,
		// so merging large tables keeps the configured false-positive rate
		// and merging tiny ones does not over-allocate. The count is free
		// when the input's index is in the reader cache; otherwise it is one
		// read of the SSIndex, under 1% of the data the merge is about to
		// stream. An unreadable index falls back to a rough
		// estimate rather than failing the merge — the merge itself only
		// needs the data files. A range-bounded merge over-allocates by the
		// out-of-range share; that costs bloom bits, never correctness.
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

	var lastKey []byte
	haveLast := false
	for h.Len() > 0 {
		item := heap.Pop(h).(mergeItem)
		if len(hi) > 0 && bytes.Compare(item.entry.Key, hi) > 0 {
			// Every remaining record in every input is past the range.
			break
		}
		// The heap orders equal keys by input priority, so the first
		// occurrence of a key is the newest; later duplicates are stale.
		if !haveLast || !bytes.Equal(item.entry.Key, lastKey) {
			if !dropTombstones || !item.entry.Tombstone {
				if err := w.Add(item.entry); err != nil {
					w.Abort()
					return Meta{}, err
				}
			}
			lastKey = append(lastKey[:0], item.entry.Key...)
			haveLast = true
		}
		next, ok, err := item.scanner.Next()
		if err != nil {
			w.Abort()
			return Meta{}, err
		}
		if ok {
			heap.Push(h, mergeItem{entry: next, pri: item.pri, scanner: item.scanner})
		}
	}

	return w.Close()
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

// MergeScan streams the logical merge of the given SSTables — each key's
// newest version only, in ascending key order — to fn without writing a new
// table. Recency is SSID order (pre-leveled semantics); use
// MergeScanOrdered when the caller knows a different recency order.
func MergeScan(dev *nvm.Device, dir string, ssids []uint64, fn func(memtable.Entry) error) error {
	ordered := append([]uint64(nil), ssids...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] > ordered[j] })
	return MergeScanOrdered(dev, dir, ordered, fn)
}

// MergeScanOrdered streams the logical merge of the given SSTables — inputs
// newest FIRST, each key's newest version only, in ascending key order — to
// fn without writing a new table. Restart-with-redistribution uses it to
// re-put each snapshot pair exactly once (§4.2). A non-nil error from fn
// aborts the scan.
func MergeScanOrdered(dev *nvm.Device, dir string, inputs []uint64, fn func(memtable.Entry) error) error {
	scanners := make([]*Scanner, 0, len(inputs))
	defer func() {
		for _, sc := range scanners {
			sc.Close()
		}
	}()
	h := &mergeHeap{}
	for pri, id := range inputs {
		sc, err := NewScanner(dev, dir, id)
		if err != nil {
			return err
		}
		scanners = append(scanners, sc)
		e, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h, mergeItem{entry: e, pri: pri, scanner: sc})
		}
	}
	var lastKey []byte
	haveLast := false
	for h.Len() > 0 {
		item := heap.Pop(h).(mergeItem)
		if !haveLast || !bytes.Equal(item.entry.Key, lastKey) {
			if err := fn(item.entry); err != nil {
				return err
			}
			lastKey = append(lastKey[:0], item.entry.Key...)
			haveLast = true
		}
		next, ok, err := item.scanner.Next()
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h, mergeItem{entry: next, pri: item.pri, scanner: item.scanner})
		}
	}
	return nil
}

type mergeItem struct {
	entry   memtable.Entry
	pri     int // input position: lower = newer, wins ties
	scanner *Scanner
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
