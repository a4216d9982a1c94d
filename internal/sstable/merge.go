package sstable

import (
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
	// Size the output bloom filter from the inputs' true entry counts, so
	// merging large tables keeps the configured false-positive rate and
	// merging tiny ones does not over-allocate. Each count is one read of
	// the input's SSIndex, under 1% of the data the merge is about to
	// stream. An unreadable index falls back to a rough estimate rather than
	// failing the merge — the merge itself only needs the data files. A
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
	return w.Merge(inputs, lo, hi, dropTombstones)
}

// Merge streams MergeOrdered's merge of inputs, which live in the writer's
// directory, into w and closes it: the output of a caller that already knows
// the inputs' entry counts and sized the writer's filter from them. On error
// the partial output is aborted.
func (w *Writer) Merge(inputs []uint64, lo, hi []byte, dropTombstones bool) (Meta, error) {
	if len(hi) > 0 {
		// hi is inclusive here and exclusive in the merge: the smallest key
		// above hi is hi+0x00. The full slice expression keeps the append
		// off the caller's array.
		hi = append(hi[:len(hi):len(hi)], 0)
	}
	m, err := OpenMerge(w.dev, w.dir, inputs, lo, hi)
	if err != nil {
		w.Abort()
		return Meta{}, err
	}
	defer m.Close()
	for {
		e, ok, err := m.Next()
		if err != nil {
			w.Abort()
			return Meta{}, err
		}
		if !ok {
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

// EntryCount returns the number of records in SSTable ssid from its SSIndex
// file, read whole so the count is covered by its checksum.
func EntryCount(dev *nvm.Device, dir string, ssid uint64) (int, error) {
	idx, err := loadIndex(dev, dir, ssid)
	if err != nil {
		return 0, err
	}
	return idx.count, nil
}

// TableMerge is memtable.Merger over sequential scanners of SSTables, which
// it owns: the sequential file reads the paper describes, never more than
// one record per input in memory. Close releases the scanners.
type TableMerge struct {
	*memtable.Merger
	scanners []Scanner
}

// OpenMerge opens a scanner on every input — newest first: an input's
// position is its priority on a key tie — positions each on [lo, hi) (nil:
// unbounded), and merges them up to the first key >= hi. Restart-with-
// redistribution streams a snapshot through it to re-put each pair exactly
// once (§4.2); MergeOrdered writes it to a table. Inputs are never deleted.
func OpenMerge(dev *nvm.Device, dir string, inputs []uint64, lo, hi []byte) (*TableMerge, error) {
	m := &TableMerge{scanners: make([]Scanner, 0, len(inputs))}
	pulls := make([]memtable.Source, 0, len(inputs))
	for _, id := range inputs {
		sc, err := NewScanner(dev, dir, id)
		if err == nil {
			m.scanners = append(m.scanners, sc)
			err = m.scanners[len(m.scanners)-1].SeekRange(lo, hi)
		}
		if err != nil {
			m.Close()
			return nil, err
		}
		pulls = append(pulls, &m.scanners[len(m.scanners)-1])
	}
	var err error
	if m.Merger, err = memtable.NewMerger(pulls, hi); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Close releases every input's scanner.
func (m *TableMerge) Close() {
	for i := range m.scanners {
		m.scanners[i].Close()
	}
}
