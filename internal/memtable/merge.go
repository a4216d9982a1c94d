package memtable

import "bytes"

// Merger is the store's one k-way merge: compaction, restart
// redistribution, a rank's iterator and the cross-rank scan gather all read
// sorted runs through it. Sources are ordered newest first — a source's
// position in the list is its recency — and every call to Next yields the
// next key's winning entry: the one from the earliest source holding that
// key. Tombstones are yielded like any other entry; suppressing them is the
// consumer's call.
//
// Next advances the winning source once before it returns the winner, so a
// source's entry must stay valid through that source's following Next;
// every source in the store (sealed-table cursors, mutable-table snapshots,
// SSTable scanners, scan pages) hands out entries that do. What the merge
// yields is valid only until its own next Next, which may pull that source
// again: a consumer copies what it keeps before it pulls, and a merge is
// never itself the source of another.
type Merger struct {
	srcs []mergeSource
	heap []*mergeSource // min-heap over srcs by before
	hi   []byte
	err  error
}

// A Source is one sorted input of a Merger: each call to Next returns the
// next entry in ascending key order, or false once the input is exhausted.
type Source interface {
	Next() (Entry, bool, error)
}

// Run is a Source over entries already in ascending key order.
type Run []Entry

// Next yields the run's first entry and drops it from the run.
func (r *Run) Next() (Entry, bool, error) {
	if len(*r) == 0 {
		return Entry{}, false, nil
	}
	e := (*r)[0]
	*r = (*r)[1:]
	return e, true, nil
}

type mergeSource struct {
	src Source
	cur Entry
	pos int // index in the source list: lower = newer
}

// before is the merge's one ordering rule: key ascending, then list
// position ascending, so on a key tie the newer source comes first.
func before(a, b *mergeSource) bool {
	if c := bytes.Compare(a.cur.Key, b.cur.Key); c != 0 {
		return c < 0
	}
	return a.pos < b.pos
}

// NewMerger primes a merge over sources, newest first, that stops at the
// first key >= hi (empty hi: unbounded). It pulls each source's first entry
// and returns the first error a source reports.
func NewMerger(sources []Source, hi []byte) (*Merger, error) {
	m := &Merger{
		srcs: make([]mergeSource, len(sources)),
		heap: make([]*mergeSource, 0, len(sources)),
		hi:   hi,
	}
	for i, src := range sources {
		s := &m.srcs[i]
		s.src, s.pos = src, i
		e, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			s.cur = e
			m.heap = append(m.heap, s)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

// Next returns the next key's winning entry, reporting false once every
// source is exhausted or the next key reaches hi. Every source positioned on
// the winning key is advanced past it. A source's error stops the merge: it
// is returned now and by every later call.
func (m *Merger) Next() (Entry, bool, error) {
	if m.err != nil {
		return Entry{}, false, m.err
	}
	if len(m.heap) == 0 {
		return Entry{}, false, nil
	}
	win := m.heap[0].cur
	if len(m.hi) > 0 && bytes.Compare(win.Key, m.hi) >= 0 {
		return Entry{}, false, nil
	}
	for len(m.heap) > 0 && bytes.Equal(m.heap[0].cur.Key, win.Key) {
		s := m.heap[0]
		e, ok, err := s.src.Next()
		if err != nil {
			m.err = err
			return Entry{}, false, err
		}
		if ok {
			s.cur = e
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	return win, true, nil
}

// down restores the heap below i.
func (m *Merger) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
