// Package memtable implements the in-memory tables of PapyrusKV. A database
// holds four kinds (§2.3): the local MemTable (pairs this rank owns), the
// remote MemTable (pairs owned by other ranks, awaiting migration), and the
// immutable (sealed) forms of both queued for flushing or migration.
//
// A MemTable is a red-black tree indexed by key, so insert, lookup, and
// delete are O(log n). Each entry carries a tombstone flag (a delete is a
// put of a zero-length value with the tombstone set) and, in remote
// MemTables, the owner rank the pair must migrate to.
package memtable

import (
	"bytes"
	"sync"

	"papyruskv/internal/rbtree"
)

// Entry is one key-value pair.
type Entry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
	Owner     int // owner rank; used by remote MemTables
}

// entryOverhead approximates per-entry bookkeeping bytes for capacity
// accounting.
const entryOverhead = 48

func (e *Entry) size() int64 {
	return int64(len(e.Key) + len(e.Value) + entryOverhead)
}

// Table is a thread-safe MemTable. The zero value is not usable; call New.
type Table struct {
	mu     sync.RWMutex
	tree   *rbtree.Tree
	bytes  int64
	sealed bool
}

// New returns an empty MemTable.
func New() *Table {
	return &Table{tree: rbtree.New()}
}

// Put inserts or replaces the entry for e.Key. Inserting into a sealed
// table reports ok=false (the caller must have rolled a new mutable table).
//
// The key and value are copied: the table exclusively owns its tree memory,
// so a caller reusing its buffer after Put — a WAL replay loop, or a handler
// applying entries DecodeEntries aliased into a wire frame — can never
// corrupt stored pairs. Ownership transfers at this boundary, nowhere else.
func (t *Table) Put(e Entry) (ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return false
	}
	stored := &Entry{
		Key:       append([]byte(nil), e.Key...),
		Value:     append([]byte(nil), e.Value...),
		Tombstone: e.Tombstone,
		Owner:     e.Owner,
	}
	prev, replaced := t.tree.Put(stored.Key, stored)
	t.bytes += stored.size()
	if replaced {
		t.bytes -= prev.(*Entry).size()
	}
	return true
}

// Get returns the entry stored under key. A found tombstone is returned as
// found=true with Tombstone set: a MemTable hit on a tombstone terminates
// the search with NOT_FOUND, it must not fall through to older tables.
//
// The returned Key and Value are copies; mutating them cannot corrupt the
// table (the outbound half of Put's ownership boundary). Bulk read paths
// that stay inside the runtime — Ascend, Entries, ByOwner, CursorFrom — skip
// the copy and return aliases instead, under a documented read-only
// contract.
func (t *Table) Get(key []byte) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.tree.Get(key)
	if !ok {
		return Entry{}, false
	}
	e := *(v.(*Entry))
	e.Key = append([]byte(nil), e.Key...)
	e.Value = append([]byte(nil), e.Value...)
	return e, true
}

// Len reports the number of entries (tombstones included).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tree.Len()
}

// Bytes reports the accounted size; the runtime seals a MemTable when this
// reaches the configured capacity.
func (t *Table) Bytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// Seal marks the table immutable. Subsequent Puts fail; reads continue.
func (t *Table) Seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealed = true
}

// Sealed reports whether the table is immutable.
func (t *Table) Sealed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealed
}

// Ascend visits entries in ascending key order (the order an SSTable flush
// writes them). The callback must not mutate the table.
func (t *Table) Ascend(fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.tree.Ascend(func(_ []byte, v any) bool {
		return fn(*(v.(*Entry)))
	})
}

// Entries returns all entries in ascending key order.
func (t *Table) Entries() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, t.tree.Len())
	t.tree.Ascend(func(_ []byte, v any) bool {
		out = append(out, *(v.(*Entry)))
		return true
	})
	return out
}

// AscendFrom visits entries with Key >= start (lower-bound seek; nil/empty
// start begins at the minimum) in ascending key order, until fn returns
// false. Entries alias tree-owned memory; fn must not mutate or retain them.
func (t *Table) AscendFrom(start []byte, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.tree.AscendFrom(start, func(_ []byte, v any) bool {
		return fn(*(v.(*Entry)))
	})
}

// SnapshotRange returns the entries with lo <= Key < hi (an empty hi means
// unbounded) in ascending key order, as they stand at the time of the call.
// It is the point-in-time view a scan takes of a *mutable* table: the slice
// is immune to later Puts (a Put replaces the stored *Entry, it never
// mutates one in place), which is what gives an open iterator snapshot
// semantics over a table that keeps absorbing writes. Entry Key/Value fields
// alias table-owned memory and must be treated read-only.
func (t *Table) SnapshotRange(lo, hi []byte) []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Entry
	t.tree.AscendFrom(lo, func(k []byte, v any) bool {
		if len(hi) > 0 && bytes.Compare(k, hi) >= 0 {
			return false
		}
		out = append(out, *(v.(*Entry)))
		return true
	})
	return out
}

// Cursor is a pull-style ordered cursor over a sealed table, for k-way merge
// loops that interleave several tables. Entries alias table-owned memory.
type Cursor struct {
	c *rbtree.Cursor
}

// CursorFrom returns a cursor positioned at the first entry with Key >=
// start. The table must be sealed: the cursor walks the tree without
// locking, which is only safe because a sealed table's tree never changes
// again. Iterating a mutable table is a bug — take SnapshotRange instead.
func (t *Table) CursorFrom(start []byte) *Cursor {
	t.mu.RLock()
	sealed := t.sealed
	c := t.tree.CursorFrom(start)
	t.mu.RUnlock()
	if !sealed {
		panic("memtable: CursorFrom on an unsealed table")
	}
	return &Cursor{c: c}
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.c.Valid() }

// Entry returns the current entry; only meaningful while Valid.
func (c *Cursor) Entry() Entry { return *(c.c.Value().(*Entry)) }

// Next advances to the next entry in key order.
func (c *Cursor) Next() { c.c.Next() }

// Source returns the cursor as a merge Source that yields the entry under
// the cursor, then advances it.
func (c *Cursor) Source() Source { return (*cursorSource)(c) }

// cursorSource is a Cursor seen as a Source; the conversion allocates
// nothing.
type cursorSource Cursor

func (c *cursorSource) Next() (Entry, bool, error) {
	if !c.c.Valid() {
		return Entry{}, false, nil
	}
	e := *(c.c.Value().(*Entry))
	c.c.Next()
	return e, true, nil
}

// ByOwner groups the entries of a (sealed) remote MemTable by owner rank,
// each group in ascending key order — the message dispatcher sends one
// accumulated chunk per owner (§2.4, Migration).
func (t *Table) ByOwner() map[int][]Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int][]Entry)
	t.tree.Ascend(func(_ []byte, v any) bool {
		e := *(v.(*Entry))
		out[e.Owner] = append(out[e.Owner], e)
		return true
	})
	return out
}
