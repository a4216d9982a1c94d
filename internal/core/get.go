package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"papyruskv/internal/memtable"
	"papyruskv/internal/sstable"
)

// Get retrieves the value for key (papyruskv_get), following the search
// order of Figure 3. The returned slice is the caller's to keep.
func (db *DB) Get(key []byte) ([]byte, error) {
	return db.get(context.Background(), key)
}

// GetCtx is Get with a caller-supplied deadline or cancellation: the
// context's expiry unblocks a remote get waiting out the retry ladder
// against a dead or slow owner, returning the context's error wrapped for
// errors.Is. A Background context makes it identical to Get.
func (db *DB) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	return db.get(ctx, key)
}

func (db *DB) get(ctx context.Context, key []byte) ([]byte, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("%w: empty key", ErrInvalidArgument)
	}
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	db.maybeKill()
	// readHealth, not Health: a Degraded (read-only) rank keeps serving
	// gets from its MemTables and SSTables; only a Failed rank refuses.
	if err := db.readHealth(); err != nil {
		return nil, err
	}
	owner := db.opt.Hash(key, db.rt.size)
	if owner == db.rt.rank {
		db.metrics.GetsLocal.Add(1)
		val, tomb, found, err := db.getLocalFull(key)
		if err != nil {
			return nil, err
		}
		if !found || tomb {
			return nil, ErrNotFound
		}
		return copyValue(val), nil
	}
	db.metrics.GetsRemote.Add(1)
	val, err := db.getRemote(ctx, owner, key)
	if err != nil {
		return nil, err
	}
	return copyValue(val), nil
}

// copyValue detaches a result from the runtime's internal storage: the
// caller owns the returned slice (papyruskv_get allocates a fresh region),
// so mutating it must never corrupt MemTables or caches.
func copyValue(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// memGet searches one side's MemTables newest first: the mutable table,
// then the immutable list tail to head. Caller holds db.mu.
func memGet(mt *memtable.Table, imm []*memtable.Table, key []byte) (memtable.Entry, bool) {
	if e, ok := mt.Get(key); ok {
		return e, true
	}
	for i := len(imm) - 1; i >= 0; i-- {
		if e, ok := imm[i].Get(key); ok {
			return e, true
		}
	}
	return memtable.Entry{}, false
}

// getMemory searches this rank's in-memory local structures: its MemTables
// newest first, then the local cache. hit=true means the search is decided
// (found may still be a tombstone); hit=false means fall through to the
// SSTables.
func (db *DB) getMemory(key []byte) (val []byte, tomb, hit bool) {
	db.mu.Lock()
	e, ok := memGet(db.localMT, db.immLocal, key)
	db.mu.Unlock()
	if ok {
		db.metrics.MemTableHits.Add(1)
		return e.Value, e.Tombstone, true
	}

	if v, found, ok := db.localCache.Get(key); ok {
		db.metrics.LocalCacheHits.Add(1)
		return v, !found, true // a cached negative result acts as a tombstone
	}
	return nil, false, false
}

// getLocalFull is the complete local get: memory structures, then the
// SSTables on NVM, highest SSID first. Values found in SSTables are
// promoted into the local cache (Figure 3).
func (db *DB) getLocalFull(key []byte) (val []byte, tomb, found bool, err error) {
	if v, t, hit := db.getMemory(key); hit {
		return v, t, true, nil
	}
	val, tomb, found, err = db.searchOwnSSTables(key)
	if err != nil {
		return nil, false, false, err
	}
	if found {
		db.metrics.SSTableHits.Add(1)
		if !tomb {
			db.localCache.Put(key, val, true)
		}
	}
	return val, tomb, found, nil
}

// searchOwnSSTables probes this rank's candidate tables for key — every L0
// table covering it newest first, then at most one table per deeper level —
// through the pinned view's handles (view.go). The pin keeps every candidate's
// files in place, so the search cannot race compaction. SequentialSearch,
// Figure 8's baseline, reads each table by name instead and keeps paying the
// device costs the handles save.
func (db *DB) searchOwnSSTables(key []byte) (val []byte, tomb, found bool, err error) {
	v := db.pinView()
	var probes, hits uint64
	for t := range v.tables(key, key, true) {
		probes++
		if db.opt.SearchMode == sstable.SequentialSearch {
			val, tomb, found, err = sstable.Get(db.rt.cfg.Device, db.ownDir, t.SSID, key, sstable.SequentialSearch, db.opt.UseBloom)
		} else {
			var tbl *sstable.Table
			var hit bool
			if tbl, hit, err = t.h.table(); err == nil {
				if hit {
					hits++
				}
				val, tomb, found, err = tbl.Get(key, db.opt.UseBloom)
			}
		}
		if err != nil || found {
			break
		}
	}
	db.unpinView(v)
	db.metrics.SSTableProbes.Add(probes)
	if hits > 0 {
		db.metrics.Readers.Hits.Add(hits)
	}
	return val, tomb, found, err
}

// searchSSTableList probes a storage-group peer's tables — ids, in the
// recency order the owner's statusShare answer listed them — through the
// device's reader cache, with the configured search mode and bloom usage.
// The owner may compact a listed table away before this read reaches it:
// that surfaces as fs.ErrNotExist, and the table's cache entry (possibly a
// stale positive, possibly the negative entry this very probe just created)
// is evicted before the error propagates, so the caller's re-ask starts
// clean.
func (db *DB) searchSSTableList(dir string, ids []uint64, key []byte) ([]byte, bool, bool, error) {
	for _, id := range ids {
		db.metrics.SSTableProbes.Add(1)
		val, tomb, found, err := db.readers.Get(dir, id, key, db.opt.SearchMode, db.opt.UseBloom)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				db.readers.Evict(dir, id)
			}
			return nil, false, false, err
		}
		if found {
			return val, tomb, true, nil
		}
	}
	return nil, false, false, nil
}

// getRemote performs a remote get: the remote MemTable, immutable remote
// MemTables (newest first), and remote cache are consulted before a request
// message crosses the network to the owner's message handler. Within a
// storage group the handler answers "search my SSTables yourself" instead
// of shipping the value (§2.7).
func (db *DB) getRemote(ctx context.Context, owner int, key []byte) ([]byte, error) {
	// Remote-side staging only exists in relaxed mode, but checking is
	// harmless (empty tables) in sequential mode.
	db.mu.Lock()
	e, ok := memGet(db.remoteMT, db.immRemote, key)
	db.mu.Unlock()
	if ok {
		return remoteEntryResult(e)
	}

	if v, found, ok := db.remoteCache.Get(key); ok {
		db.metrics.RemoteCacheHits.Add(1)
		if !found {
			return nil, ErrNotFound
		}
		return v, nil
	}

	// A shared-SSTable search that races the owner's compaction re-asks it
	// for a fresh table list.
	var raced error
	for ask := 0; ask < 3; ask++ {
		seq := db.sendSeq.Add(1)
		req := encodeGetRequest(getRequest{Seq: seq, Key: key, Group: db.rt.group})
		status, val, err := db.request(ctx, owner, tagGet, tagGetResp, seq, req, &db.metrics.GetRetries)
		if err != nil {
			return nil, err
		}
		if status == statusShare {
			// The pair is not in the owner's memory, but its SSTables live on
			// NVM this rank shares: read them directly, no value transfer.
			ids, err := decodeSSIDs(val)
			if err != nil {
				return nil, err
			}
			var tomb, found bool
			val, tomb, found, err = db.searchSSTableList(db.dir(owner), ids, key)
			if errors.Is(err, fs.ErrNotExist) {
				raced = err
				continue // compaction deleted a table under us; re-ask
			}
			if err != nil {
				return nil, err
			}
			db.metrics.SharedSSTReads.Add(1)
			status = statusOK
			if !found || tomb {
				status = statusAbsent
			}
		}
		// A value read from the shared tables belongs in the remote cache
		// exactly like one shipped by the owner: the key is remote-owned,
		// and only remote caching is invalidated when the owner's updates
		// become visible (applyProtection). The local cache, whose entries
		// only local puts invalidate, would serve the owner's later
		// overwrites stale forever.
		if status == statusAbsent {
			db.remoteCache.Put(key, nil, false)
			return nil, ErrNotFound
		}
		db.remoteCache.Put(key, val, true)
		return val, nil
	}
	return nil, fmt.Errorf("papyruskv: shared SSTable search kept racing compaction: %w", raced)
}

// remoteEntryResult resolves a hit in the remote-side staging MemTables.
// The returned slice still aliases the MemTable entry: ownership transfers
// at exactly one boundary, Get's copyValue at the API return edge (the same
// discipline handleGet relies on, where encodeReply copies at the wire
// edge).
func remoteEntryResult(e memtable.Entry) ([]byte, error) {
	if e.Tombstone {
		return nil, ErrNotFound
	}
	return e.Value, nil
}
