package core

import (
	"context"
	"fmt"

	"papyruskv/internal/memtable"
	"papyruskv/internal/wal"
)

// Put inserts or updates a key-value pair (papyruskv_put). The owner rank is
// the hash of the key modulo the rank count. A local put inserts into the
// local MemTable; a remote put is staged in the remote MemTable (relaxed
// mode) or migrated synchronously to its owner (sequential mode), per
// Figure 2.
func (db *DB) Put(key, value []byte) error {
	return db.put(context.Background(), key, value, false)
}

// PutCtx is Put with a caller-supplied deadline or cancellation: the
// context's expiry unblocks an admission-control stall or a sequential-mode
// send awaiting a slow owner, returning the context's error wrapped for
// errors.Is. A Background context makes it identical to Put.
func (db *DB) PutCtx(ctx context.Context, key, value []byte) error {
	return db.put(ctx, key, value, false)
}

// Delete removes the pair for key (papyruskv_delete): a put of a zero-length
// value with the tombstone bit set (§2.5).
func (db *DB) Delete(key []byte) error {
	return db.put(context.Background(), key, nil, true)
}

// DeleteCtx is Delete with a caller-supplied deadline or cancellation.
func (db *DB) DeleteCtx(ctx context.Context, key []byte) error {
	return db.put(ctx, key, nil, true)
}

func (db *DB) put(ctx context.Context, key, value []byte, tombstone bool) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrInvalidArgument)
	}
	db.maybeKill()
	// Health is the write gate: a Degraded rank refuses writes with
	// ErrReadOnly here while Get keeps serving through readHealth.
	if err := db.Health(); err != nil {
		return err
	}
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return ErrInvalidDB
	}
	if db.protection == RDONLY {
		db.mu.Unlock()
		return ErrProtected
	}
	mode := db.consistency
	db.mu.Unlock()

	owner := db.opt.Hash(key, db.rt.size)
	e := memtable.Entry{Key: key, Value: value, Tombstone: tombstone, Owner: owner}

	if owner == db.rt.rank {
		if err := db.admitWrite(ctx, false); err != nil {
			return err
		}
		db.metrics.PutsLocal.Add(1)
		return db.putLocal(e)
	}
	if mode == Sequential {
		db.metrics.PutsSync.Add(1)
		return db.putSync(ctx, owner, e)
	}
	if err := db.admitWrite(ctx, true); err != nil {
		return err
	}
	db.metrics.PutsRemote.Add(1)
	return db.putRemote(e)
}

// putLocal inserts an entry this rank owns into the local MemTable, with
// full WAL discipline: the record is logged before the insert and — in
// WALSync mode — persisted before the caller sees success.
func (db *DB) putLocal(e memtable.Entry) error {
	l, err := db.putLocalBatch([]memtable.Entry{e})
	if err != nil {
		return err
	}
	return db.walCommit(l)
}

// putLocalBatch inserts entries this rank owns into the local MemTable
// under one db.mu hold, sealing the MemTable onto the flushing queue
// whenever it reaches capacity — between two entries, so one batch may roll
// it more than once. Each entry is appended to the local WAL stream in the
// same critical section as its insert, but not committed: the caller
// chooses the durability point (walCommit of the returned stream per put,
// per batch, or the group-commit thread's tick). The local-cache entries of
// the inserted keys are invalidated once the inserts have landed — after,
// not before, so a get that read an older value out of an SSTable cannot
// cache it over them (lru.Cache.Fill). The application thread calls it with
// one entry; the message handler with a migrated batch or a synchronous
// remote put.
func (db *DB) putLocalBatch(entries []memtable.Entry) (*wal.Log, error) {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return nil, ErrInvalidDB
	}
	var logged *wal.Log
	var err error
	n := 0
	for ; n < len(entries); n++ {
		e := entries[n]
		if logged, err = db.walAppendLocked(false, e); err != nil {
			break
		}
		db.localMT.Put(e)
		if db.localMT.Bytes() >= db.opt.MemTableCapacity {
			db.rollLocalLocked()
		}
	}
	db.mu.Unlock()
	for _, e := range entries[:n] {
		db.localCache.Invalidate(e.Key)
	}
	if err != nil {
		// A full WAL device degrades the rank to read-only instead of
		// failing it: the data already accepted stays fully readable.
		db.failOrDegrade(fmt.Errorf("wal append: %w", err))
		return nil, db.Health()
	}
	return logged, nil
}

// rollLocalLocked seals the local MemTable onto the tail of immLocal — which
// both makes it visible to gets and queues it for the flush thread (the
// paper's §2.4 back-pressure lives in admitWrite, with a bound) — installs a
// fresh mutable table, and rotates the local WAL stream at the same record
// boundary. Caller holds db.mu.
func (db *DB) rollLocalLocked() {
	sealed := db.localMT
	sealed.Seal()
	db.immLocal = append(db.immLocal, sealed)
	db.localMT = memtable.New()
	db.walRotateLocked(false, sealed)
	db.wakeAll()
}

// putRemote stages a remote-owned entry in the remote MemTable (relaxed
// consistency), sealing it onto the migration queue at capacity. The entry
// is WAL-logged in the remote stream first: the application's Put returns
// success before the pair reaches its owner, so the promise must already
// be on this rank's NVM.
func (db *DB) putRemote(e memtable.Entry) error {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return ErrInvalidDB
	}
	l, err := db.walAppendLocked(true, e)
	if err != nil {
		db.mu.Unlock()
		db.failOrDegrade(fmt.Errorf("wal append: %w", err))
		return db.Health()
	}
	db.remoteMT.Put(e)
	if db.remoteMT.Bytes() >= db.opt.MemTableCapacity {
		db.rollRemoteLocked()
	}
	db.mu.Unlock()
	return db.walCommit(l)
}

// rollRemoteLocked is rollLocalLocked's twin for the remote MemTable:
// immRemote's tail is the dispatcher's queue. Caller holds db.mu.
func (db *DB) rollRemoteLocked() {
	sealed := db.remoteMT
	sealed.Seal()
	db.immRemote = append(db.immRemote, sealed)
	db.migrPending++
	db.remoteMT = memtable.New()
	db.walRotateLocked(true, sealed)
	db.wakeAll()
}

// putSync sends a single put/delete directly and synchronously to the owner
// rank (sequential consistency, Figure 2): the caller halts until the
// owner's message handler acknowledges the migration. The request is
// deduplicated at the owner, so a retried or duplicated message still applies
// the put exactly once. Errors are returned to the caller; they do not fail
// this rank's domain. An owner that refused the write because it is Degraded
// surfaces as a typed ErrReadOnly — and does not trip the circuit, since a
// read-only owner is still alive and answering.
func (db *DB) putSync(ctx context.Context, owner int, e memtable.Entry) error {
	seq := db.sendSeq.Add(1)
	msg := seqFrame(seq, db.incarnation.Load(), []memtable.Entry{e})
	// Retries are charged to PutSyncRetries: sequential puts are an
	// application-visible latency path and must not pollute the migration
	// counter the relaxed-mode experiments assert on.
	_, _, err := db.request(ctx, owner, tagPutOne, tagPutAck, seq, msg, &db.metrics.PutSyncRetries)
	return err
}
