package core

// BarrierLevel is the flushing level of papyruskv_barrier (§3.1).
type BarrierLevel int

const (
	// LevelMemTable (PAPYRUSKV_MEMTABLE): all remote MemTables are
	// migrated and applied; data may still reside in local MemTables.
	LevelMemTable BarrierLevel = iota
	// LevelSSTable (PAPYRUSKV_SSTABLE): additionally, every rank flushes
	// its local and immutable local MemTables to SSTables after
	// receiving all migrated pairs, leaving a complete on-NVM image.
	LevelSSTable
)

// Fence migrates this rank's remote MemTable and every immutable remote
// MemTable still awaiting dispatch to their owner ranks immediately
// (papyruskv_fence). It returns once every owner has applied and
// acknowledged the pairs; if some owner has failed, it still drains and then
// reports that the pairs owned by the failed rank were not applied. Fence is
// not collective.
func (db *DB) Fence() error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	// readHealth, not Health: a Degraded rank still fences — migrating its
	// staged pairs out is read-side work for it (the owners do the writes)
	// and frees the WAL segments backing them, which is itself reclaim.
	if err := db.readHealth(); err != nil {
		return err
	}
	db.mu.Lock()
	if db.remoteMT.Len() > 0 {
		db.rollRemoteLocked()
	}
	db.mu.Unlock()
	// Wait until the dispatcher has sent everything sealed so far. On a rank
	// that failed meanwhile (or is closing) the unsent tables wait in place
	// for Recover, so only the table the dispatcher still holds is awaited.
	db.await(func() bool {
		stuck := db.readHealth() != nil || db.isClosing()
		db.mu.Lock()
		defer db.mu.Unlock()
		return !db.migrBusy && (db.migrPending == 0 || stuck)
	})
	if err := db.readHealth(); err != nil {
		return err
	}
	return db.anyPeerErr()
}

// Barrier is the collective memory fence of papyruskv_barrier: after it
// returns, all ranks observe the same latest database contents. With
// LevelSSTable the contents are additionally flushed to SSTables, which is
// how checkpoint builds its snapshot image.
//
// Barrier is failure-domain safe: a failed rank executes the same collective
// sequence as the healthy ranks — so nobody deadlocks waiting for it — but
// skips the fence and flush work and returns its root-cause error. Healthy
// ranks whose migrations could not reach a failed owner get that error here.
func (db *DB) Barrier(level BarrierLevel) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.maybeKill()
	// Phase 1: everyone drains outgoing migrations. Each batch is acked
	// only after the owner applied it, so once every rank passes the MPI
	// barrier, every pair is in its owner's MemTables. A Degraded rank
	// participates fully in this phase — migrating out needs no local NVM
	// writes — so only a Failed rank skips the fence.
	rankErr := db.readHealth()
	if rankErr == nil {
		rankErr = db.Fence()
	}
	if err := db.respComm.Barrier(); err != nil {
		return err
	}
	if level != LevelSSTable {
		return rankErr
	}
	// Phase 2: flush local MemTables — after receiving everyone's pairs,
	// per the paper — and wait for the flush thread to drain the list. Only
	// a Healthy rank flushes: a Degraded or Failed rank's sealed tables wait
	// in place, and it reports the incomplete flush through its Health error
	// below.
	if db.State() == StateHealthy {
		db.mu.Lock()
		if db.localMT.Len() > 0 {
			db.rollLocalLocked()
		}
		db.mu.Unlock()
	}
	// "List empty AND thread idle", not just "list empty": flushOne unlists
	// its table before it kicks compaction, and Checkpoint relies on that
	// kick preceding this return. On a rank that cannot flush (or is
	// closing) the wait is "thread idle" only, which is what lets a degraded
	// rank's Barrier and Close terminate.
	db.await(func() bool {
		stuck := db.State() != StateHealthy || db.isClosing()
		db.mu.Lock()
		defer db.mu.Unlock()
		return !db.flushBusy && (len(db.immLocal) == 0 || stuck)
	})
	if err := db.respComm.Barrier(); err != nil {
		return err
	}
	if rankErr != nil {
		return rankErr
	}
	// The flush itself may have failed — or degraded the rank, leaving
	// sealed tables unflushed — during the wait.
	return db.Health()
}

// SetConsistency changes the memory consistency mode (papyruskv_consistency).
// It is collective: the database is fenced and synchronised so that no
// staged remote data crosses the mode switch.
func (db *DB) SetConsistency(mode Consistency) error {
	if mode != Relaxed && mode != Sequential {
		return ErrInvalidArgument
	}
	if err := db.Barrier(LevelMemTable); err != nil {
		return err
	}
	db.mu.Lock()
	db.consistency = mode
	db.mu.Unlock()
	return db.respComm.Barrier()
}

// SetProtection changes the protection attribute (papyruskv_protect),
// collectively, and reconfigures the caches per §3.2:
//
//	WRONLY: the local cache is invalidated and disabled, so puts skip
//	        cache-invalidation work.
//	RDONLY: the remote cache is enabled; entries stay valid until the
//	        database becomes writable again.
//	RDWR:   the local cache is enabled; the remote cache is evicted and
//	        disabled.
func (db *DB) SetProtection(p Protection) error {
	switch p {
	case RDWR, WRONLY, RDONLY:
	default:
		return ErrInvalidArgument
	}
	// Synchronise so every rank flips together; staged remote writes are
	// migrated first so an RDONLY phase observes all prior puts.
	if err := db.Barrier(LevelMemTable); err != nil {
		return err
	}
	db.mu.Lock()
	db.protection = p
	db.applyProtection(p)
	db.mu.Unlock()
	return db.respComm.Barrier()
}

// applyProtection reconfigures the caches for protection p.
func (db *DB) applyProtection(p Protection) {
	switch p {
	case WRONLY:
		db.localCache.SetEnabled(false)
		db.remoteCache.SetEnabled(false)
	case RDONLY:
		db.localCache.SetEnabled(true)
		db.remoteCache.SetEnabled(true)
	default: // RDWR
		db.localCache.SetEnabled(true)
		db.remoteCache.SetEnabled(false)
	}
}
