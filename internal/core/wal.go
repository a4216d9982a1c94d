package core

import (
	"fmt"
	"time"

	"papyruskv/internal/memtable"
	"papyruskv/internal/wal"
)

// Write-ahead-log integration. The database keeps two log streams on its
// rank's NVM device: walLocal shadows the local MemTable (entries this rank
// owns — direct puts plus migrated and synchronous entries applied by the
// message handler) and walRemote shadows the remote MemTable (entries
// staged toward other owners). Appends happen under db.mu, in the same
// critical section as the MemTable insert, so a segment rotation — which
// also runs under db.mu, inside rollLocalLocked/rollRemoteLocked — always
// cuts both structures at the same record boundary: a sealed segment holds
// exactly its sealed table's records, and is deleted once that table's
// flush or migration commits (retireTable). One database-wide sequence counter stamps
// every record, giving replay a total order across the two streams.

// walSegRef remembers the sealed segment backing one sealed MemTable.
type walSegRef struct {
	log  *wal.Log
	name string
}

// walStream returns the requested WAL stream under db.mu. Every read of
// the stream pointers outside the mutex must come through here: Recover
// swaps them mid-run, so a bare field read from the group-commit thread or
// a commit path would race the swap.
func (db *DB) walStream(remote bool) *wal.Log {
	db.mu.Lock()
	defer db.mu.Unlock()
	if remote {
		return db.walRemote
	}
	return db.walLocal
}

// walOpen recovers both WAL streams and replays the surviving records into
// the fresh MemTables. Open calls it before the background threads start;
// Recover calls it under db.mu on a failed rank, whose health gate keeps
// every other MemTable writer out until the failure is cleared.
func (db *DB) walOpen() error {
	base := wal.Config{
		Device: db.rt.cfg.Device,
		Dir:    db.ownDir,
		Sync:   db.opt.WAL == WALSync,
		Rank:   db.rt.rank,
		Inj:    db.inj,
		Stats:  &db.metrics.WAL,
	}
	lcfg := base
	lcfg.Stream = "local"
	walLocal, localRecs, err := wal.Recover(lcfg)
	if err != nil {
		return fmt.Errorf("wal recovery (local stream): %w", err)
	}
	rcfg := base
	rcfg.Stream = "remote"
	walRemote, remoteRecs, err := wal.Recover(rcfg)
	if err != nil {
		walLocal.Close()
		return fmt.Errorf("wal recovery (remote stream): %w", err)
	}
	db.walLocal, db.walRemote = walLocal, walRemote
	db.walSegs = make(map[*memtable.Table]walSegRef)

	// Replay in global sequence order. The streams are key-disjoint (a
	// key's owner decides its stream once and for all), but seq order is
	// the order the application observed, so it is the order we rebuild.
	// Ownership is recomputed from the hash rather than trusted from the
	// record: the record format carries no owner, by design.
	var maxSeq uint64
	for _, r := range mergeBySeq(localRecs, remoteRecs) {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		owner := db.opt.Hash(r.Key, db.rt.size)
		e := memtable.Entry{Key: r.Key, Value: r.Value, Tombstone: r.Tombstone, Owner: owner}
		if owner == db.rt.rank {
			db.localMT.Put(e)
		} else {
			db.remoteMT.Put(e)
		}
	}
	db.walSeq.Store(maxSeq)
	return nil
}

// mergeBySeq merges two seq-ascending record slices into one. Each stream
// is written in seq order, so this is a plain two-way merge.
func mergeBySeq(a, b []wal.Record) []wal.Record {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]wal.Record, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// walAppendLocked logs one entry into stream l before its MemTable insert.
// Caller holds db.mu. An append failure is a durability failure: the
// caller must not insert the entry or acknowledge the put.
func (db *DB) walAppendLocked(l *wal.Log, e memtable.Entry) error {
	if l == nil {
		return nil
	}
	return l.Append(wal.Record{
		Seq:       db.walSeq.Add(1),
		Tombstone: e.Tombstone,
		Key:       e.Key,
		Value:     e.Value,
	})
}

// walCommit is the WALSync durability point: it persists stream l's
// appended records before the caller acknowledges them. In WALAsync mode
// it is a no-op — the group-commit thread persists on its own clock. A
// commit failure means the rank can no longer keep its durability promise;
// a full device degrades it to read-only (reclaim can restore it), any
// other cause fails the domain.
func (db *DB) walCommit(l *wal.Log) error {
	if l == nil || db.opt.WAL != WALSync {
		return nil
	}
	if err := l.Commit(); err != nil {
		db.failOrDegrade(fmt.Errorf("wal commit: %w", err))
		return db.Health()
	}
	return nil
}

// walRotateLocked rotates stream l alongside the roll of its MemTable and
// records which sealed segment backs the sealed table. Caller holds db.mu.
func (db *DB) walRotateLocked(l *wal.Log, sealed *memtable.Table) {
	if l == nil {
		return
	}
	name, err := l.Rotate()
	if err != nil {
		db.failOrDegrade(fmt.Errorf("wal rotate: %w", err))
	}
	if name != "" {
		db.walSegs[sealed] = walSegRef{log: l, name: name}
	}
}

// walFlushThread is the WALAsync group-commit loop: every WALFlushInterval
// it writes and fsyncs whatever both streams accumulated. (The paper's
// runtime hangs periodic work off the compaction thread; here that thread
// has no timed wake-up, so the ticker gets its own goroutine.) It
// stops when walStop closes, and goes quiet once the rank has failed.
func (db *DB) walFlushThread() {
	defer db.wg.Done()
	ticker := time.NewTicker(db.opt.WALFlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-db.walStop:
			return
		case <-ticker.C:
			// Only a Healthy rank group-commits: a Degraded one's device is
			// full, so re-driving the fsync every tick would only churn.
			if db.State() != StateHealthy {
				continue
			}
			local, remote := db.walStream(false), db.walStream(true)
			if local == nil {
				continue // recovery never produced logs to commit
			}
			if err := local.GroupCommit(); err != nil {
				db.failOrDegrade(fmt.Errorf("wal group commit: %w", err))
				continue
			}
			if err := remote.GroupCommit(); err != nil {
				db.failOrDegrade(fmt.Errorf("wal group commit: %w", err))
			}
		}
	}
}

// walClose closes both streams. A healthy rank flushes and fsyncs its tail
// (which the Close-time Barrier already emptied); a failed rank abandons
// the buffer instead — its group-commit thread died with it, so buffered
// unsynced appends are the crash's loss window, exactly what the WALAsync
// contract says may be lost. What remains in the active segments is
// exactly what the next Open replays.
func (db *DB) walClose() {
	local, remote := db.walStream(false), db.walStream(true)
	if local == nil {
		return
	}
	if db.Health() != nil {
		local.Abandon()
		remote.Abandon()
		return
	}
	// Errors are deliberately not propagated: the bytes a failed close
	// could not persist are re-replayable or already flushed, and Close's
	// return value is reserved for the run's root cause.
	_ = local.Close()
	_ = remote.Close()
}
