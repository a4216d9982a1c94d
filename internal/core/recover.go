package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"papyruskv/internal/memtable"
)

// errParkedOverflow is the degradation cause recorded when the parked-batch
// budget fills: the rank can no longer absorb undeliverable migrations, so
// it stops admitting the writes that produce them until the backlog drains.
var errParkedOverflow = errors.New("parked-batch budget exhausted")

// In-run rank recovery. Before this file, a failure was a one-way door: a
// failed rank answered errors until the job restarted, its peers' sticky
// peerFailed entries never healed, and every migration batch bound for it
// was silently abandoned the moment its circuit tripped. Now the door
// swings both ways:
//
//   - Recover heals the failed rank in place: poisoned in-memory state is
//     discarded, the WAL epoch is replayed (the same replay a restart
//     performs), the on-NVM SSTables are re-validated through the reader
//     cache, and the rank comes back under a fresh incarnation number.
//   - Peer-side, the circuit breaker (health.go) is half-open, not sticky:
//     the prober below pings tripped peers and closes the circuit when one
//     answers healthy.
//   - Undeliverable migration batches are parked, not dropped: they stay
//     queued behind the circuit (bounded by Options.ParkedBytes, their
//     MemTable and WAL segment pinned), and are redelivered in order when
//     the circuit closes. Only a budget overflow or Close converts parked
//     pairs into loss — counted in PairsLost and reported at the next
//     Fence, exactly once.

// parkedBatch is one undeliverable migration batch, held exactly as it
// would have gone onto the wire. Redelivery resends msg verbatim — same
// seq, same incarnation — so a batch that was applied but whose ack was
// lost hits the owner's dedup window and is not applied twice.
type parkedBatch struct {
	seq   uint64
	msg   []byte
	pairs int
	table *memtable.Table
}

// retainTable pins table against release: its immRemote entry and WAL
// segment survive until every parked batch drawn from it is delivered or
// declared lost. migrateOne holds a guard pin across its send loop so a
// concurrent redeliverer can never drain the count to zero mid-loop.
func (db *DB) retainTable(t *memtable.Table) {
	db.failMu.Lock()
	if db.parkedTables == nil {
		db.parkedTables = make(map[*memtable.Table]int)
	}
	db.parkedTables[t]++
	db.failMu.Unlock()
}

// releaseTableRef drops one pin; the last drop retires the table: off the
// get-visible immutable remote list, WAL segment deleted. Must not be called
// with failMu or db.mu held.
func (db *DB) releaseTableRef(t *memtable.Table) {
	db.failMu.Lock()
	db.parkedTables[t]--
	last := db.parkedTables[t] <= 0
	if last {
		delete(db.parkedTables, t)
	}
	db.failMu.Unlock()
	if last {
		db.retireTable(&db.immRemote, t)
	}
}

// tryPark parks b when owner's circuit is open, or when batches are already
// parked for owner (a batch must queue behind them: per-source batch order
// is the owner's apply order, and the earlier batches have not applied
// yet). Returns false when the caller should send normally. The check and
// the park are one failMu critical section, so a probe closing the circuit
// in between cannot strand the batch without a redeliverer.
func (db *DB) tryPark(owner int, b parkedBatch) bool {
	db.failMu.Lock()
	defer db.failMu.Unlock()
	st := db.peerLocked(owner)
	if !st.open && len(st.parked) == 0 {
		return false
	}
	db.parkLocked(st, owner, b)
	return true
}

// parkFailed trips owner's circuit with err and parks b behind it, in one
// failMu critical section — between a failed send and a separate park, a
// probe could close the circuit and drain the queue, leaving b parked with
// no redeliverer.
func (db *DB) parkFailed(owner int, err error, b parkedBatch) {
	db.failMu.Lock()
	st := db.peerLocked(owner)
	if !st.open {
		st.open = true
		st.cause = err
		db.metrics.CircuitsOpened.Add(1)
	}
	db.parkLocked(st, owner, b)
	db.failMu.Unlock()
}

// parkLocked appends b to owner's parked queue if the budget admits it;
// past the budget (or with parking disabled) the batch's pairs become
// counted, Fence-reported loss — the bounded degradation the budget exists
// to enforce. Caller holds db.failMu.
func (db *DB) parkLocked(st *peerCircuit, owner int, b parkedBatch) {
	cost := int64(len(b.msg))
	if db.opt.ParkedBytes < 0 || db.parkedBytesUsed+cost > db.opt.ParkedBytes {
		cause := st.cause
		if cause == nil {
			cause = errParkedOverflow
		}
		db.lostLocked(owner, fmt.Errorf("%w (%d bytes): %w",
			errParkedOverflow, db.opt.ParkedBytes, cause), b.pairs)
		db.metrics.ParkOverflows.Add(1)
		if db.opt.ParkedBytes >= 0 {
			// The budget overflowed: degrade to read-only so new writes stop
			// feeding an outbox that can only convert them into loss. With
			// parking deliberately disabled (negative budget) loss is the
			// configured policy, so no degradation. tryReclaim heals once the
			// backlog drains below half the budget.
			db.degradeLocked(fmt.Errorf("%w (budget %d bytes)", errParkedOverflow, db.opt.ParkedBytes))
		}
		return
	}
	st.parked = append(st.parked, b)
	db.parkedBytesUsed += cost
	if db.parkedTables == nil {
		db.parkedTables = make(map[*memtable.Table]int)
	}
	db.parkedTables[b.table]++
	db.metrics.ParkedBatches.Add(1)
}

// proberThread is the half-open side of the circuit breaker: every
// ProbeInterval it pings each peer whose circuit is open, and a healthy
// answer closes the circuit and redelivers the parked backlog. It also
// re-drives redelivery for closed circuits with a backlog, so no missed
// wakeup can strand a parked batch. The same tick drives this rank's own
// reclaim probe while it is Degraded. A failed rank does neither — its
// domain is down, and Recover restarts the duty by clearing the failure; a
// Degraded rank keeps probing peers, because migrating out is exactly the
// work that frees its space. With probing off (a negative ProbeInterval) the
// thread still ticks at the default period, to reap idle remote scans.
func (db *DB) proberThread() {
	defer db.wg.Done()
	probing := db.opt.ProbeInterval > 0
	interval := db.opt.ProbeInterval
	if !probing {
		interval = DefaultOptions().ProbeInterval
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-db.closing:
			return
		case <-ticker.C:
			// Reap idle remote scans first, and regardless of this rank's
			// health or probing: an abandoned consumer's pinned snapshot
			// must not outlive the timeout just because this rank failed
			// meanwhile, or probes are off.
			db.expireScans()
			if !probing || db.readHealth() != nil {
				continue
			}
			if db.State() == StateDegraded {
				// Best effort; the cause may not have cleared yet.
				_ = db.tryReclaim()
			}
			open, backlogged := db.circuitRanks()
			for _, r := range open {
				db.probe(r)
			}
			for _, r := range backlogged {
				db.redeliver(r)
			}
		}
	}
}

// tryReclaim tests whether this rank's degradation cause has cleared and,
// if so, heals it back to Healthy: waiting flushes resume, stalled puts
// admit again, and the next peer ping answered statusOK triggers redelivery
// of everything parked for this rank. The test matches the cause: a
// parked-budget overflow heals once the backlog has drained below half the
// budget (hysteresis — healing at exactly the rim would flap), while a
// device exhaustion heals when a probe write round-trips, proving space was
// reclaimed by compaction, migration, segment GC, or the application.
func (db *DB) tryReclaim() error {
	db.failMu.Lock()
	cause := db.degradedErr
	backlogHigh := db.opt.ParkedBytes >= 0 && db.parkedBytesUsed*2 > db.opt.ParkedBytes
	db.failMu.Unlock()
	if cause == nil {
		return nil
	}
	if errors.Is(cause, errParkedOverflow) {
		if backlogHigh {
			return fmt.Errorf("papyruskv: reclaim: %w", cause)
		}
	} else if err := db.probeDevice(); err != nil {
		return fmt.Errorf("papyruskv: reclaim: device still refuses writes: %w", err)
	}
	db.heal()
	return nil
}

// probeDevice tests writability by round-tripping a tiny file through this
// rank's directory on the device — the same path flushes and WAL segments
// take, so its verdict is theirs.
func (db *DB) probeDevice() error {
	name := db.ownDir + "/reclaim.probe"
	if err := db.rt.cfg.Device.WriteFile(name, []byte("probe")); err != nil {
		return err
	}
	return db.rt.cfg.Device.Remove(name)
}

// Reclaim is the application's hook into the reclaim probe: after freeing
// space (deleting checkpoints, trimming the device), calling it re-tests
// writability immediately instead of waiting for the prober's next tick. It
// returns nil once the rank is Healthy — including when it already was —
// and the blocking cause while degradation persists. A Failed rank is not
// reclaimed; that is Recover's job.
func (db *DB) Reclaim() error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	if err := db.readHealth(); err != nil {
		return err
	}
	if db.State() == StateHealthy {
		return nil
	}
	return db.tryReclaim()
}

// circuitRanks snapshots the peers with open circuits and the closed ones
// still holding a parked backlog, each sorted for a deterministic probe
// order.
func (db *DB) circuitRanks() (open, backlogged []int) {
	db.failMu.Lock()
	for r, st := range db.peers {
		switch {
		case st.open:
			open = append(open, r)
		case len(st.parked) > 0:
			backlogged = append(backlogged, r)
		}
	}
	db.failMu.Unlock()
	sort.Ints(open)
	sort.Ints(backlogged)
	return open, backlogged
}

// probe sends one ping to rank r and closes its circuit if r answers
// healthy within the retry timeout. A silent or unhealthy r leaves the
// circuit open for the next tick — probing is the only traffic a tripped
// peer costs, and the tick is the ping's retry.
func (db *DB) probe(r int) {
	seq := db.sendSeq.Add(1)
	db.metrics.ProbesSent.Add(1)
	_, inc, err := db.call(context.Background(), r, tagPing, tagPingAck, seq, encodePing(seq, db.incarnation.Load()), nil)
	if err != nil || len(inc) != 4 {
		return
	}
	db.closeCircuit(r, binary.LittleEndian.Uint32(inc))
}

// closeCircuit closes rank r's circuit on proof of life, records the
// incarnation the proof carried, and redelivers the parked backlog.
func (db *DB) closeCircuit(r int, inc uint32) {
	db.failMu.Lock()
	st := db.peerLocked(r)
	wasOpen := st.open
	st.open = false
	st.cause = nil
	changed := inc != 0 && st.inc != 0 && st.inc != inc
	if inc != 0 {
		st.inc = inc
	}
	db.failMu.Unlock()
	if wasOpen {
		db.metrics.CircuitsClosed.Add(1)
	}
	if changed {
		// The peer was reborn: acks remembered against its previous life
		// must not replay against the seqs its new life allocates.
		db.dedup.reset(r)
	}
	db.redeliver(r)
}

// redeliver drains rank r's parked queue in park order while its circuit
// stays closed. Each batch goes out verbatim (same seq, same incarnation):
// one already applied before the failure is absorbed by r's dedup window.
// A failed send re-trips the circuit and leaves the remaining queue for the
// next recovery. Concurrent redeliverers for one rank are safe — both may
// send the front batch (deduplicated at r), but the seq guard lets only one
// pop it.
func (db *DB) redeliver(r int) {
	for {
		db.failMu.Lock()
		st := db.peers[r]
		if st == nil || st.open || len(st.parked) == 0 {
			db.failMu.Unlock()
			return
		}
		b := st.parked[0]
		db.failMu.Unlock()

		if _, _, err := db.call(context.Background(), r, tagMigBatch, tagMigAck, b.seq, b.msg, &db.metrics.MigrationRetries); err != nil {
			db.peerFail(r, err)
			return
		}

		db.failMu.Lock()
		popped := len(st.parked) > 0 && st.parked[0].seq == b.seq
		if popped {
			// Copy-shrink rather than reslice: a reslice would pin the
			// backing array of every batch already delivered.
			st.parked = append([]parkedBatch(nil), st.parked[1:]...)
			db.parkedBytesUsed -= int64(len(b.msg))
		}
		db.failMu.Unlock()
		if popped {
			db.metrics.Migrations.Add(1)
			db.metrics.MigratedPairs.Add(uint64(b.pairs))
			db.metrics.RedeliveredBatches.Add(1)
			db.releaseTableRef(b.table)
		}
	}
}

// Recover heals this rank after a failure, in place, without restarting the
// job. It is the in-run counterpart of a kill-and-reopen: every structure
// the failure may have poisoned is discarded and rebuilt from NVM.
//
//   - In-memory state (MemTables, immutable lists, block caches) is
//     dropped; the WAL epoch is replayed into fresh MemTables, so every
//     acknowledged put whose durability point had passed is restored —
//     the same guarantee, through the same replay, as a process restart.
//   - The rank's SSTables are re-listed and each one's bloom filter and
//     index re-validated by loading a fresh read-view handle on it, so
//     damage the failure left on NVM surfaces here as a typed error, not
//     later as a corrupt read.
//   - The rank's incarnation number advances (the replayed WAL epoch is
//     the incarnation, so it is monotonic across restarts and in-run
//     recoveries alike); peers learn it from the next ping or request and
//     scope their dedup windows to it.
//
// On success the failure is cleared and the rank serves again; the peers'
// probers notice within a probe interval and redeliver what they parked.
// On error the rank stays failed and Recover can be retried. Operations in
// flight across the failure are indeterminate — exactly like puts in
// flight across a crash — and WALDisabled recovery loses every
// MemTable-resident pair, parked batches included (they are counted into
// PairsLost; with the WAL on, their pinned segments replay and re-migrate
// them instead).
func (db *DB) Recover() error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	// Only a Failed rank needs the full rebuild; a merely Degraded one has
	// nothing poisoned — Reclaim is its exit from the ladder.
	if db.readHealth() == nil {
		return nil
	}

	// The background threads claim nothing new while the rank is failed, so
	// this waits only for a flush or migration already in flight. The "no
	// thread holds a table" check and the drop of the lists are ONE db.mu
	// critical section, and a thread claims its table under db.mu, so a
	// claim can never land between the two: afterwards no flush or migration
	// references the tables dropped here.
	db.await(func() bool {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.flushBusy || db.migrBusy {
			return false
		}
		if w := db.wal.Load(); w != nil {
			// Abandon, not Close: the group-commit thread of a failed rank
			// is as dead as the rest of it, and whatever never reached the
			// device is the crash's loss window. What did reach it replays
			// below.
			w.local.Abandon()
			w.remote.Abandon()
			db.wal.Store(nil)
		}
		db.localMT = memtable.New()
		db.remoteMT = memtable.New()
		db.immLocal, db.immRemote, db.migrPending = nil, nil, 0
		db.walSegs = make(map[*memtable.Table]walSegRef)
		return true
	})
	db.localCache.Clear()
	db.remoteCache.Clear()

	// Drop this rank's own parked backlog. With the WAL on this loses
	// nothing: the batches' pinned segments are still on the device, and
	// the replay below resurrects their pairs into the fresh remote
	// MemTable for re-migration. Without it the pairs die with the rest of
	// the MemTable-resident state — count them as the loss they are.
	db.failMu.Lock()
	for owner, st := range db.peers {
		if len(st.parked) == 0 {
			continue
		}
		if db.opt.WAL == WALDisabled {
			var pairs int
			for _, b := range st.parked {
				pairs += b.pairs
			}
			db.lostLocked(owner, fmt.Errorf("parked batches dropped by recovery with the WAL disabled"), pairs)
		}
		st.parked = nil
	}
	db.parkedBytesUsed = 0
	db.parkedTables = nil
	db.failMu.Unlock()

	// Recompose the on-NVM image from the manifest log before trusting it:
	// a fresh Open replays the log, quarantines any orphan the failure's
	// last transition left behind, and — validate=true, the Recover path —
	// re-checks every listed table's bloom filter and index CRCs by opening
	// a fresh handle on it; the handles validated before the damage leave
	// with the old view, and the peers' cached readers are evicted. The old
	// manifest handle is as dead as the rest of the failed rank; close it
	// first.
	db.readers.EvictDir(db.ownDir)
	db.manifestClose()
	if err := db.manifestOpen(true); err != nil {
		return fmt.Errorf("papyruskv: recover rank %d: %w", db.rt.rank, err)
	}

	if db.opt.WAL != WALDisabled {
		db.mu.Lock()
		err := db.walOpen()
		db.mu.Unlock()
		if err != nil {
			return fmt.Errorf("papyruskv: recover rank %d: %w", db.rt.rank, err)
		}
		db.incarnation.Store(db.wal.Load().local.Epoch())
	} else {
		db.incarnation.Add(1)
	}

	db.failMu.Lock()
	db.failedErr.Store(nil)
	// Any degradation predating the failure died with the state it described.
	db.degradedErr = nil
	// Gauge store under failMu, like heal: it must not race a concurrent
	// degradeLocked's Store(1).
	db.metrics.Degraded.Store(0)
	db.failMu.Unlock()
	db.wakeAll()
	db.metrics.Recoveries.Add(1)
	return nil
}

// abandonParked converts every still-parked batch into counted loss at
// Close: the database is going away, so "awaiting recovery" has no future
// to wait for. Returns the drained loss error (also what a last Fence would
// have reported) so Close can surface it.
func (db *DB) abandonParked() error {
	db.failMu.Lock()
	var tables []*memtable.Table
	for owner, st := range db.peers {
		if len(st.parked) == 0 {
			continue
		}
		var pairs int
		for _, b := range st.parked {
			pairs += b.pairs
			tables = append(tables, b.table)
		}
		cause := st.cause
		if cause == nil {
			cause = fmt.Errorf("database closed before redelivery")
		}
		db.lostLocked(owner, fmt.Errorf("parked batches abandoned at close: %w", cause), pairs)
		st.parked = nil
	}
	db.parkedBytesUsed = 0
	db.failMu.Unlock()
	for _, t := range tables {
		db.releaseTableRef(t)
	}
	return db.takeLossErr()
}
