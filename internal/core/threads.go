package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"papyruskv/internal/manifest"
	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/sstable"
	"papyruskv/internal/wal"
)

// compactionThread is the paper's compaction thread, reduced to its flush
// half: over and over it writes the oldest sealed local MemTable — immLocal[0],
// the head of the flushing queue — as a new L0 SSTable on NVM (§2.4
// Flushing). Merging moved to the leveled compaction workers (compact.go); a
// flush that fills L0 past its trigger kicks them.
//
// It works only while the rank is Healthy. A flush that degrades the rank
// (ENOSPC) leaves its table at the head of the list, and a Degraded or Failed
// rank's tables wait there too, until heal wakes the thread or Recover drops
// them — so the next table flushed is always the oldest one sealed. The
// thread exits once Close has begun and nothing it may flush is left.
func (db *DB) compactionThread() {
	defer db.wg.Done()
	for {
		var table *memtable.Table
		db.await(func() bool {
			healthy := db.State() == StateHealthy
			db.mu.Lock()
			defer db.mu.Unlock()
			if healthy && len(db.immLocal) > 0 {
				table, db.flushBusy = db.immLocal[0], true
				return true
			}
			return db.isClosing()
		})
		if table == nil {
			return
		}
		db.maybeKill()
		// Re-checked after the claim: the kill above, or a failure since the
		// claim's own look, must keep this thread off the device.
		if db.State() == StateHealthy {
			db.flushOne(table)
		}
		db.idle(&db.flushBusy)
	}
}

// flushOne writes one sealed MemTable as a new SSTable, publishes it, drops
// the MemTable from the get-visible immutable list, and kicks compaction if
// due. A failed flush is triaged by cause: resource exhaustion (ENOSPC)
// degrades the rank to read-only — the MemTable stays at the head of the
// immutable list, readable and WAL-backed, awaiting reclaim — while any other
// write error fails the domain outright.
func (db *DB) flushOne(table *memtable.Table) {
	dir := db.ownDir

	db.sstMu.Lock()
	ssid := db.nextSSID
	db.nextSSID++
	db.sstMu.Unlock()

	entries := table.Entries()
	w, err := sstable.NewWriter(db.rt.cfg.Device, dir, ssid, len(entries))
	var meta sstable.Meta
	if err == nil {
		meta, err = w.WriteAll(entries)
	}
	if err != nil {
		db.failOrDegrade(fmt.Errorf("flush of SSTable %d: %w", ssid, err))
		return
	}
	// Commit the table to the manifest before publishing it and — crucially
	// — before retireTable below deletes the records that shadow it. A
	// crash here leaves the written files unlisted: orphans quarantined on
	// reopen, with the WAL segment still replaying every pair.
	if err := db.manifestApply(manifest.Edit{Add: []manifest.TableMeta{tableMetaOf(meta)}}); err != nil {
		db.failOrDegrade(fmt.Errorf("manifest commit of SSTable %d: %w", ssid, err))
		return
	}
	db.metrics.Flushes.Add(1)

	tm := tableMetaOf(meta) // Level 0: a flushed MemTable always lands on L0
	h := db.writtenHandle(w, ssid)
	db.sstMu.Lock()
	if len(db.levels) == 0 {
		db.levels = append(db.levels, nil)
	}
	db.levels[0] = append(db.levels[0], tm)
	db.publishLocked(nil, h)
	due := db.opt.CompactionEvery > 0 && uint64(len(db.levels[0])) >= db.opt.CompactionEvery
	db.sstMu.Unlock()

	// The flushed MemTable's data is now reachable via the SSTable, which
	// has taken over its durability.
	db.retireTable(&db.immLocal, table)

	if due {
		// Score-driven trigger, decoupled from the flush path: the workers
		// pick and run the job, so a slow merge never stalls flushing.
		db.kickCompact()
	}
}

// dispatcherThread is the paper's message dispatcher: over and over it takes
// the oldest sealed remote MemTable it has not sent yet, groups its pairs by
// owner rank, and sends one accumulated chunk per owner, retrying until the
// owner acknowledges application (§2.4 Migration). A sent table can linger on
// immRemote while a parked batch pins it, so "not sent yet" is the list's
// tail: its last migrPending tables.
//
// A Degraded rank keeps migrating — sending frees the batches' WAL segments,
// which is itself reclaim — so the gate is readHealth, not Health. A Failed
// rank's tables wait in place for Recover, which drops both lists and zeroes
// the count; that is also why a table claimed but left unsent by the re-check
// below needs no un-claim. The thread exits once Close has begun and nothing
// it may send is left.
func (db *DB) dispatcherThread() {
	defer db.wg.Done()
	for {
		var table *memtable.Table
		db.await(func() bool {
			failed := db.readHealth() != nil
			db.mu.Lock()
			defer db.mu.Unlock()
			if !failed && db.migrPending > 0 {
				table, db.migrBusy = db.immRemote[len(db.immRemote)-db.migrPending], true
				db.migrPending--
				return true
			}
			return db.isClosing()
		})
		if table == nil {
			return
		}
		db.maybeKill()
		if db.readHealth() == nil {
			db.migrateOne(table)
		}
		db.idle(&db.migrBusy)
	}
}

// migrateOne delivers one sealed remote MemTable, batch per owner, through
// the reliable request path: each batch carries a sequence number and the
// sender's incarnation, is retried on ack timeout, and is deduplicated at
// the owner, so a batch that raced a lost or duplicated message is still
// applied exactly once. An owner that stays silent past the retry budget,
// or answers with an error, trips its circuit breaker — and the batch is
// parked behind the circuit, not abandoned: redelivery runs when a probe
// proves the owner back (recover.go). Owners are visited in rank order so
// a given run parks and sends deterministically.
//
// The table is released through the parked-batch refcount: it leaves the
// get-visible immutable list, and its WAL segment is deleted, only when no
// parked batch still needs either — a parked pair stays readable on this
// rank and replayable from its segment until it is applied or declared
// lost.
func (db *DB) migrateOne(table *memtable.Table) {
	db.retainTable(table)
	byOwner := table.ByOwner()
	owners := make([]int, 0, len(byOwner))
	for owner := range byOwner {
		owners = append(owners, owner)
	}
	sort.Ints(owners)
	for _, owner := range owners {
		entries := byOwner[owner]
		seq := db.sendSeq.Add(1)
		msg := seqFrame(seq, db.incarnation.Load(), entries)
		b := parkedBatch{seq: seq, msg: msg, pairs: len(entries), table: table}
		if db.tryPark(owner, b) {
			continue // queued behind the circuit; the prober redelivers
		}
		// An owner that answers statusReadOnly lands here too: the batch
		// parks behind the circuit, the prober's pings keep answering
		// statusReadOnly (circuit stays open, cheaply), and the first
		// statusOK ping after the owner heals triggers redelivery — which
		// applies fresh, because the owner never dedup-recorded the refused
		// seq.
		if _, _, err := db.call(context.Background(), owner, tagMigBatch, tagMigAck, seq, msg, &db.metrics.MigrationRetries); err != nil {
			db.parkFailed(owner, err, b)
			continue
		}
		db.metrics.Migrations.Add(1)
		db.metrics.MigratedPairs.Add(uint64(len(entries)))
	}
	db.releaseTableRef(table)
}

// handlerThread is the paper's message handler, grown into a worker pool:
// a receive dispatcher drains the private request communicator and hands
// each request to one of handlerThreads workers, until the shutdown
// message (sent by this rank's own Close) arrives. The handlers stay alive
// after this rank's domain fails — they answer requests with error
// responses so remote callers get a clean root-cause error instead of a
// hang.
//
// Routing preserves the one ordering that matters: requests that mutate
// state (migration batches, synchronous puts) are sharded by source rank
// onto a fixed worker, so batches from one source apply in the order it
// sent them (a later batch may overwrite an earlier one's keys; swapping
// them would publish stale values). The dedup window makes concurrent
// application across sources safe. Remote gets carry no ordering
// obligation and go to a shared queue any free worker drains — a get stuck
// in an NVM SSTable search occupies one worker while migration acks and
// sync puts flow through the others, instead of head-of-line-blocking the
// whole rank.
func (db *DB) handlerThread() {
	defer db.wg.Done()
	n, depth := handlerThreads, handlerQueueDepth
	writeQ := make([]chan mpi.Message, n)
	getQ := make(chan mpi.Message, n*depth)
	var workers sync.WaitGroup
	for i := range writeQ {
		writeQ[i] = make(chan mpi.Message, depth)
		workers.Add(1)
		go db.handlerWorker(&workers, writeQ[i], getQ)
	}
	stop := func() {
		for _, q := range writeQ {
			close(q)
		}
		close(getQ)
		workers.Wait()
	}
	for {
		m, err := db.reqComm.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			stop()
			return // world aborted
		}
		switch m.Tag {
		case tagShutdown:
			stop()
			return
		case tagMigBatch, tagPutOne:
			writeQ[m.Source%n] <- m
		case tagGet, tagPing, tagScan:
			// Pings share the get queue: they mutate nothing, so any free
			// worker may answer, and they must not queue behind a write
			// shard — the probe exists to measure liveness, not backlog.
			// Scan pages ride here for the same reason: read-only, served
			// by whichever worker is free, and the worker is released
			// between pages (the scan itself parks in the registry).
			getQ <- m
		default:
			db.metrics.BadRequests.Add(1)
		}
	}
}

// handlerWorker serves one write shard plus its share of the get queue; it
// exits when both queues are closed and drained.
func (db *DB) handlerWorker(workers *sync.WaitGroup, writeQ, getQ chan mpi.Message) {
	defer workers.Done()
	for writeQ != nil || getQ != nil {
		select {
		case m, ok := <-writeQ:
			if !ok {
				writeQ = nil
				continue
			}
			db.handleBatch(m, m.Tag == tagMigBatch)
		case m, ok := <-getQ:
			if !ok {
				getQ = nil
				continue
			}
			switch m.Tag {
			case tagPing:
				db.handlePing(m)
			case tagScan:
				db.handleScan(m)
			default:
				db.handleGet(m)
			}
		}
	}
}

// handleBatch applies a seq-framed batch of entries (a migration batch, or
// the single entry of a synchronous put) and acks with the outcome. A seq
// still in the dedup window is not re-applied; its original ack is replayed,
// which is what makes sender retries idempotent.
func (db *DB) handleBatch(m mpi.Message, migration bool) {
	ackTag := tagPutAck
	if migration {
		ackTag = tagMigAck
	}
	seq, inc, body, err := splitSeq(m.Data)
	if err != nil {
		// A peer's malformed frame is the peer's defect, not ours: failing
		// this rank's own domain over it would let one buggy (or byzantine)
		// sender kill a healthy receiver. Too short to carry a seq, it
		// cannot even be nacked — count it and drop it.
		db.metrics.BadRequests.Add(1)
		return
	}
	db.observeIncarnation(m.Source, inc)
	if rec, dup := db.dedup.seen(m.Source, inc, seq); dup {
		db.metrics.DupsDropped.Add(1)
		db.sendResp(m.Source, ackTag, encodeReply(seq, rec.status, nil))
		return
	}
	// A Failed rank answers statusRankFailed, a Degraded one
	// statusReadOnly, and a backlogged one statusStalled: a migrating
	// sender parks the batch and redelivers it verbatim once a ping reports
	// this rank healthy again.
	err = db.writeRefusal()
	if errors.Is(err, ErrWriteStalled) {
		db.metrics.PutsShed.Add(1)
	}
	if err == nil {
		var entries []memtable.Entry
		if entries, err = memtable.DecodeEntries(body); err != nil {
			// An undecodable body is likewise the sender's defect: nack it
			// so the sender surfaces the error instead of burning retries,
			// and keep this rank healthy.
			db.metrics.BadRequests.Add(1)
		}
		for i := range entries {
			entries[i].Owner = db.rt.rank
		}
		// putLocalBatch triages its own failure (failOrDegrade): a full
		// WAL device mid-batch degrades this rank and the typed status
		// tells the sender to park, not give up. One WAL commit per batch
		// (WALSync's fsync-per-batch): the sender's retry discipline
		// means the ack is the durability promise, so it is issued only
		// after the commit. Had Recover swapped the streams since the
		// batch was applied, the commit finds its stream abandoned and
		// refuses the ack.
		if err == nil {
			var logged *wal.Log
			if logged, err = db.putLocalBatch(entries); err == nil {
				err = db.walCommit(logged)
			}
		}
	}
	// Only applied outcomes enter the dedup window. A refused or failed
	// request was never applied, so a retry is safe to attempt fresh — and
	// must be: the window is keyed by the sender's incarnation, which does
	// not change when *this* rank recovers, so a recorded failure would
	// replay forever and hold the sender's parked batches hostage after
	// this rank healed.
	if err != nil {
		db.sendResp(m.Source, ackTag, errorReply(seq, err))
		return
	}
	db.dedup.record(m.Source, inc, seq, ackRecord{status: statusOK})
	db.sendResp(m.Source, ackTag, encodeReply(seq, statusOK, nil))
}

// handlePing answers a circuit breaker's half-open probe with this rank's
// incarnation while it accepts writes, and otherwise with the reason it
// refuses them: statusRankFailed, statusReadOnly or statusStalled keep the
// prober's circuit open without costing it a full retry-timeout — closing
// it would trigger a redelivery the batch handler would immediately refuse.
// Only a statusOK answer closes the circuit and triggers redelivery of parked
// batches. The incarnations exchanged in both directions let each side
// notice the other was reborn since they last spoke.
func (db *DB) handlePing(m mpi.Message) {
	seq, inc, err := decodePing(m.Data)
	if err != nil {
		db.metrics.BadRequests.Add(1)
		return
	}
	db.observeIncarnation(m.Source, inc)
	reply := encodeReply(seq, statusOK, binary.LittleEndian.AppendUint32(nil, db.incarnation.Load()))
	if err := db.writeRefusal(); err != nil {
		reply = errorReply(seq, err)
	}
	db.sendResp(m.Source, tagPingAck, reply)
}

// handleGet answers a remote get. If the requester shares this rank's
// storage group, only the in-memory structures and local cache are
// consulted; a miss returns the candidate SSIDs so the requester reads the
// shared SSTables directly, eliminating the value transfer (§2.7). A failed
// rank, or a local read error (e.g. a corrupt SSTable), answers with the
// typed cause instead of data.
//
// Value ownership: val may alias live MemTable or cache storage right up to
// encodeReply, which copies it into the wire buffer — the one copy on this
// side of the request. The handler must not retain or mutate val after that
// point.
func (db *DB) handleGet(m mpi.Message) {
	req, err := decodeGetRequest(m.Data)
	if err != nil {
		// The requester's defect, not ours (see handleBatch): without a
		// decodable seq there is no reply to address, so count and drop —
		// the requester times out and retries, exactly as if the frame had
		// been lost in flight.
		db.metrics.BadRequests.Add(1)
		return
	}
	var val []byte
	var tomb, found bool
	// readHealth, not Health: a Degraded rank's MemTables and SSTables are
	// intact, so remote gets keep being served — read availability is the
	// point of the read-only state.
	if err = db.readHealth(); err == nil {
		if req.Group != db.rt.group {
			val, tomb, found, err = db.getLocalFull(req.Key)
		} else if val, tomb, found, _ = db.getMemory(req.Key); !found {
			// Owner-side candidate selection: only the tables whose key
			// bounds cover the key, in probe (recency) order — the requester
			// probes O(levels) tables instead of every live SSID.
			v := db.pinView()
			ids := v.ids(req.Key, req.Key, true)
			db.unpinView(v)
			db.sendRespOwned(m.Source, tagGetResp, encodeReply(req.Seq, statusShare, encodeSSIDs(ids)))
			return
		}
	}
	// A read error is per-operation, not a domain failure: a corrupt table
	// poisons reads that touch it, while writes and other reads continue.
	// Every reply frame is encoded fresh for this one send and never read
	// again, so it is handed to the transport without a copy.
	switch {
	case err != nil:
		db.sendRespOwned(m.Source, tagGetResp, errorReply(req.Seq, err))
	case !found || tomb:
		db.sendRespOwned(m.Source, tagGetResp, encodeReply(req.Seq, statusAbsent, nil))
	default:
		db.sendRespOwned(m.Source, tagGetResp, encodeReply(req.Seq, statusOK, val))
	}
}

// sendResp sends a handler reply on the reply communicator (routed by the
// destination's response router); a send failure means the world's message
// layer itself is gone, which does fail the domain.
func (db *DB) sendResp(dest, tag int, data []byte) {
	if err := db.replyComm.Send(dest, tag, data); err != nil {
		db.fail(err)
	}
}

// sendRespOwned is sendResp for one-shot frames the handler abandons: the
// buffer is handed to the transport without a defensive copy.
func (db *DB) sendRespOwned(dest, tag int, data []byte) {
	if err := db.replyComm.SendOwned(dest, tag, data); err != nil {
		db.fail(err)
	}
}
