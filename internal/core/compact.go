package core

// Leveled compaction (ROADMAP item 3, second half). The flat all-tables
// merge is replaced by a score-driven L0→Ln scheme with RocksDB-style
// manifest discipline:
//
//   - L0 holds whole flushed MemTables, overlap-allowed, newest-wins by
//     SSID. Every deeper level is a sorted run of non-overlapping key
//     ranges, so reads touch at most one table per level.
//   - The picker scores L0 by table count against Options.CompactionEvery
//     and every deeper level by bytes against its budget
//     (LevelBytesBase × LevelBytesGrowth^(n-1)); the highest score ≥ 1
//     wins. An L0 job merges all of L0 plus the overlapping L1 range; an
//     Ln job merges one victim table plus its overlapping next-level range.
//   - Picking is decoupled from flush cadence: flushes (and releases of
//     the checkpoint pin) kick the compaction workers, which loop until no
//     level scores ≥ 1. A trigger arriving while a checkpoint holds its
//     pin is recorded and re-fired when the pin releases — the fix for the
//     trigger-starvation bug where a due compaction under a held pin was
//     skipped and never rescheduled.
//   - Jobs on disjoint table sets run on compactionWorkers workers
//     in parallel. Inputs are claimed under compactMu at pick time; any
//     two jobs whose output ranges could overlap necessarily share a
//     claimed table (each job's input hull is fully covered by its own
//     inputs), so conflicts always surface as claim collisions, never as
//     overlapping installs.
//
// Crash windows are unchanged from the flat compactor: the merged output
// is written first (a crash leaves it an unlisted orphan, quarantined on
// reopen), the Add+Delete edit commits as one manifest frame, and only
// then are the inputs unlinked (a crash leaves them orphans). An input a
// pinned read view still names is unlinked when that view retires.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"papyruskv/internal/manifest"
	"papyruskv/internal/sstable"
)

// liveSSIDsLocked returns every live SSID ascending. Caller holds sstMu.
// Note SSID order is not recency order across levels; this flat list serves
// identity (checkpoint file sets, counts), not read resolution.
func (db *DB) liveSSIDsLocked() []uint64 {
	var ids []uint64
	for _, lvl := range db.levels {
		for _, t := range lvl {
			ids = append(ids, t.SSID)
		}
	}
	slices.Sort(ids)
	return ids
}

// liveSSIDs is liveSSIDsLocked under the read lock.
func (db *DB) liveSSIDs() []uint64 {
	db.sstMu.RLock()
	defer db.sstMu.RUnlock()
	return db.liveSSIDsLocked()
}

// installVersionLocked replaces the in-memory leveled state with the
// manifest version v (Open, Restart, Recover) and publishes it. fresh are
// handles already open on some of v's tables (see publishLocked). Caller
// holds sstMu.
func (db *DB) installVersionLocked(v manifest.Version, fresh ...*tableHandle) {
	var levels [][]manifest.TableMeta
	for _, t := range v.Tables {
		for int(t.Level) >= len(levels) {
			levels = append(levels, nil)
		}
		levels[t.Level] = append(levels[t.Level], t)
	}
	for n := range levels {
		sortLevel(levels[n], n)
	}
	db.levels = levels
	if v.NextSSID > db.nextSSID {
		db.nextSSID = v.NextSSID
	}
	db.publishLocked(nil, fresh...)
}

// sortLevel establishes level n's canonical order: L0 by SSID ascending
// (newest last), deeper levels by MinKey (disjoint sorted run).
func sortLevel(run []manifest.TableMeta, n int) {
	if n == 0 {
		sort.Slice(run, func(i, j int) bool { return run[i].SSID < run[j].SSID })
	} else {
		sort.Slice(run, func(i, j int) bool { return bytes.Compare(run[i].MinKey, run[j].MinKey) < 0 })
	}
}

// newerTable is the one recency order over live tables, a comparator for
// slices.SortFunc: a shallower level is newer than a deeper one, and within
// L0 a higher SSID is newer (deeper levels are disjoint, so their internal
// order never decides a key). Raw SSIDs alone lie across levels — an L1
// output outnumbers L0 tables flushed during its merge.
func newerTable(a, b manifest.TableMeta) int {
	if a.Level != b.Level {
		return cmp.Compare(a.Level, b.Level)
	}
	return cmp.Compare(b.SSID, a.SSID)
}

// compactionJob is one picked unit of work: the claimed input tables from
// one level (recency order for L0), the claimed overlapping run at the next
// level, the pre-allocated output SSID, and the key bounds of the merge.
type compactionJob struct {
	level   int // input level; the output lands on level+1
	inputs  []manifest.TableMeta
	overlap []manifest.TableMeta
	outID   uint64
	lo, hi  []byte // input hull, passed to the range-bounded merge
	bottom  bool   // no live table deeper than the output: tombstones drop
}

// kickCompact wakes a compaction worker; the cap-1 channel coalesces any
// number of pending triggers into one.
func (db *DB) kickCompact() {
	select {
	case db.compactKick <- struct{}{}:
	default:
	}
}

// releaseCheckpointPin drops one checkpoint pin and re-fires any compaction
// trigger that arrived while the pin was held. The Swap pairs with
// runCompactions' deferral: whichever side runs second sees the other's
// state, so a due compaction is never silently dropped.
func (db *DB) releaseCheckpointPin() {
	db.checkpointPin.done()
	if db.compactPending.Swap(false) {
		db.kickCompact()
	}
}

// compactorThread is one compaction worker: it waits for a kick and runs
// picked jobs until no level scores over its threshold. Workers exit when
// Close begins teardown (the flush Barrier has already drained everything
// that must land; compaction is an optimization, not an obligation).
func (db *DB) compactorThread() {
	defer db.wg.Done()
	for {
		select {
		case <-db.closing:
			return
		case <-db.compactKick:
			db.runCompactions(false)
		}
	}
}

// compact runs compactions synchronously until no further job is picked
// and none is in flight, forcing a merge of L0 (plus its L1 overlap) even
// below the score threshold. Tests and the pre-leveled callers use it as
// the "merge everything down" lever; like the background workers it defers
// under a held checkpoint pin.
func (db *DB) compact() {
	for {
		db.runCompactions(true)
		if db.pendingCompact.value() == 0 {
			return
		}
		// A background job is mid-merge, and its claims (compactL0Busy, the
		// per-table busy set) may be what made this pass's pick come up
		// empty. Wait it out — the release can unblock a due job the forced
		// pass was meant to run — then sweep again.
		db.pendingCompact.wait()
	}
}

// runCompactions picks and runs jobs until none is eligible. force lowers
// the L0 threshold to "two or more tables would merge", the synchronous
// compact() semantics.
func (db *DB) runCompactions(force bool) {
	for {
		if db.readHealth() != nil {
			return
		}
		// Register as in-flight BEFORE the pin check. Checkpoint pins first
		// and then waits out pendingCompact, so a job invisible to both
		// sides is impossible: if the checkpoint's wait observed zero, this
		// add happened after its pin landed and the check below defers.
		db.pendingCompact.add(1)
		if db.checkpointPin.value() != 0 {
			// A checkpoint is copying its snapshot: record the trigger and
			// stand down. The double-check below closes the race with
			// releaseCheckpointPin — if the pin dropped between our check
			// and the Store, one side's Swap wins the pending flag and
			// exactly one re-fire happens.
			db.pendingCompact.done()
			db.compactPending.Store(true)
			if db.checkpointPin.value() != 0 {
				db.metrics.CompactionsDeferred.Add(1)
				return
			}
			if !db.compactPending.Swap(false) {
				return // releaseCheckpointPin claimed it; its kick re-runs us
			}
			continue
		}
		job := db.pickCompaction(force)
		if job == nil {
			db.pendingCompact.done()
			return
		}
		// Another worker may be able to pick a disjoint job concurrently.
		db.kickCompact()
		db.runJob(job)
		db.pendingCompact.done()
	}
}

// pickCompaction selects the highest-scoring eligible job and claims its
// tables. Returns nil when no level is due or every due level's tables are
// already claimed by running jobs — whose completion kicks again.
func (db *DB) pickCompaction(force bool) *compactionJob {
	db.sstMu.Lock()
	defer db.sstMu.Unlock()
	db.compactMu.Lock()
	defer db.compactMu.Unlock()

	var best *compactionJob
	var bestScore float64

	// L0: count-scored against CompactionEvery. The job takes every L0
	// table (they overlap arbitrarily, so recency forces all-or-nothing)
	// plus the L1 run intersecting their hull; tables flushed during the
	// merge stay at L0 — the install removes only the claimed inputs.
	if len(db.levels) > 0 && len(db.levels[0]) > 0 && !db.compactL0Busy {
		l0 := db.levels[0]
		var score float64
		if db.opt.CompactionEvery > 0 {
			score = float64(len(l0)) / float64(db.opt.CompactionEvery)
		}
		lo, hi := hullOf(l0)
		var ov []manifest.TableMeta
		if len(db.levels) > 1 {
			ov = overlapRun(db.levels[1], lo, hi)
		}
		// The merge bounds must cover the FULL extent of every input: a
		// claimed L1 table can stick out past the L0 hull, and bounding the
		// merge to the bare hull would silently drop its outlying keys while
		// deleting the table. Widening cannot pull in new L1 overlaps — the
		// widened span is inside the claimed tables' own ranges, and L1 is
		// disjoint.
		lo, hi = hullOf(l0, ov)
		eligible := score >= 1 || (force && len(l0)+len(ov) >= 2)
		if eligible && !db.anyClaimedLocked(ov) {
			inputs := slices.Clone(l0)
			slices.SortFunc(inputs, newerTable) // the merge takes recency order
			best = &compactionJob{level: 0, inputs: inputs, overlap: ov, lo: lo, hi: hi}
			bestScore = score
			if force && bestScore < 1 {
				bestScore = 1
			}
		}
	}

	// Deeper levels: byte-scored against the geometric budget. One victim
	// (the level's largest unclaimed table) plus its next-level overlap.
	budget := db.opt.LevelBytesBase
	for n := 1; n < len(db.levels); n++ {
		run := db.levels[n]
		if len(run) > 0 {
			var total int64
			for _, t := range run {
				total += t.DataBytes
			}
			if score := float64(total) / float64(budget); score >= 1 && score > bestScore {
				if job := db.victimJobLocked(n); job != nil {
					best, bestScore = job, score
				}
			}
		}
		if budget < (1<<62)/int64(db.opt.LevelBytesGrowth) {
			budget *= int64(db.opt.LevelBytesGrowth)
		}
	}

	if best == nil {
		return nil
	}
	// Claim the tables and allocate the output SSID under the same locks
	// that picked them, so no concurrent pick can double-claim and no flush
	// can slip an SSID between pick and allocation.
	if best.level == 0 {
		db.compactL0Busy = true
	}
	for _, t := range best.inputs {
		db.compactBusy[t.SSID] = true
	}
	for _, t := range best.overlap {
		db.compactBusy[t.SSID] = true
	}
	best.outID = db.nextSSID
	db.nextSSID++
	// Tombstones drop only when nothing deeper than the output could hold
	// an older incarnation of a merged key. Concurrent jobs cannot break
	// this after the fact: a job that would install deeper has inputs at or
	// below the output level whose ranges are disjoint from this hull (else
	// the claims would have collided).
	best.bottom = true
	for n := best.level + 2; n < len(db.levels); n++ {
		if len(db.levels[n]) > 0 {
			best.bottom = false
			break
		}
	}
	return best
}

// victimJobLocked builds an Ln→Ln+1 job for level n: the largest unclaimed
// table plus the next-level run overlapping it. Caller holds sstMu and
// compactMu. Returns nil if every viable victim or its overlap is claimed.
func (db *DB) victimJobLocked(n int) *compactionJob {
	var victims []manifest.TableMeta
	for _, t := range db.levels[n] {
		if !db.compactBusy[t.SSID] {
			victims = append(victims, t)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].DataBytes > victims[j].DataBytes })
	for _, v := range victims {
		var ov []manifest.TableMeta
		if n+1 < len(db.levels) {
			ov = overlapRun(db.levels[n+1], v.MinKey, v.MaxKey)
		}
		if db.anyClaimedLocked(ov) {
			continue
		}
		lo, hi := hullOf([]manifest.TableMeta{v}, ov)
		return &compactionJob{level: n, inputs: []manifest.TableMeta{v}, overlap: ov, lo: lo, hi: hi}
	}
	return nil
}

// hullOf returns the smallest key interval covering every table in runs;
// the first run must be non-empty.
func hullOf(runs ...[]manifest.TableMeta) (lo, hi []byte) {
	lo, hi = runs[0][0].MinKey, runs[0][0].MaxKey
	for _, run := range runs {
		for _, t := range run {
			if bytes.Compare(t.MinKey, lo) < 0 {
				lo = t.MinKey
			}
			if bytes.Compare(t.MaxKey, hi) > 0 {
				hi = t.MaxKey
			}
		}
	}
	return lo, hi
}

// overlapRun returns the tables of a MinKey-sorted disjoint run whose
// ranges intersect [lo, hi] (inclusive).
func overlapRun(run []manifest.TableMeta, lo, hi []byte) []manifest.TableMeta {
	i := sort.Search(len(run), func(i int) bool { return bytes.Compare(run[i].MaxKey, lo) >= 0 })
	var out []manifest.TableMeta
	for ; i < len(run); i++ {
		if bytes.Compare(run[i].MinKey, hi) > 0 {
			break
		}
		out = append(out, run[i])
	}
	return out
}

// anyClaimedLocked reports whether any table in the slice is already
// claimed by a running job. Caller holds compactMu.
func (db *DB) anyClaimedLocked(ts []manifest.TableMeta) bool {
	for _, t := range ts {
		if db.compactBusy[t.SSID] {
			return true
		}
	}
	return false
}

// releaseJob returns a job's claims and kicks the workers again: tables the
// finished job was blocking may now form the next pick.
func (db *DB) releaseJob(job *compactionJob) {
	db.compactMu.Lock()
	if job.level == 0 {
		db.compactL0Busy = false
	}
	for _, t := range job.inputs {
		delete(db.compactBusy, t.SSID)
	}
	for _, t := range job.overlap {
		delete(db.compactBusy, t.SSID)
	}
	db.compactMu.Unlock()
	db.kickCompact()
}

// runJob executes one picked job: range-bounded merge, single Add+Delete
// manifest edit, in-memory install that dooms the inputs. A failed merge or
// commit fails/degrades the rank and leaves the inputs live — the
// transition simply never happened.
func (db *DB) runJob(job *compactionJob) {
	defer db.releaseJob(job)
	dev := db.rt.cfg.Device
	dir := db.ownDir

	// The inputs' entry counts, from their manifest records, size the output
	// bloom filter.
	ordered := make([]uint64, 0, len(job.inputs)+len(job.overlap))
	expected := 0
	for _, t := range slices.Concat(job.inputs, job.overlap) {
		ordered = append(ordered, t.SSID)
		expected += int(t.Entries)
	}
	outLevel := job.level + 1
	w, err := sstable.NewWriter(dev, dir, job.outID, expected)
	var meta sstable.Meta
	if err == nil {
		meta, err = w.Merge(ordered, job.lo, job.hi, job.bottom)
	}
	if err != nil {
		db.failOrDegrade(fmt.Errorf("compaction into SSTable %d: %w", job.outID, err))
		return
	}
	// Commit install+delete as one manifest edit BEFORE unlinking the
	// inputs. A crash before the commit leaves the old version (the merged
	// output is an unlisted orphan, quarantined on reopen); a crash after
	// it leaves the new one (leftover inputs are the orphans). Neither mix
	// resurrects a deleted or overwritten value across levels.
	edit := manifest.Edit{Delete: ordered}
	hasOut := meta.Count > 0
	if hasOut {
		tm := tableMetaOf(meta)
		tm.Level = uint32(outLevel)
		edit.Add = []manifest.TableMeta{tm}
	} else {
		// Every surviving record was a dropped bottom-level tombstone: the
		// level transition is a pure delete. The empty output files were
		// never published anywhere; remove them outright.
		_ = sstable.Remove(dev, dir, job.outID)
		db.readers.Evict(dir, job.outID)
	}
	if err := db.manifestApply(edit); err != nil {
		db.failOrDegrade(fmt.Errorf("manifest commit of compaction %d: %w", job.outID, err))
		return
	}
	db.metrics.Compactions.Add(1)
	db.metrics.CompactionBytesWritten.Add(uint64(meta.DataBytes))
	// Crash point between the commit and the unlinks: the in-memory levels
	// still name the inputs, whose files remain — stale but correct — and
	// the next open composes the committed version from the manifest.
	db.maybeKill()
	if db.readHealth() != nil {
		return
	}

	var fresh []*tableHandle
	if hasOut {
		fresh = append(fresh, db.writtenHandle(w, job.outID))
	}
	db.sstMu.Lock()
	// Swap the levels before unlinking anything, so gets follow the
	// committed version instead of racing the unlinks. L0 tables flushed
	// while the merge ran are not in the claim set and stay — they are
	// newer than the output's level, so recency is preserved by level
	// order, not SSID order.
	dead := make(map[uint64]bool, len(ordered))
	for _, id := range ordered {
		dead[id] = true
	}
	for n := range db.levels {
		kept := db.levels[n][:0]
		for _, t := range db.levels[n] {
			if !dead[t.SSID] {
				kept = append(kept, t)
			}
		}
		db.levels[n] = kept
	}
	if hasOut {
		for outLevel >= len(db.levels) {
			db.levels = append(db.levels, nil)
		}
		tm := tableMetaOf(meta)
		tm.Level = uint32(outLevel)
		db.levels[outLevel] = append(db.levels[outLevel], tm)
		sortLevel(db.levels[outLevel], outLevel)
	}
	// Doom the inputs as the view that drops them goes up: their files go
	// once no get or iterator still reads them through an older view.
	db.publishLocked(db.removeTable, fresh...)
	db.sstMu.Unlock()
}

// removeTable is a compaction input's fate: unlink its files and drop the
// device cache's reader, so the whole storage group (the cache is
// per-device) stops probing it. It runs when the last view naming the input
// retires — in the compaction itself, or in whichever get or iterator
// unpins that view last. A failed unlink only leaves orphan files behind
// (the version is already committed); surface the device trouble anyway.
func (db *DB) removeTable(ssid uint64) {
	err := sstable.Remove(db.rt.cfg.Device, db.ownDir, ssid)
	db.readers.Evict(db.ownDir, ssid)
	if err != nil {
		db.failOrDegrade(fmt.Errorf("removing compaction input %d: %w", ssid, err))
	}
}
