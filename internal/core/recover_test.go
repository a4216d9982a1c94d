package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
)

// recoverOpt is faultOpt tuned for recovery tests: synchronous WAL (so no
// acked put can sit in an unsynced commit window when the kill lands) and a
// fast probe so circuits close within test time.
func recoverOpt() Options {
	o := faultOpt()
	o.WAL = WALSync
	o.ProbeInterval = 2 * time.Millisecond
	return o
}

// killRank fires the CoreKill point on this rank and verifies the database
// failed. The trigger Put evaluates the point before touching any state, so
// the put itself is never acknowledged.
func killRank(t *testing.T, db *DB, inj *faults.Injector, rank int) {
	t.Helper()
	inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: rank, Count: 1, Fires: 1})
	if err := db.Put([]byte("kill-trigger"), []byte("x")); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("trigger Put err = %v, want ErrRankFailed", err)
	}
	inj.Disable(faults.CoreKill)
}

// waitFenceClean polls Fence until the parked-pairs report clears — i.e.
// until probing has closed the circuits and redelivery drained the backlog.
func waitFenceClean(t *testing.T, db *DB, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		err := db.Fence()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			m := db.Metrics()
			t.Fatalf("parked batches never redelivered: %v (probes_sent=%d circuits_opened=%d circuits_closed=%d redelivered=%d)",
				err, m.ProbesSent.Load(), m.CircuitsOpened.Load(), m.CircuitsClosed.Load(), m.RedeliveredBatches.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoverKillHealsFromWAL is the tentpole acceptance scenario: a rank is
// killed mid-run with acked puts only in its WAL, its peers park the
// migrations they cannot deliver (and say so at Fence), then Recover heals
// the victim in place — WAL replayed, SSTables re-validated, incarnation
// advanced — the peers' probes close their circuits, the parked batches are
// redelivered, and every acked put is readable at every rank.
func TestRecoverKillHealsFromWAL(t *testing.T) {
	const victim = 1
	inj := faults.New(0x2ec0)
	opt := recoverOpt()
	runCluster(t, clusterSpec{ranks: 3, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("recoverdb", opt)
		if err != nil {
			return err
		}
		victimKeys := ownKeys(db, victim, 50)
		flushed, walOnly, parked := victimKeys[:30], victimKeys[30:40], victimKeys[40:]

		// Phase 1: load and flush, then give the victim ten more acked puts
		// that exist only in its WAL when the kill lands.
		for _, k := range ownKeys(db, rt.Rank(), 30) {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if rt.Rank() == victim {
			for _, k := range walOnly {
				mustPut(t, db, string(k), string(val(k)))
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		incBefore := db.incarnation.Load()
		if rt.Rank() == victim {
			killRank(t, db, inj, victim)
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 2: the peers put victim-owned keys. The victim's handler
		// rejects the migration batches (it is failed), so the batches park
		// behind its circuit, and Fence says so instead of dropping them.
		if rt.Rank() != victim {
			for _, k := range parked {
				mustPut(t, db, string(k), string(val(k)))
			}
			err := db.Fence()
			if err == nil || !strings.Contains(err.Error(), "parked") {
				t.Errorf("Fence with the owner down = %v, want a parked-pairs report", err)
			}
			m := db.Metrics()
			if m.CircuitsOpened.Load() == 0 || m.ParkedBatches.Load() == 0 {
				t.Errorf("circuits_opened = %d, parked_batches = %d, want both >= 1",
					m.CircuitsOpened.Load(), m.ParkedBatches.Load())
			}
			// The parked pairs stay readable on the sender meanwhile: their
			// MemTable is pinned in the immutable remote list.
			for _, k := range parked {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("parked pair unreadable at its sender: %v", err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 3: heal the victim in place.
		if rt.Rank() == victim {
			if err := db.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if err := db.Health(); err != nil {
				t.Errorf("Health after Recover = %v, want nil", err)
			}
			if got := db.Metrics().Recoveries.Load(); got != 1 {
				t.Errorf("Recoveries = %d, want 1", got)
			}
			if inc := db.incarnation.Load(); inc <= incBefore {
				t.Errorf("incarnation = %d after Recover, want > %d", inc, incBefore)
			}
			// Every acked put survived: the flushed ones from their
			// re-validated SSTables, the rest from the WAL replay.
			for _, k := range append(append([][]byte(nil), flushed...), walOnly...) {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("acked put lost across recovery: %v", err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 4: the peers' probes close the circuits and the parked
		// batches drain; then the recovered rank serves remote gets again.
		if rt.Rank() != victim {
			waitFenceClean(t, db, 20*time.Second)
			m := db.Metrics()
			if m.CircuitsClosed.Load() == 0 {
				t.Errorf("circuits_closed = %d, want >= 1 (probing never noticed the recovery)", m.CircuitsClosed.Load())
			}
			if m.RedeliveredBatches.Load() == 0 {
				t.Errorf("redelivered_batches = %d, want >= 1", m.RedeliveredBatches.Load())
			}
			if m.PairsLost.Load() != 0 {
				t.Errorf("pairs_lost = %d, want 0 — nothing may be dropped on this path", m.PairsLost.Load())
			}
			if err := db.peerErr(victim); err != nil {
				t.Errorf("victim's circuit still open after redelivery: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() != victim {
			for _, k := range victimKeys {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("recovered rank not serving remote gets: %v", err)
				}
			}
		} else {
			for _, k := range parked {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("redelivered pair missing at its owner: %v", err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
	if inj.Fired(faults.CoreKill) != 1 {
		t.Fatalf("CoreKill fired %d times, want 1 — injection log:\n%v",
			inj.Fired(faults.CoreKill), inj.Log())
	}
}

// TestRecoverRedeliveryDedupSurvivesOwnerRecovery pins exactly-once delivery
// through the park-and-redeliver path. Phase A: the owner applies a batch but
// every ack is dropped, so the sender parks the already-applied batch;
// redelivery must be swallowed by the owner's dedup window, not applied
// twice. Phase B repeats the applied-but-unacked scenario and then kills and
// recovers the owner while the batch is parked: the dedup window and the
// applied pairs (via the WAL) both survive the owner's rebirth, so the batch
// is still applied exactly once.
func TestRecoverRedeliveryDedupSurvivesOwnerRecovery(t *testing.T) {
	const owner, sender = 0, 1
	opt := recoverOpt()
	drops := uint64(retryAttempts) // exhaust one full ladder, then let acks through
	inj := faults.New(0xdedb).
		Enable(faults.Rule{Point: faults.NetDrop, Rank: owner, Tag: tagMigAck, Count: 1, Fires: drops})
	phaseKeys := func(db *DB, phase, n int) []string {
		var keys []string
		for i := 0; len(keys) < n; i++ {
			k := fmt.Sprintf("dedup-p%d-%04d", phase, i)
			if db.Owner([]byte(k)) == owner {
				keys = append(keys, k)
			}
		}
		return keys
	}
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("dedupdb", opt)
		if err != nil {
			return err
		}

		// Phase A: applied but unacked, healthy owner throughout.
		keysA := phaseKeys(db, 0, 8)
		if rt.Rank() == sender {
			for _, k := range keysA {
				mustPut(t, db, k, "va-"+k)
			}
			// Fence parks the batch once the ladder exhausts; the prober may
			// already be redelivering, so only the drained state is asserted.
			waitFenceClean(t, db, 20*time.Second)
			m := db.Metrics()
			if m.ParkedBatches.Load() != 1 || m.RedeliveredBatches.Load() != 1 {
				t.Errorf("parked_batches = %d, redelivered_batches = %d, want 1 and 1",
					m.ParkedBatches.Load(), m.RedeliveredBatches.Load())
			}
			if m.MigrationRetries.Load() < drops-1 {
				t.Errorf("MigrationRetries = %d, want >= %d (the dropped acks were never retried)",
					m.MigrationRetries.Load(), drops-1)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == owner {
			// Original + retries + redelivery all reached the owner; only the
			// first may apply.
			if got := db.Metrics().DupsDropped.Load(); got < drops {
				t.Errorf("DupsDropped = %d, want >= %d", got, drops)
			}
			for _, k := range keysA {
				if err := wantGet(db, k, "va-"+k); err != nil {
					t.Errorf("phase A pair lost: %v", err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase B: same drop pattern, but the owner dies and recovers while
		// the applied-but-unacked batch is parked at the sender.
		keysB := phaseKeys(db, 1, 8)
		if rt.Rank() == sender {
			// Armed by one rank only: the SPMD body runs on both, and a
			// doubled rule would drop twice the acks.
			inj.Enable(faults.Rule{Point: faults.NetDrop, Rank: owner, Tag: tagMigAck, Count: 1, Fires: drops})
			for _, k := range keysB {
				mustPut(t, db, k, "vb-"+k)
			}
			db.Fence() // drains into the park (or straight through, if redelivery won the race)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == owner {
			killRank(t, db, inj, owner)
			if err := db.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == sender {
			waitFenceClean(t, db, 20*time.Second)
			if n := db.Metrics().PairsLost.Load(); n != 0 {
				t.Errorf("pairs_lost = %d, want 0", n)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == owner {
			// The batch applied before the kill came back via the WAL replay,
			// and its redelivery was deduplicated across the owner's rebirth.
			for _, k := range keysB {
				if err := wantGet(db, k, "vb-"+k); err != nil {
					t.Errorf("phase B pair lost across owner recovery: %v", err)
				}
			}
			if got := db.Metrics().DupsDropped.Load(); got < 2*drops {
				t.Errorf("DupsDropped = %d, want >= %d (redelivery after recovery must dedup, not re-apply)",
					got, 2*drops)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestRecoverParkedBudgetOverflow is the counterfactual scenario: with
// parking disabled (ParkedBytes < 0), batches for a dead owner degrade to
// counted loss — bounded, surfaced in PairsLost with a per-owner breakdown,
// and reported by exactly one Fence — never a hang, never a world abort, and
// never a silent drop.
func TestRecoverParkedBudgetOverflow(t *testing.T) {
	const victim, sender = 0, 1
	inj := faults.New(0x10555)
	opt := recoverOpt()
	opt.ParkedBytes = -1
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("overflowdb", opt)
		if err != nil {
			return err
		}
		if rt.Rank() == victim {
			killRank(t, db, inj, victim)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == sender {
			keys := ownKeys(db, victim, 10)
			for _, k := range keys {
				mustPut(t, db, string(k), string(val(k)))
			}
			err := db.Fence()
			if err == nil || !strings.Contains(err.Error(), "were not applied") {
				t.Errorf("Fence past the budget = %v, want a loss report", err)
			}
			if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("pairs owned by rank %d", victim)) {
				t.Errorf("loss report does not name the owner: %v", err)
			}
			// Exactly once: the loss was drained by the first report.
			if err := db.Fence(); err != nil {
				t.Errorf("second Fence = %v, want nil (loss must be reported exactly once)", err)
			}
			m := db.Metrics()
			if got := m.PairsLost.Load(); got != uint64(len(keys)) {
				t.Errorf("pairs_lost = %d, want %d", got, len(keys))
			}
			if got := m.PairsLostByPeer()[victim]; got != uint64(len(keys)) {
				t.Errorf("pairs_lost_rank_%d = %d, want %d", victim, got, len(keys))
			}
			if m.ParkOverflows.Load() == 0 {
				t.Errorf("park_overflows = %d, want >= 1", m.ParkOverflows.Load())
			}
			if m.ParkedBatches.Load() != 0 {
				t.Errorf("parked_batches = %d, want 0 with parking disabled", m.ParkedBatches.Load())
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		closeErr := db.Close()
		if rt.Rank() == victim {
			if !errors.Is(closeErr, ErrRankFailed) {
				t.Errorf("victim Close err = %v, want ErrRankFailed", closeErr)
			}
		} else if closeErr != nil {
			t.Errorf("sender Close: %v (the drained loss must not resurface)", closeErr)
		}
		return nil
	})
}

// TestRecoverRejectedAckFailsFast covers the call path's reply-error branch
// that is not a timeout: a failed owner answers a synchronous put with a
// typed rejection, which surfaces immediately (no retry ladder) as
// ErrRankFailed and trips the circuit so the next put fails fast — until the
// owner recovers and a probe closes the circuit again.
func TestRecoverRejectedAckFailsFast(t *testing.T) {
	const victim, sender = 0, 1
	inj := faults.New(0xac4e)
	opt := recoverOpt()
	opt.Consistency = Sequential
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("rejectdb", opt)
		if err != nil {
			return err
		}
		key := string(ownKeys(db, victim, 1)[0])
		if rt.Rank() == victim {
			killRank(t, db, inj, victim)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == sender {
			err := db.Put([]byte(key), []byte("v1"))
			if err == nil || !strings.Contains(err.Error(), "rejected request") {
				t.Errorf("sync put to a failed owner = %v, want a rejection", err)
			}
			if !errors.Is(err, ErrRankFailed) {
				t.Errorf("sync put to a failed owner = %v, want errors.Is ErrRankFailed", err)
			}
			if n := db.Metrics().PutSyncRetries.Load(); n != 0 {
				t.Errorf("PutSyncRetries = %d, want 0 — a rejection must not burn the retry ladder", n)
			}
			// The rejection tripped the circuit: the next put fails fast.
			err = db.Put([]byte(key), []byte("v2"))
			if err == nil || !strings.Contains(err.Error(), "circuit open") {
				t.Errorf("sync put behind the open circuit = %v, want fail-fast", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == victim {
			if err := db.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == sender {
			// Probing closes the circuit; then sequential puts flow again.
			deadline := time.Now().Add(20 * time.Second)
			for {
				err := db.Put([]byte(key), []byte("v3"))
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("circuit never closed after the owner recovered: %v", err)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := wantGet(db, key, "v3"); err != nil {
				t.Error(err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestRecoverCloseUnblocksReplyWait covers the other non-timeout reply error:
// a caller blocked awaiting an ack that will never come must be woken by
// Close with ErrInvalidDB instead of riding out its retry budget.
func TestRecoverCloseUnblocksReplyWait(t *testing.T) {
	const owner, sender = 0, 1
	inj := faults.New(0xc105e).
		// Every sync-put request from the sender vanishes in flight.
		Enable(faults.Rule{Point: faults.NetDrop, Rank: sender, Tag: tagPutOne, Count: 1, Fires: 1 << 20})
	opt := recoverOpt()
	opt.Consistency = Sequential
	opt.RetryTimeout = 5 * time.Second // long enough that only Close can wake the wait
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("closedb", opt)
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		if rt.Rank() == sender {
			go func() {
				done <- db.Put(ownKeys(db, owner, 1)[0], []byte("never"))
			}()
			time.Sleep(50 * time.Millisecond) // let the put reach awaitReply
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		closeErr := db.Close()
		if rt.Rank() == sender {
			select {
			case err := <-done:
				if !errors.Is(err, ErrInvalidDB) {
					t.Errorf("blocked put across Close = %v, want ErrInvalidDB", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not unblock the waiting put")
			}
		}
		return closeErr
	})
}

// TestDedupWindowRing pins the fixed-ring eviction that replaced the
// sliced-forward order slice (whose backing array was pinned forever and
// grew by one slot per request): the window holds at most dedupDepth acks
// per source, evicting oldest-first.
func TestDedupWindowRing(t *testing.T) {
	var w dedupWindow
	const extra = 10
	for seq := uint64(1); seq <= dedupDepth+extra; seq++ {
		w.record(3, 1, seq, ackRecord{status: statusOK})
	}
	sw := w.bySource[3]
	if len(sw.acks) != dedupDepth {
		t.Fatalf("window holds %d acks, want %d", len(sw.acks), dedupDepth)
	}
	for seq := uint64(1); seq <= extra; seq++ {
		if _, ok := w.seen(3, 1, seq); ok {
			t.Fatalf("seq %d still in the window after %d newer records", seq, dedupDepth)
		}
	}
	for seq := uint64(extra + 1); seq <= dedupDepth+extra; seq++ {
		if _, ok := w.seen(3, 1, seq); !ok {
			t.Fatalf("recent seq %d evicted early", seq)
		}
	}
	// Re-recording a live seq neither duplicates nor evicts.
	w.record(3, 1, dedupDepth+extra, ackRecord{status: statusFailed})
	if rec, ok := w.seen(3, 1, dedupDepth+extra); !ok || rec.status != statusOK {
		t.Fatal("re-record of a live seq replaced the original ack")
	}
	if _, ok := w.seen(3, 1, extra+1); !ok {
		t.Fatal("re-record of a live seq evicted a neighbour")
	}
}

// TestDedupWindowIncarnationScoping: acks remembered against one life of a
// sender must not replay against seqs its next life allocates afresh.
func TestDedupWindowIncarnationScoping(t *testing.T) {
	var w dedupWindow
	w.record(5, 1, 10, ackRecord{status: statusOK})
	if _, ok := w.seen(5, 1, 10); !ok {
		t.Fatal("recorded seq not seen under its own incarnation")
	}
	// The reborn sender reuses seq 10: a fresh request, not a duplicate.
	if _, ok := w.seen(5, 2, 10); ok {
		t.Fatal("a previous life's ack replayed against the reborn sender")
	}
	// Recording under the new incarnation discards the old window outright.
	w.record(5, 2, 99, ackRecord{status: statusOK})
	if _, ok := w.seen(5, 1, 10); ok {
		t.Fatal("old-incarnation window survived a new-incarnation record")
	}
	if _, ok := w.seen(5, 2, 99); !ok {
		t.Fatal("new-incarnation record not seen")
	}
	// reset (driven by an incarnation change observed out-of-band) forgets
	// the source entirely; other sources are untouched.
	w.record(6, 1, 7, ackRecord{status: statusOK})
	w.reset(5)
	if _, ok := w.seen(5, 2, 99); ok {
		t.Fatal("reset source still remembered")
	}
	if _, ok := w.seen(6, 1, 7); !ok {
		t.Fatal("reset leaked onto another source")
	}
}

// TestTakeLossErrDeterministic: the loss report names the lowest affected
// rank and counts the rest — never whichever rank map iteration yields first
// — and draining it is one-shot.
func TestTakeLossErrDeterministic(t *testing.T) {
	db := &DB{}
	db.failMu.Lock()
	db.lostLocked(7, fmt.Errorf("cause-7"), 4)
	db.lostLocked(2, fmt.Errorf("cause-2"), 3)
	db.lostLocked(5, fmt.Errorf("cause-5"), 1)
	db.lostLocked(2, fmt.Errorf("cause-2-again"), 2) // merges into rank 2's record
	db.failMu.Unlock()

	err := db.takeLossErr()
	if err == nil {
		t.Fatal("takeLossErr = nil with three loss records")
	}
	want := "5 pairs owned by rank 2 were not applied"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("loss report %q does not contain %q", err, want)
	}
	if !strings.Contains(err.Error(), "5 more pairs across 2 other failed peers") {
		t.Errorf("loss report %q does not count the other peers", err)
	}
	if !strings.Contains(err.Error(), "cause-2") {
		t.Errorf("loss report %q lost the root cause", err)
	}
	if err := db.takeLossErr(); err != nil {
		t.Errorf("second takeLossErr = %v, want nil (drained exactly once)", err)
	}
	if got := db.metrics.PairsLost.Load(); got != 10 {
		t.Errorf("pairs_lost = %d, want 10", got)
	}
	if by := db.metrics.PairsLostByPeer(); by[2] != 5 || by[5] != 1 || by[7] != 4 {
		t.Errorf("per-peer breakdown = %v", by)
	}
}
