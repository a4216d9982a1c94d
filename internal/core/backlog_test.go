package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/sstable"
)

// Tests for the immutable lists as the flush and migration queues
// (backlog.go): sealed tables wait in place on a rank that cannot work on
// them, every waiter terminates anyway, and order is list order.

// TestDegradedBacklogWaitsInPlace: a rank degrades with three sealed local
// and two sealed remote tables on its lists. Fence still delivers the remote
// ones (a Degraded rank migrates out); Barrier(LevelSSTable) and Close
// terminate with ErrReadOnly instead of waiting on flushes that cannot run;
// every key stays readable; and after Reclaim the next Barrier empties the
// list into L0 in seal order.
func TestDegradedBacklogWaitsInPlace(t *testing.T) {
	for _, reclaim := range []bool{true, false} {
		name := "close-degraded"
		if reclaim {
			name = "reclaim"
		}
		t.Run(name, func(t *testing.T) { degradedBacklog(t, reclaim) })
	}
}

func degradedBacklog(t *testing.T, reclaim bool) {
	const victim, hot = 0, "hot-key"
	inj := faults.New(0xbac106)
	slow := nvm.PerfModel{Name: "slow", WriteLatency: 60 * time.Millisecond, TimeScale: 1}
	pad := func(c byte) string { return strings.Repeat(string(c), 300) }
	runCluster(t, clusterSpec{ranks: 2, nvmModel: slow, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		o := faultOpt()
		o.MemTableCapacity = 256 // every put below seals a table
		o.StallSoftDepth = 64    // keep admission control out of the way
		o.WAL = WALDisabled      // keep the flush path the only device writer
		o.ProbeInterval = -1     // heal only through the explicit Reclaim
		o.Hash = func(key []byte, n int) int {
			if strings.HasPrefix(string(key), "remote-") {
				return 1
			}
			return 0
		}
		db, err := rt.Open("backlogdb", o)
		if err != nil {
			return err
		}
		remote := []string{"remote-1", "remote-2"}
		if rt.Rank() == victim {
			// The first flush fails with ENOSPC after the slow write's model
			// latency — the window all five seals land in — and migration
			// batches vanish on the wire, so the dispatcher is still retrying
			// the first remote table when the rank degrades.
			inj.Enable(faults.Rule{
				Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Tag: faults.AnyTag,
				Where: "r0/sst-", Count: 1, Fires: 1 << 20,
			})
			inj.Enable(faults.Rule{
				Point: faults.NetDrop, Rank: faults.AnyRank, Tag: tagMigBatch,
				Count: 1, Fires: 1 << 20,
			})
			for _, v := range []byte{'a', 'b', 'c'} {
				mustPut(t, db, hot, pad(v))
			}
			for _, k := range remote {
				mustPut(t, db, k, pad('r'))
			}
			waitState(t, db, StateDegraded, 10*time.Second)
			if l, r := db.immDepth(false), db.immDepth(true); l != 3 || r != 2 {
				t.Fatalf("degraded rank holds %d local / %d remote sealed tables, want 3 / 2", l, r)
			}

			// Fence on the Degraded rank delivers the remote tables.
			inj.Disable(faults.NetDrop)
			if err := db.Fence(); err != nil {
				t.Errorf("Fence on the degraded rank: %v", err)
			}
			if r := db.immDepth(true); r != 0 {
				t.Errorf("%d remote tables still listed after Fence, want 0", r)
			}
		}

		// The collective flush terminates on the rank that cannot flush, and
		// says why; its tables stay where they were, readable.
		berr := db.Barrier(LevelSSTable)
		if rt.Rank() == victim {
			if !errors.Is(berr, ErrReadOnly) {
				t.Errorf("degraded Barrier err = %v, want ErrReadOnly", berr)
			}
			if l := db.immDepth(false); l != 3 {
				t.Errorf("degraded rank holds %d local sealed tables after Barrier, want 3", l)
			}
		} else if berr != nil {
			t.Errorf("healthy rank Barrier err = %v, want nil", berr)
		}
		if err := wantGet(db, hot, pad('c')); err != nil {
			t.Errorf("rank %d: %v", rt.Rank(), err)
		}
		for _, k := range remote {
			if err := wantGet(db, k, pad('r')); err != nil {
				t.Errorf("rank %d: %v", rt.Rank(), err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		if !reclaim {
			cerr := db.Close()
			if rt.Rank() == victim && !errors.Is(cerr, ErrReadOnly) {
				t.Errorf("degraded Close err = %v, want ErrReadOnly", cerr)
			}
			if rt.Rank() != victim && cerr != nil {
				t.Errorf("healthy rank Close err = %v, want nil", cerr)
			}
			return nil
		}

		if rt.Rank() == victim {
			inj.Disable(faults.NVMWriteNoSpace)
			if err := db.Reclaim(); err != nil {
				t.Fatalf("Reclaim: %v", err)
			}
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			t.Errorf("rank %d post-reclaim Barrier: %v", rt.Rank(), err)
		}
		if rt.Rank() == victim {
			if l := db.immDepth(false); l != 0 {
				t.Errorf("%d local tables still listed after the post-reclaim Barrier, want 0", l)
			}
			// L0 is SSID-ascending; seal order put hot = a, b, c in that order.
			var got []byte
			for _, tbl := range liveTables(db) {
				entries, err := sstable.ReadAll(rt.cfg.Device, db.dir(victim), tbl.SSID)
				if err != nil || len(entries) != 1 || tbl.Level != 0 {
					t.Fatalf("table %d on L%d: %d entries, err %v", tbl.SSID, tbl.Level, len(entries), err)
				}
				got = append(got, entries[0].Value[0])
			}
			if string(got) != "abc" {
				t.Errorf("L0 flushed in order %q, want seal order \"abc\"", got)
			}
		}
		if err := wantGet(db, hot, pad('c')); err != nil {
			t.Errorf("rank %d after reclaim: %v", rt.Rank(), err)
		}
		return db.Close()
	})
}

// TestRecoverDuringInflightFlush: Recover issued while the flush thread is
// mid-write on a slow device waits that flush out, drops the lists only once
// no thread holds a table, and loses no acked put — the landed flush serves
// its pairs from the SSTable, the tables still listed replay from the WAL.
func TestRecoverDuringInflightFlush(t *testing.T) {
	slow := nvm.PerfModel{Name: "slow", WriteLatency: 60 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 1, nvmModel: slow}, func(rt *Runtime, c *mpi.Comm) error {
		o := faultOpt()
		o.MemTableCapacity = 256 // every put below seals a table
		o.WAL = WALSync
		o.ProbeInterval = -1
		db, err := rt.Open("inflightdb", o)
		if err != nil {
			return err
		}
		pad := strings.Repeat("v", 300)
		keys := ownKeys(db, 0, 4)
		for _, k := range keys {
			mustPut(t, db, string(k), pad)
		}
		// Four tables sealed, several slow device writes each: the flush
		// thread is far from done. Fail the rank while it holds a table.
		deadline := time.Now().Add(10 * time.Second)
		for {
			db.mu.Lock()
			busy := db.flushBusy
			db.mu.Unlock()
			if busy {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the flush thread never claimed a table")
			}
			time.Sleep(time.Millisecond)
		}
		db.Fail(errors.New("killed mid-flush"))
		if err := db.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		// Recover dropped the lists only after the thread let go, and the
		// replay seals nothing, so the thread cannot be holding a table now.
		db.mu.Lock()
		busy, listed := db.flushBusy, len(db.immLocal)
		db.mu.Unlock()
		if busy || listed != 0 {
			t.Errorf("after Recover: flushBusy = %v with %d tables listed, want idle and empty", busy, listed)
		}
		if err := db.Health(); err != nil {
			t.Fatalf("Health after Recover = %v, want nil", err)
		}
		for _, k := range keys {
			if err := wantGet(db, string(k), pad); err != nil {
				t.Errorf("acked put lost across Recover: %v", err)
			}
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			t.Errorf("post-recover Barrier: %v", err)
		}
		for _, k := range keys {
			if err := wantGet(db, string(k), pad); err != nil {
				t.Errorf("after the post-recover flush: %v", err)
			}
		}
		return db.Close()
	})
}

// TestParkedTableLingersOnMigrationList: a table whose batch parked behind a
// failed owner stays on immRemote — readable, pinned — while two later tables
// are sealed, sent and retired around it, and Fence keeps returning: "not
// sent yet" is the list's tail, not its head.
func TestParkedTableLingersOnMigrationList(t *testing.T) {
	const sender, down, up = 0, 1, 2
	runCluster(t, clusterSpec{ranks: 3}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("lingerdb", recoverOpt())
		if err != nil {
			return err
		}
		toDown := ownKeys(db, down, 1)[0]
		toUp := ownKeys(db, up, 3)
		if rt.Rank() == down {
			db.Fail(errors.New("taken out of service"))
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == sender {
			// Table 1 holds a pair for each owner: the failed owner's batch
			// parks and pins the table, the healthy owner's is delivered.
			mustPut(t, db, string(toDown), string(val(toDown)))
			mustPut(t, db, string(toUp[0]), string(val(toUp[0])))
			if err := db.Fence(); err == nil || !strings.Contains(err.Error(), "parked") {
				t.Errorf("Fence with an owner down = %v, want a parked-pairs report", err)
			}
			// Tables 2 and 3 are sealed, sent and retired behind it.
			for _, k := range toUp[1:] {
				mustPut(t, db, string(k), string(val(k)))
				if err := db.Fence(); err == nil || !strings.Contains(err.Error(), "parked") {
					t.Errorf("Fence with an owner down = %v, want a parked-pairs report", err)
				}
				db.mu.Lock()
				listed, pending := len(db.immRemote), db.migrPending
				db.mu.Unlock()
				if listed != 1 || pending != 0 {
					t.Errorf("immRemote holds %d tables with %d unsent, want only the parked one (1 / 0)", listed, pending)
				}
			}
			if err := wantGet(db, string(toDown), string(val(toDown))); err != nil {
				t.Errorf("parked pair unreadable at its sender: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == down {
			if err := db.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		if rt.Rank() == sender {
			waitFenceClean(t, db, 10*time.Second)
			if n := db.immDepth(true); n != 0 {
				t.Errorf("%d tables still on immRemote after redelivery, want 0", n)
			}
		}
		if err := db.Barrier(LevelMemTable); err != nil {
			return err
		}
		for _, k := range append([][]byte{toDown}, toUp...) {
			if err := wantGet(db, string(k), string(val(k))); err != nil {
				t.Errorf("rank %d: %v", rt.Rank(), err)
			}
		}
		return db.Close()
	})
}

// TestCloseLeaksNoGoroutines: every background goroutine Open started is gone
// once Close returns — on a Healthy rank, and on a Degraded and a Failed one,
// whose flush thread and dispatcher must exit with work they may not do.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	transitions := map[string]func(db *DB){
		"healthy":  func(db *DB) {},
		"degraded": func(db *DB) { db.degrade(fmt.Errorf("test: %w", nvm.ErrNoSpace)) },
		"failed":   func(db *DB) { db.Fail(errors.New("test")) },
	}
	for name, transition := range transitions {
		t.Run(name, func(t *testing.T) {
			runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
				before := runtime.NumGoroutine()
				o := faultOpt()
				o.ProbeInterval = -1 // a degraded rank must stay degraded
				db, err := rt.Open("leakdb", o)
				if err != nil {
					return err
				}
				for _, k := range ownKeys(db, 0, 100) {
					mustPut(t, db, string(k), string(val(k)))
				}
				transition(db)
				_ = db.Close() // a degraded or failed rank reports its cause
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines after Close, %d before Open:\n%s",
							runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
				return nil
			})
		})
	}
}
