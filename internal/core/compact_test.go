package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
)

// TestCompactionRunsDuringCheckpointCopy: a checkpoint copies a pinned read
// view, so compaction keeps running while the copy is slow. The PFS charges
// 100ms per file open, so copying two tables takes most of a second; three
// more flushes meanwhile bring L0 to CompactionEvery, and the merge must
// finish before the checkpoint's event completes. The merged-away snapshot
// tables keep their files until the copy unpins, so the snapshot restores
// every key it held. The seed suspended compaction for the whole copy.
func TestCompactionRunsDuringCheckpointCopy(t *testing.T) {
	spec := clusterSpec{ranks: 1, pfsModel: nvm.PerfModel{OpenLatency: 100 * time.Millisecond, TimeScale: 1}}
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 3
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		flushTable(t, db, "snap0", 10)
		flushTable(t, db, "snap1", 10)
		ev, err := db.Checkpoint("snap")
		if err != nil {
			return err
		}
		for _, tag := range []string{"post0", "post1", "post2"} {
			flushTable(t, db, tag, 10)
		}
		for db.Metrics().Compactions.Load() == 0 {
			if len(ev.done) > 0 {
				return fmt.Errorf("no compaction ran while the checkpoint copied")
			}
			time.Sleep(time.Millisecond)
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		if n := db.doomedTables.Load(); n != 0 {
			return fmt.Errorf("%d compacted tables still wait for a view after the copy unpinned", n)
		}
		if err := db.Close(); err != nil {
			return err
		}

		rdb, rev, err := rt.Restart("snap", "db", opt, false)
		if err != nil {
			return err
		}
		if err := rev.Wait(); err != nil {
			return err
		}
		for _, tag := range []string{"snap0", "snap1"} {
			for i := 0; i < 10; i++ {
				if err := wantGet(rdb, fmt.Sprintf("%s-%03d", tag, i), fmt.Sprintf("%s-val-%03d", tag, i)); err != nil {
					return fmt.Errorf("restored: %w", err)
				}
			}
		}
		if err := wantMissing(rdb, "post0-000"); err != nil {
			return fmt.Errorf("a post-checkpoint flush reached the snapshot: %w", err)
		}
		return rdb.Close()
	})
}

// flushTable writes n distinct keys under tag and barriers them into one L0
// table (the keys fit one MemTable fill well under smallOpt's capacity).
func flushTable(t *testing.T, db *DB, tag string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("%s-%03d", tag, i), fmt.Sprintf("%s-val-%03d", tag, i))
	}
	if err := db.Barrier(LevelSSTable); err != nil {
		t.Fatalf("barrier: %v", err)
	}
}

// waitCompactions blocks until the rank's table count drops to at most want
// (the background workers drained the trigger) or the deadline passes.
func waitCompactions(t *testing.T, db *DB, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.SSTableCount() > want {
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not converge: %d tables live, want <= %d", db.SSTableCount(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCompactCadence pins the trigger arithmetic: a compaction fires when
// the LIVE L0 table count reaches CompactionEvery, not when a flush's SSID
// happens to divide it. The seed counted raw SSIDs, so merge outputs (which
// also consume SSIDs) shifted every later trigger off-phase.
func TestCompactCadence(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 3
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		m := db.Metrics()

		// Two L0 tables: below the trigger, nothing may fire.
		flushTable(t, db, "a0", 10)
		flushTable(t, db, "a1", 10)
		time.Sleep(50 * time.Millisecond)
		if got := m.Compactions.Load(); got != 0 {
			t.Fatalf("compaction fired below the L0 trigger: %d merges after 2 flushes (CompactionEvery=3)", got)
		}
		if n := db.SSTableCount(); n != 2 {
			t.Fatalf("%d tables live, want the 2 flushed", n)
		}

		// The third table reaches the trigger: L0 drains into one L1 run.
		flushTable(t, db, "a2", 10)
		waitCompactions(t, db, 1)
		merges := m.Compactions.Load()
		if merges == 0 {
			t.Fatal("L0 reached CompactionEvery but no merge ran")
		}

		// The merge output consumed an SSID. Under the seed's ssid%N cadence
		// the NEXT flush would fire early; under the live-count trigger two
		// more flushes (L0=2) must stay quiet.
		flushTable(t, db, "b0", 10)
		flushTable(t, db, "b1", 10)
		time.Sleep(50 * time.Millisecond)
		if got := m.Compactions.Load(); got != merges {
			t.Fatalf("merge-output SSID shifted the cadence: %d merges after 2 fresh flushes, want %d", got, merges)
		}

		// And the third fresh table fires again. The "b" keys sort after
		// the L1 "a" run, so the merge lands beside it: two disjoint L1
		// tables, empty L0.
		flushTable(t, db, "b2", 10)
		waitCompactions(t, db, 2)
		if got := m.Compactions.Load(); got <= merges {
			t.Fatalf("second trigger never fired: %d merges, want > %d", got, merges)
		}
		return db.Close()
	})
}

// TestCompactCrashCommitWindowLeveled kills the rank in a leveled job's
// post-commit pre-unlink window — an L0→L1 merge whose inputs span BOTH
// levels — and asserts the reopen composes exactly the committed version:
// the merged table alone, installed on L1, every leftover input quarantined,
// and no value or delete resurrected across the level boundary.
func TestCompactCrashCommitWindowLeveled(t *testing.T) {
	inj := faults.New(0x13e31 ^ 0xffff)
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0 // driven by hand
		db, err := rt.Open("leveled-window", opt)
		if err != nil {
			return err
		}
		// Generation 0 in two L0 tables, merged down to one L1 run.
		for gen := 0; gen < 2; gen++ {
			for i := 0; i < 12; i++ {
				mustPut(t, db, fmt.Sprintf("key-%02d", i), fmt.Sprintf("gen%d-%d", gen, i))
			}
			if err := db.Barrier(LevelSSTable); err != nil {
				return err
			}
		}
		db.compact()
		if n := db.SSTableCount(); n != 1 {
			t.Fatalf("setup: %d tables after the L1-building merge, want 1", n)
		}

		// Generation 2 lands in fresh L0 tables; key-09 dies. Its older
		// incarnations live only in the L1 input — resurrecting that table
		// is exactly the cross-level corruption this pins.
		for i := 0; i < 12; i++ {
			mustPut(t, db, fmt.Sprintf("key-%02d", i), fmt.Sprintf("gen2-%d", i))
		}
		if err := db.Delete([]byte("key-09")); err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		inputs := db.SSTableCount() // every live table is a job input: all of L0 + the L1 run
		if inputs < 2 {
			t.Fatalf("setup: %d tables before the cross-level merge, want >= 2", inputs)
		}
		db.sstMu.RLock()
		mergedID := db.nextSSID
		db.sstMu.RUnlock()

		inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 1, Fires: 1})
		db.compact()
		if inj.Fired(faults.CoreKill) != 1 {
			t.Fatalf("CoreKill fired %d times, want 1 (post-commit window) — log:\n%v",
				inj.Fired(faults.CoreKill), inj.Log())
		}
		_ = db.Close()
		inj.Disable(faults.CoreKill)

		db2, err := rt.Open("leveled-window", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if err := db2.Health(); err != nil {
			t.Fatalf("unhealthy after reopen: %v", err)
		}
		if n := db2.SSTableCount(); n != 1 {
			t.Errorf("reopened with %d live tables, want 1 (the merged output)", n)
		}
		if q := db2.Metrics().QuarantinedTables.Load(); q != uint64(inputs) {
			t.Errorf("quarantined_tables = %d, want %d (every leftover input)", q, inputs)
		}
		db2.sstMu.RLock()
		levels := make([]int, len(db2.levels))
		for n := range db2.levels {
			levels[n] = len(db2.levels[n])
		}
		next := db2.nextSSID
		db2.sstMu.RUnlock()
		if len(levels) < 2 || levels[0] != 0 || levels[1] != 1 {
			t.Errorf("reopened level layout %v, want the merged table alone on L1", levels)
		}
		if next != mergedID+1 {
			t.Errorf("nextSSID after reopen = %d, want %d", next, mergedID+1)
		}
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("key-%02d", i)
			if i == 9 {
				if err := wantMissing(db2, k); err != nil {
					t.Errorf("delete resurrected across the level boundary: %v", err)
				}
				continue
			}
			if err := wantGet(db2, k, fmt.Sprintf("gen2-%d", i)); err != nil {
				t.Errorf("overwrite resurrected or lost: %v", err)
			}
		}
		return db2.Close()
	})
}

// TestCompactScanPinAcrossLevelMove opens an iterator over L0 tables, moves
// those exact tables to L1 underneath it, and asserts the snapshot view
// survives: the synchronous compaction returns without waiting for the
// iterator, the inputs' files stay on the device while it reads them, the
// iterator reads the pre-compaction values to the end, and closing it
// removes the files.
func TestCompactScanPinAcrossLevelMove(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0 // the level move below is explicit
		db, err := rt.Open("scan-move", opt)
		if err != nil {
			return err
		}
		flushTable(t, db, "k0", 15)
		flushTable(t, db, "k1", 15)

		it, err := db.NewIterator(nil, nil)
		if err != nil {
			return err
		}
		if len(it.scanners) == 0 {
			t.Fatal("iterator reads no tables")
		}

		// Overwrite half the keys, then compact: the pinned L0 inputs (and
		// the overwrite table) merge into one L1 run.
		for i := 0; i < 15; i += 2 {
			mustPut(t, db, fmt.Sprintf("k0-%03d", i), "overwritten")
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		db.compact()
		m := db.Metrics()
		if m.Compactions.Load() == 0 {
			t.Fatal("forced compaction did not run")
		}
		if m.ScanUnlinksDeferred.Load() == 0 {
			t.Error("the inputs' unlink did not wait for the iterator's view")
		}
		gone := supersededUnder(db, it)
		if len(gone) == 0 {
			t.Error("compaction took no table the iterator reads")
		}
		wantTableFiles(t, db, gone, 3, "iterator open")
		db.sstMu.RLock()
		layout := make([]int, len(db.levels))
		for n := range db.levels {
			layout[n] = len(db.levels[n])
		}
		db.sstMu.RUnlock()
		if len(layout) < 2 || layout[0] != 0 || layout[1] != 1 {
			t.Errorf("post-compaction layout %v, want one table on L1", layout)
		}

		// The iterator still serves the snapshot taken at open.
		seen := 0
		for it.Next() {
			k := string(it.Key())
			want := fmt.Sprintf("%s-val-%s", k[:2], k[3:])
			if string(it.Value()) != want {
				t.Errorf("scan %q = %q, want pre-compaction %q", k, it.Value(), want)
			}
			seen++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("iterator error after level move: %v", err)
		}
		if seen != 30 {
			t.Errorf("scan saw %d keys, want 30", seen)
		}
		if err := it.Close(); err != nil {
			return err
		}
		wantTableFiles(t, db, gone, 0, "iterator closed")
		if _, pins, doomed := db.viewStats(); pins != 0 || doomed != 0 {
			t.Errorf("after close: %d view pins, %d doomed tables pending; want none", pins, doomed)
		}
		// New reads follow the moved version: overwrites visible on L1.
		if err := wantGet(db, "k0-000", "overwritten"); err != nil {
			t.Errorf("post-move read: %v", err)
		}
		return db.Close()
	})
}

// TestCompactLeveledInvariants churns a multi-level tree (tiny byte budgets
// force L1→L2 victim jobs) and then checks the structural invariants every
// read path relies on: deeper levels are MinKey-sorted and pairwise
// disjoint, L0 is SSID-ordered, and every key still serves its newest value.
func TestCompactLeveledInvariants(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 2
		opt.LevelBytesBase = 4 << 10
		opt.LevelBytesGrowth = 4
		db, err := rt.Open("invariants", opt)
		if err != nil {
			return err
		}
		const keys = 120
		rounds := 0
		for round := 0; round < 5; round++ {
			rounds = round
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("key-%04d", i)
				v := fmt.Sprintf("round%d-%04d-%s", round, i, string(bytes.Repeat([]byte("x"), 48)))
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					return err
				}
			}
			if err := db.Barrier(LevelSSTable); err != nil {
				return err
			}
		}
		db.compact() // drain: leaves the tree quiescent for the checks

		db.sstMu.RLock()
		for n := 1; n < len(db.levels); n++ {
			run := db.levels[n]
			for i := 1; i < len(run); i++ {
				if bytes.Compare(run[i-1].MinKey, run[i].MinKey) >= 0 {
					t.Errorf("L%d not MinKey-sorted at %d: %q >= %q", n, i, run[i-1].MinKey, run[i].MinKey)
				}
				if bytes.Compare(run[i-1].MaxKey, run[i].MinKey) >= 0 {
					t.Errorf("L%d tables %d,%d overlap: [%q..%q] then [%q..%q]", n, i-1, i,
						run[i-1].MinKey, run[i-1].MaxKey, run[i].MinKey, run[i].MaxKey)
				}
			}
		}
		if len(db.levels) > 0 {
			l0 := db.levels[0]
			for i := 1; i < len(l0); i++ {
				if l0[i-1].SSID >= l0[i].SSID {
					t.Errorf("L0 not SSID-ordered at %d: %d >= %d", i, l0[i-1].SSID, l0[i].SSID)
				}
			}
		}
		db.sstMu.RUnlock()
		if db.Metrics().Compactions.Load() < 2 {
			t.Errorf("churn drove only %d compactions; the invariants are untested", db.Metrics().Compactions.Load())
		}

		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key-%04d", i)
			want := fmt.Sprintf("round%d-%04d-%s", rounds, i, string(bytes.Repeat([]byte("x"), 48)))
			if err := wantGet(db, k, want); err != nil {
				t.Fatalf("newest value lost in the level churn: %v", err)
			}
		}
		return db.Close()
	})
}
