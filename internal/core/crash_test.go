package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"papyruskv/internal/faults"
	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/sstable"
)

// Crash soak: kill the rank at every injection point in the
// flush/compact/checkpoint/manifest ladder, reopen over the same device
// directories, and assert the recovery contract — every acknowledged put
// readable, no deleted or overwritten value resurrected, unlisted tables
// quarantined instead of adopted. Run under -race via `make crash`.
//
// The one indeterminate operation is the op in flight when the fault fired
// (and the op that got an error back): exactly like a put in flight across
// a real crash, it is allowed to have landed or not, and the assertions
// accept either its pre-state or its post-state — nothing else.

// crashCase arms one fault rule for one soak run.
type crashCase struct {
	name string
	rule faults.Rule
	// forceRotate triggers a manifest rotation explicitly after the
	// workload — the rotate-fail point never fires in a short run
	// otherwise — and asserts the failure was counted, not fatal.
	forceRotate bool
}

func soakOpt() Options {
	o := smallOpt()
	o.CompactionEvery = 4
	o.WAL = WALSync
	return o
}

func soakKey(i int) string { return fmt.Sprintf("key-%03d", i%37) }

func soakVal(i int) string {
	return fmt.Sprintf("v%05d-%s", i, strings.Repeat("x", 40))
}

// runCrashSoak drives the workload on a single-rank cluster until tc.rule
// fires (or an operation is refused), crashes the rank, reopens, and checks
// the contract.
func runCrashSoak(t *testing.T, tc crashCase) {
	t.Helper()
	const ops = 400
	inj := faults.New(0xc4a5 ^ uint64(len(tc.name)))
	inj.Enable(tc.rule)
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("crashdb", soakOpt())
		if err != nil {
			return err
		}
		// expected holds the last acknowledged state per key ("" = an
		// acknowledged delete). The pending op is the one whose outcome a
		// crash leaves indeterminate.
		expected := map[string]string{}
		var pendingK, pendingV string
		var pendingDel, havePending bool
		for i := 0; i < ops; i++ {
			k, v := soakKey(i), soakVal(i)
			del := i%7 == 3
			var opErr error
			if del {
				v = ""
				opErr = db.Delete([]byte(k))
			} else {
				opErr = db.Put([]byte(k), []byte(v))
			}
			if opErr != nil {
				// Refused mid-crash: indeterminate, like an unacked op.
				pendingK, pendingV, pendingDel, havePending = k, v, del, true
				break
			}
			if inj.Fired(tc.rule.Point) > 0 {
				// Acked, but the fault fired during (or concurrent with)
				// this op: its durability is the crash's loss window.
				pendingK, pendingV, pendingDel, havePending = k, v, del, true
				break
			}
			expected[k] = v
		}
		if tc.forceRotate && db.man != nil {
			if err := db.man.Rotate(); err == nil {
				t.Errorf("%s: forced rotation did not hit the armed rule", tc.name)
			}
			if db.Metrics().Manifest.RotateErrors.Load() == 0 {
				t.Errorf("%s: failed rotation was not counted", tc.name)
			}
			// Non-fatal by contract: the old log stays authoritative and
			// appends continue.
			if err := db.Health(); err != nil {
				t.Errorf("%s: rank unhealthy after failed rotation: %v", tc.name, err)
			}
		}

		// Crash. A still-healthy rank (the fault may be latent, e.g. a WAL
		// tear) is killed outright so Close cannot launder the loss window
		// through its final flush; a failed rank skips that flush anyway.
		if db.Health() == nil && !tc.forceRotate {
			inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 1, Fires: 1})
		}
		_ = db.Close()
		inj.Disable(faults.CoreKill)
		inj.Disable(tc.rule.Point)

		db2, err := rt.Open("crashdb", soakOpt())
		if err != nil {
			return fmt.Errorf("%s: reopen: %w", tc.name, err)
		}
		if err := db2.Health(); err != nil {
			t.Fatalf("%s: rank unhealthy after reopen: %v", tc.name, err)
		}
		if inj.Fired(tc.rule.Point) == 0 {
			t.Fatalf("%s: the armed fault never fired; the rung tested nothing", tc.name)
		}
		for k, want := range expected {
			got, err := db2.Get([]byte(k))
			if havePending && k == pendingK {
				ok := (pendingDel && errors.Is(err, ErrNotFound)) ||
					(!pendingDel && err == nil && string(got) == pendingV) ||
					(want == "" && errors.Is(err, ErrNotFound)) ||
					(want != "" && err == nil && string(got) == want)
				if !ok {
					t.Errorf("%s: indeterminate key %s = %q (err %v); want acked %q or pending (del=%v) %q",
						tc.name, k, got, err, want, pendingDel, pendingV)
				}
				continue
			}
			if want == "" {
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: deleted key %s resurrected: %q (err %v)", tc.name, k, got, err)
				}
			} else if err != nil || string(got) != want {
				t.Errorf("%s: acked put lost or stale: Get(%s) = %q (err %v), want %q",
					tc.name, k, got, err, want)
			}
		}
		// A key never written must never materialise from a quarantined
		// orphan.
		if err := wantMissing(db2, "never-written"); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		return db2.Close()
	})
}

// TestCrashLadder is the `make crash` soak: one run per rung of the
// fault ladder.
func TestCrashLadder(t *testing.T) {
	any := func(p faults.Point, count uint64, where string) faults.Rule {
		return faults.Rule{Point: p, Rank: faults.AnyRank, Tag: faults.AnyTag,
			Where: where, Count: count, Fires: 1}
	}
	cases := []crashCase{
		// Background-thread kills at increasing depths: before the first
		// flush, mid-ladder, and in compaction's post-commit window.
		{name: "kill-1", rule: any(faults.CoreKill, 1, "")},
		{name: "kill-3", rule: any(faults.CoreKill, 3, "")},
		{name: "kill-5", rule: any(faults.CoreKill, 5, "")},
		// WAL record torn mid-append: the record and everything after it
		// is the loss window; everything acked before must replay.
		{name: "wal-torn-early", rule: any(faults.WALTornAppend, 5, "")},
		{name: "wal-torn-late", rule: any(faults.WALTornAppend, 60, "")},
		// Manifest edit torn mid-append: the flush's table is never
		// committed — quarantined on reopen — and its WAL segment, never
		// dropped, replays every pair.
		{name: "manifest-torn-first-flush", rule: any(faults.ManifestTornAppend, 2, "")},
		{name: "manifest-torn-later", rule: any(faults.ManifestTornAppend, 3, "")},
		// Device-level write error on the manifest log: same contract
		// through the organic error path.
		{name: "manifest-write-error", rule: any(faults.NVMWriteError, 2, "manifest/log")},
		// Failed rotation: non-fatal, counted, old log authoritative.
		{name: "manifest-rotate-fail", rule: any(faults.ManifestRotateFail, 1, ""), forceRotate: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runCrashSoak(t, tc) })
	}
}

// TestCrashCompactionCommitWindow pins the exact window the manifest
// exists to close — a crash after the compaction edit commits but before
// the inputs are unlinked — and the SSID-reuse regression in one:
//
//   - the reopened rank must compose the merged version from the log,
//     quarantine every leftover input (counted, never adopted), and serve
//     no resurrected overwrite or delete;
//   - the persisted allocator floor must clear the merged SSID, which a
//     directory-scan-derived max(listed)+1 also happens to satisfy here —
//     the distinguishing case, deleting the highest table, is pinned at
//     the manifest layer (TestManifestNextSSIDSurvivesDelete) and held up
//     by the floor this test proves survives the crash.
func TestCrashCompactionCommitWindow(t *testing.T) {
	inj := faults.New(0xc0117)
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		opt := soakOpt()
		opt.CompactionEvery = 0 // compaction driven by hand below
		db, err := rt.Open("window", opt)
		if err != nil {
			return err
		}
		// Three generations of the same keys across three flushed tables:
		// the compaction inputs hold exactly the stale values a botched
		// recovery would resurrect. key-9 is deleted in the newest table.
		for gen := 0; gen < 3; gen++ {
			for i := 0; i < 12; i++ {
				mustPut(t, db, fmt.Sprintf("key-%d", i), fmt.Sprintf("gen%d-%d", gen, i))
			}
			if gen == 2 {
				if err := db.Delete([]byte("key-9")); err != nil {
					return err
				}
			}
			if err := db.Barrier(LevelSSTable); err != nil {
				return err
			}
		}
		if n := db.SSTableCount(); n < 2 {
			t.Fatalf("only %d SSTables before compaction; the window needs inputs", n)
		}
		db.sstMu.RLock()
		inputs := len(db.liveSSIDsLocked())
		mergedID := db.nextSSID
		db.sstMu.RUnlock()

		// Arm the kill and compact: the edit commits, maybeKill fires in
		// the post-commit window, and the inputs are never unlinked.
		inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 1, Fires: 1})
		db.compact()
		if inj.Fired(faults.CoreKill) != 1 {
			t.Fatalf("CoreKill fired %d times, want 1 (in compact's post-commit window) — log:\n%v",
				inj.Fired(faults.CoreKill), inj.Log())
		}
		_ = db.Close()
		inj.Disable(faults.CoreKill)

		db2, err := rt.Open("window", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if err := db2.Health(); err != nil {
			t.Fatalf("unhealthy after reopen: %v", err)
		}
		// The manifest's version: the merged table alone. The leftover
		// inputs are quarantined, not adopted.
		if n := db2.SSTableCount(); n != 1 {
			t.Errorf("reopened with %d live SSTables, want 1 (the merged output)", n)
		}
		if q := db2.Metrics().QuarantinedTables.Load(); q != uint64(inputs) {
			t.Errorf("quarantined_tables = %d, want %d (every leftover input)", q, inputs)
		}
		db2.sstMu.RLock()
		next := db2.nextSSID
		db2.sstMu.RUnlock()
		if next != mergedID+1 {
			t.Errorf("nextSSID after reopen = %d, want %d: the allocator floor must clear the merged table",
				next, mergedID+1)
		}
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("key-%d", i)
			if i == 9 {
				if err := wantMissing(db2, k); err != nil {
					t.Errorf("deleted key resurrected across the commit window: %v", err)
				}
				continue
			}
			if err := wantGet(db2, k, fmt.Sprintf("gen2-%d", i)); err != nil {
				t.Errorf("overwrite resurrected or lost across the commit window: %v", err)
			}
		}
		return db2.Close()
	})
}

// TestCrashCheckpointMatrix kills a re-checkpoint at each phase of the
// two-phase commit — mid-transfer, and between the file copies and the
// commit record — and asserts the previously committed generation still
// restores intact both times; then a clean retry supersedes it.
func TestCrashCheckpointMatrix(t *testing.T) {
	inj := faults.New(0xcc97)
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		opt := soakOpt()
		db, err := rt.Open("ckptdb", opt)
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			mustPut(t, db, fmt.Sprintf("key-%d", i), fmt.Sprintf("A-%d", i))
		}
		ev, err := db.Checkpoint("snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return fmt.Errorf("baseline checkpoint: %w", err)
		}

		// Phase B state the failed re-checkpoints must NOT capture.
		for i := 0; i < 20; i++ {
			mustPut(t, db, fmt.Sprintf("key-%d", i), fmt.Sprintf("B-%d", i))
		}
		mustPut(t, db, "b-only", "B")

		restoreAndCheck := func(name, wantPrefix string, wantBOnly bool) error {
			rdb, rev, err := rt.Restart("snap", name, opt, false)
			if err != nil {
				return fmt.Errorf("restart %s: %w", name, err)
			}
			if err := rev.Wait(); err != nil {
				return fmt.Errorf("restore %s: %w", name, err)
			}
			for i := 0; i < 20; i++ {
				if err := wantGet(rdb, fmt.Sprintf("key-%d", i), fmt.Sprintf("%s-%d", wantPrefix, i)); err != nil {
					t.Errorf("restore %s: %v", name, err)
				}
			}
			if wantBOnly {
				if err := wantGet(rdb, "b-only", "B"); err != nil {
					t.Errorf("restore %s: %v", name, err)
				}
			} else if err := wantMissing(rdb, "b-only"); err != nil {
				t.Errorf("restore %s leaked uncommitted state: %v", name, err)
			}
			return rdb.Close()
		}

		// Crash point 1: mid-transfer into the new generation directory.
		inj.Enable(faults.Rule{Point: faults.NVMWriteError, Rank: faults.AnyRank, Tag: faults.AnyTag,
			Where: "/g2/", Count: 1, Fires: 1})
		ev, err = db.Checkpoint("snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err == nil {
			t.Fatalf("checkpoint with a torn transfer reported success")
		}
		inj.Disable(faults.NVMWriteError)
		if err := restoreAndCheck("restored-after-xfer-crash", "A", false); err != nil {
			return err
		}

		// Crash point 2: every file copied, the commit record never lands.
		inj.Enable(faults.Rule{Point: faults.NVMWriteError, Rank: faults.AnyRank, Tag: faults.AnyTag,
			Where: "MANIFEST", Count: 1, Fires: 1})
		ev, err = db.Checkpoint("snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err == nil {
			t.Fatalf("checkpoint with a failed commit record reported success")
		}
		inj.Disable(faults.NVMWriteError)
		if err := restoreAndCheck("restored-after-commit-crash", "A", false); err != nil {
			return err
		}

		// Clean retry: the new generation commits and supersedes the old.
		ev, err = db.Checkpoint("snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return fmt.Errorf("clean re-checkpoint: %w", err)
		}
		if err := restoreAndCheck("restored-clean", "B", true); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestCrashUnlistedTablesNeverAdopted: the manifest log alone decides which
// SSTables are live, with no exception for an empty log. Tables on the device
// that no edit lists — a WALDisabled rank that crashed between its first
// WriteTable and its first manifest commit leaves exactly this, a never-acked
// table beside an empty log — are quarantined and counted on open, and their
// keys never materialise.
func TestCrashUnlistedTablesNeverAdopted(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		dev, dir := rt.cfg.Device, "orphandb/r0"
		for ssid := uint64(1); ssid <= 2; ssid++ {
			k := []byte(fmt.Sprintf("orphan-%d", ssid))
			if _, err := sstable.WriteTable(dev, dir, ssid, []memtable.Entry{{Key: k, Value: val(k)}}); err != nil {
				return err
			}
		}
		opt := smallOpt()
		opt.WAL = WALDisabled
		db, err := rt.Open("orphandb", opt)
		if err != nil {
			return err
		}
		if err := db.Health(); err != nil {
			t.Fatalf("unhealthy after open: %v", err)
		}
		if n := db.SSTableCount(); n != 0 {
			t.Errorf("opened with %d live tables, want 0 (the log lists none)", n)
		}
		if q := db.Metrics().QuarantinedTables.Load(); q != 2 {
			t.Errorf("quarantined_tables = %d, want 2", q)
		}
		for ssid := 1; ssid <= 2; ssid++ {
			for _, suffix := range []string{"data", "idx", "bloom"} {
				if q := fmt.Sprintf("%s/quarantine/sst-%06d.%s", dir, ssid, suffix); !dev.Exists(q) {
					t.Errorf("quarantined file %s missing", q)
				}
			}
			if err := wantMissing(db, fmt.Sprintf("orphan-%d", ssid)); err != nil {
				t.Errorf("unlisted table's key materialised: %v", err)
			}
		}
		return db.Close()
	})
}
