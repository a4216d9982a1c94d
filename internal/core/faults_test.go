package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
)

// faultOpt is smallOpt tuned for fault tests: compaction off (so no
// background reads race targeted read faults) and a fast retry budget.
func faultOpt() Options {
	o := smallOpt()
	o.CompactionEvery = 0
	o.RetryTimeout = 200 * time.Millisecond
	return o
}

// ownKeys returns n keys owned by rank under db's hash.
func ownKeys(db *DB, rank, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if db.Owner(k) == rank {
			keys = append(keys, k)
		}
	}
	return keys
}

func val(k []byte) []byte { return append([]byte("v-"), k...) }

// TestFaultBitFlipStorageGroupRead is acceptance scenario (a): a bit flip on
// the storage group's shared NVM device turns a storage-group read into
// ErrCorrupt — never silently wrong data — while ranks on the healthy device
// keep serving, and the corruption does not fail anyone's failure domain.
func TestFaultBitFlipStorageGroupRead(t *testing.T) {
	inj := faults.New(0xb17f11b)
	runCluster(t, clusterSpec{ranks: 4, groupSize: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("bitflip", faultOpt())
		if err != nil {
			return err
		}
		keys := ownKeys(db, rt.Rank(), 20)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if rt.Rank() == 1 {
			// Corrupt every read on group 0's device from now on. Ranks 2
			// and 3 live on nvm-g1 and are untouched.
			inj.Enable(faults.Rule{
				Point: faults.NVMReadBitFlip, Rank: faults.AnyRank, Tag: faults.AnyTag,
				Where: "nvm-g0", Count: 1, Fires: 1 << 20,
			})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		switch rt.Rank() {
		case 1:
			// A get of a rank-0-owned key resolves via the shared-SSTable
			// read path (§2.7): rank 1 reads rank 0's SSTables off the
			// shared device and must detect the flipped bits.
			target := ownKeys(db, 0, 1)[0]
			if _, err := db.Get(target); !errors.Is(err, ErrCorrupt) {
				t.Errorf("storage-group read of corrupt SSTable: err = %v, want ErrCorrupt", err)
			}
			if err := db.Health(); err != nil {
				t.Errorf("a read error must stay per-operation, but the domain failed: %v", err)
			}
		case 2, 3:
			for _, k := range keys {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("rank %d (healthy device) stopped serving: %v", rt.Rank(), err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 1 {
			inj.Disable(faults.NVMReadBitFlip)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
	if inj.Fired(faults.NVMReadBitFlip) == 0 {
		t.Fatal("the bit-flip rule never fired")
	}
}

// TestFaultMigrationDropRetriesExactlyOnce is acceptance scenario (b): the
// first migration batch is dropped in flight and the retried resend is
// duplicated, yet every pair lands at its owner exactly once — the retry is
// observable in the sender's metrics, the swallowed duplicate in the
// owner's.
func TestFaultMigrationDropRetriesExactlyOnce(t *testing.T) {
	inj := faults.New(0xd20b).
		Enable(faults.Rule{Point: faults.NetDrop, Rank: 1, Tag: tagMigBatch, Count: 1, Fires: 1}).
		// The drop short-circuits Send, so the retry is this rule's first
		// evaluation: the resent batch is delivered twice.
		Enable(faults.Rule{Point: faults.NetDup, Rank: 1, Tag: tagMigBatch, Count: 1, Fires: 1})
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("migdrop", faultOpt())
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 10)
		if rt.Rank() == 1 {
			for _, k := range keys {
				mustPut(t, db, string(k), string(val(k)))
			}
			if err := db.Fence(); err != nil {
				t.Errorf("Fence after drop+dup: %v", err)
			}
			if got := db.Metrics().MigrationRetries.Load(); got < 1 {
				t.Errorf("MigrationRetries = %d, want >= 1 (the dropped batch was never retried)", got)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			for _, k := range keys {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("migrated pair lost: %v", err)
				}
			}
			if got := db.Metrics().DupsDropped.Load(); got != 1 {
				t.Errorf("DupsDropped = %d, want 1 (duplicate batch must be swallowed, original applied)", got)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
	if inj.Fired(faults.NetDrop) != 1 || inj.Fired(faults.NetDup) != 1 {
		t.Fatalf("firings: drop=%d dup=%d, want 1 and 1 — injection log:\n%v",
			inj.Fired(faults.NetDrop), inj.Fired(faults.NetDup), inj.Log())
	}
}

// TestFaultKillRankRestartRecovery is acceptance scenario (c): after a
// checkpoint, one rank's background threads are killed mid-run. The victim's
// operations return the root cause, healthy ranks keep serving (including
// clean error responses from the victim's still-live message handler), Close
// stays collective without deadlocking, and a Restart from the snapshot
// recovers every checkpointed key with zero loss.
func TestFaultKillRankRestartRecovery(t *testing.T) {
	const victim = 1
	inj := faults.New(0x51ac)
	opt := faultOpt()
	runCluster(t, clusterSpec{ranks: 4, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("killdb", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, rt.Rank(), 30)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		ev, err := db.Checkpoint("snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if rt.Rank() == victim {
			inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: victim, Count: 1, Fires: 1})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == victim {
			if err := db.Put([]byte("post-kill"), []byte("x")); !errors.Is(err, ErrRankFailed) {
				t.Errorf("victim Put err = %v, want ErrRankFailed", err)
			} else if !errors.Is(err, faults.ErrInjected) {
				t.Errorf("victim Put err = %v does not carry the injected root cause", err)
			}
			if _, err := db.Get(keys[0]); !errors.Is(err, ErrRankFailed) {
				t.Errorf("victim Get err = %v, want ErrRankFailed", err)
			}
			if err := db.Health(); !errors.Is(err, ErrRankFailed) {
				t.Errorf("victim Health = %v, want ErrRankFailed", err)
			}
		} else {
			for _, k := range keys {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("healthy rank %d stopped serving: %v", rt.Rank(), err)
				}
			}
		}
		// Only probe the victim once its kill has definitely fired (the
		// barrier orders the victim's failed Put before these gets).
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() != victim {
			// The victim's message handler must still answer — with a
			// typed ErrRankFailed carried across the wire, not a hang or
			// wrong data.
			victimKey := ownKeys(db, victim, 1)[0]
			if _, err := db.Get(victimKey); !errors.Is(err, ErrRankFailed) {
				t.Errorf("get from killed rank: err = %v, want ErrRankFailed", err)
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
			inj.Disable(faults.CoreKill)
		} else if closeErr != nil {
			t.Errorf("healthy rank %d Close: %v", rt.Rank(), closeErr)
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Recovery: restore the checkpoint image. Every key put before the
		// checkpoint — the victim's included — must be served again.
		db2, ev2, err := rt.Restart("snap", "killdb", opt, false)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if err := ev2.Wait(); err != nil {
			return fmt.Errorf("restart transfer: %w", err)
		}
		for r := 0; r < rt.Size(); r++ {
			for _, k := range ownKeys(db2, r, 30) {
				if err := wantGet(db2, string(k), string(val(k))); err != nil {
					t.Errorf("rank %d lost a key after restart: %v", rt.Rank(), err)
				}
			}
		}
		return db2.Close()
	})
	if inj.Fired(faults.CoreKill) != 1 {
		t.Fatalf("CoreKill fired %d times, want 1 — injection log:\n%v", inj.Fired(faults.CoreKill), inj.Log())
	}
}

// TestFaultCorruptSnapshotRestart covers the snapshot-validation satellite:
// a snapshot whose files were bit-flipped or truncated after commit is
// refused with ErrCorrupt, a missing, superseded-format or unparseable
// manifest with ErrNoSnapshot/ErrCorrupt, and an intact snapshot still
// restores.
func TestFaultCorruptSnapshotRestart(t *testing.T) {
	spec := clusterSpec{ranks: 1}
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		opt := faultOpt()
		db, err := rt.Open("snapdb", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 40)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		ev, err := db.Checkpoint("snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		pfs := rt.cfg.PFS

		// Pick the snapshot's data file and keep pristine copies.
		files, err := pfs.List("snap/g1/r0")
		if err != nil {
			return err
		}
		var victim string
		for _, f := range files {
			if len(f) > 5 && f[len(f)-5:] == ".data" {
				victim = f
				break
			}
		}
		if victim == "" {
			t.Fatalf("no data file in snapshot: %v", files)
		}
		pristine, err := pfs.ReadFile(victim)
		if err != nil {
			return err
		}
		rawManifest, err := pfs.ReadFile("snap/MANIFEST")
		if err != nil {
			return err
		}

		// Bit flip, same size: caught by the manifest CRC during restore.
		flipped := append([]byte(nil), pristine...)
		flipped[len(flipped)/2] ^= 0x40
		if err := pfs.WriteFile(victim, flipped); err != nil {
			return err
		}
		db2, ev2, err := rt.Restart("snap", "snapdb", opt, false)
		if err != nil {
			return fmt.Errorf("restart of bit-flipped snapshot refused early: %w", err)
		}
		if err := ev2.Wait(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit-flipped snapshot: restore err = %v, want ErrCorrupt", err)
		}
		if err := db2.Close(); err != nil {
			return err
		}

		// Truncation: caught by the up-front size validation.
		if err := pfs.WriteFile(victim, pristine[:len(pristine)-3]); err != nil {
			return err
		}
		if _, _, err := rt.Restart("snap", "snapdb", opt, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated snapshot: err = %v, want ErrCorrupt", err)
		}
		if err := pfs.WriteFile(victim, pristine); err != nil {
			return err
		}

		// Unparseable manifest.
		if err := pfs.WriteFile("snap/MANIFEST", []byte("{nope")); err != nil {
			return err
		}
		if _, _, err := rt.Restart("snap", "snapdb", opt, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("garbage manifest: err = %v, want ErrCorrupt", err)
		}

		// A manifest in the superseded format 3 (no per-file levels): there is
		// one snapshot format and one decoder, so it is refused typed.
		format3 := bytes.Replace(rawManifest, []byte(`"format":4`), []byte(`"format":3`), 1)
		if bytes.Equal(format3, rawManifest) {
			t.Fatalf("manifest does not carry \"format\":4: %s", rawManifest)
		}
		if err := pfs.WriteFile("snap/MANIFEST", format3); err != nil {
			return err
		}
		if _, _, err := rt.Restart("snap", "snapdb", opt, false); !errors.Is(err, ErrNoSnapshot) {
			t.Errorf("format-3 manifest: err = %v, want ErrNoSnapshot", err)
		}

		// Missing manifest: the snapshot was never committed.
		if err := pfs.Remove("snap/MANIFEST"); err != nil {
			return err
		}
		if _, _, err := rt.Restart("snap", "snapdb", opt, false); !errors.Is(err, ErrNoSnapshot) {
			t.Errorf("missing manifest: err = %v, want ErrNoSnapshot", err)
		}

		// Intact again: the snapshot restores and serves every key.
		if err := pfs.WriteFile("snap/MANIFEST", rawManifest); err != nil {
			return err
		}
		db3, ev3, err := rt.Restart("snap", "snapdb", opt, false)
		if err != nil {
			return err
		}
		if err := ev3.Wait(); err != nil {
			return err
		}
		for _, k := range keys {
			if err := wantGet(db3, string(k), string(val(k))); err != nil {
				t.Errorf("restored snapshot lost a key: %v", err)
			}
		}
		return db3.Close()
	})
}

// TestFaultFlushFailureIsolatesDomain: an injected device write error during
// flush fails only the owning rank's domain; its Puts surface the root
// cause, while the other rank keeps serving its own data.
func TestFaultFlushFailureIsolatesDomain(t *testing.T) {
	inj := faults.New(0xf1a5)
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("flushfail", faultOpt())
		if err != nil {
			return err
		}
		keys := ownKeys(db, rt.Rank(), 20)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			inj.Enable(faults.Rule{
				Point: faults.NVMWriteError, Rank: faults.AnyRank, Tag: faults.AnyTag,
				Where: "nvm-g0", Count: 1, Fires: 1 << 20,
			})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		barErr := db.Barrier(LevelSSTable) // rank 0's flush hits the write error
		if rt.Rank() == 0 {
			if !errors.Is(barErr, ErrRankFailed) || !errors.Is(barErr, faults.ErrInjected) {
				t.Errorf("rank 0 Barrier err = %v, want ErrRankFailed wrapping the injected write error", barErr)
			}
			// The un-flushed MemTable stays readable in memory.
			if err := wantGet(db, string(keys[0]), string(val(keys[0]))); !errors.Is(err, ErrRankFailed) {
				t.Errorf("failed rank Get err = %v, want ErrRankFailed", err)
			}
			inj.Disable(faults.NVMWriteError)
		} else {
			if barErr != nil {
				t.Errorf("rank 1 Barrier err = %v, want nil (failure must not cascade)", barErr)
			}
			for _, k := range keys {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("healthy rank stopped serving: %v", err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		closeErr := db.Close()
		if rt.Rank() == 0 && !errors.Is(closeErr, ErrRankFailed) {
			t.Errorf("failed rank Close err = %v, want ErrRankFailed", closeErr)
		}
		if rt.Rank() == 1 && closeErr != nil {
			t.Errorf("healthy rank Close: %v", closeErr)
		}
		return nil
	})
}

// TestEventConcurrentWait: Event.Wait is safe to call from many goroutines;
// all observe the one completion. Run under -race.
func TestEventConcurrentWait(t *testing.T) {
	ev := newEvent()
	want := errors.New("boom")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ev.Wait()
		}(i)
	}
	ev.complete(want)
	wg.Wait()
	for i, err := range errs {
		if err != want {
			t.Fatalf("waiter %d got %v, want %v", i, err, want)
		}
	}
	// Late waiters see the memoised result too.
	if err := ev.Wait(); err != want {
		t.Fatalf("late Wait = %v", err)
	}
}
