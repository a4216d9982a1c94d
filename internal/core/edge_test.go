package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"papyruskv/internal/mpi"
	"papyruskv/internal/workload"
)

func TestZeroLengthValue(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		k := fmt.Sprintf("empty-%d", c.Rank())
		if err := db.Put([]byte(k), nil); err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			v, err := db.Get([]byte(fmt.Sprintf("empty-%d", r)))
			if err != nil {
				return fmt.Errorf("zero-length value get: %w", err)
			}
			if len(v) != 0 {
				return fmt.Errorf("zero-length value came back as %q", v)
			}
		}
		return db.Close()
	})
}

func TestLargeKeys(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		key := bytes.Repeat([]byte(fmt.Sprintf("bigkey-%d-", c.Rank())), 100) // ~900B keys
		if err := db.Put(key, []byte("v")); err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			k := bytes.Repeat([]byte(fmt.Sprintf("bigkey-%d-", r)), 100)
			if _, err := db.Get(k); err != nil {
				return fmt.Errorf("large key get: %w", err)
			}
		}
		return db.Close()
	})
}

func TestBinaryKeysAndValues(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		key := []byte{0, byte(c.Rank()), 0xff, 0, 'k'}
		val := []byte{0xde, 0xad, 0, 0xbe, 0xef, 0}
		if err := db.Put(key, val); err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			got, err := db.Get([]byte{0, byte(r), 0xff, 0, 'k'})
			if err != nil || !bytes.Equal(got, val) {
				return fmt.Errorf("binary key/value round trip: %q %v", got, err)
			}
		}
		return db.Close()
	})
}

func TestFenceInSequentialMode(t *testing.T) {
	// Sequential mode has no staged remote data; fence must be a no-op
	// that succeeds.
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := DefaultOptions()
		opt.Consistency = Sequential
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if err := db.Put([]byte(fmt.Sprintf("k%d", c.Rank())), []byte("v")); err != nil {
			return err
		}
		if err := db.Fence(); err != nil {
			return err
		}
		return db.Close()
	})
}

func TestFenceIdempotent(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := DefaultOptions()
		opt.Hash = func(key []byte, n int) int { return (1) % n }
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				return err
			}
			// Repeated fences: first migrates, the rest are no-ops.
			for i := 0; i < 3; i++ {
				if err := db.Fence(); err != nil {
					return err
				}
			}
			if got := db.Metrics().Migrations.Load(); got != 1 {
				return fmt.Errorf("migration batches = %d, want 1", got)
			}
		}
		if err := db.Barrier(LevelMemTable); err != nil {
			return err
		}
		return db.Close()
	})
}

func TestEventWaitTwice(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		db.Put([]byte("k"), []byte("v"))
		ev, err := db.Checkpoint("snap-twice")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		// A second Wait must return the same (nil) result, not hang.
		if err := ev.Wait(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestCheckpointPinReleasedBeforeWaitReturns: once Event.Wait returns, the
// copy is over — its view unpinned and its copy count dropped. The
// checkpoint goroutine used to complete the event first and release its pin
// second, so a Scrub issued right after the wait found the copy still
// running and silently skipped its whole cycle. The test spins on the
// event's completion and reads the count the instant it lands, a hundred
// checkpoints over, so the window is hit without the race detector's timing.
func TestCheckpointPinReleasedBeforeWaitReturns(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		mustPut(t, db, "k", "v")
		for i := 0; i < 100; i++ {
			ev, err := db.Checkpoint("snap-pin")
			if err != nil {
				return err
			}
			for len(ev.done) == 0 {
				runtime.Gosched()
			}
			copies := db.ckptCopies.Load()
			if err := ev.Wait(); err != nil {
				return err
			}
			if copies != 0 {
				t.Fatalf("checkpoint %d: %d copies running once the event completed, want 0", i, copies)
			}
		}
		return db.Close()
	})
}

func TestSequentialRemoteDelete(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := DefaultOptions()
		opt.Consistency = Sequential
		opt.Hash = func(key []byte, n int) int { return 1 % n }
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := db.Put([]byte("victim"), []byte("v")); err != nil {
				return err
			}
			// Synchronous remote delete: immediately visible at owner.
			if err := db.Delete([]byte("victim")); err != nil {
				return err
			}
			if err := rt.SignalNotify(1, []int{1}); err != nil {
				return err
			}
		} else {
			if err := rt.SignalWait(1, []int{0}); err != nil {
				return err
			}
			if err := wantMissing(db, "victim"); err != nil {
				return err
			}
		}
		return db.Close()
	})
}

func TestProtectionTransitionsMatrix(t *testing.T) {
	// Every protection transition must leave the database functional.
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		states := []Protection{RDWR, WRONLY, RDONLY, WRONLY, RDWR, RDONLY, RDWR}
		for step := 1; step < len(states); step++ {
			if err := db.SetProtection(states[step]); err != nil {
				return fmt.Errorf("transition %v -> %v: %w", states[step-1], states[step], err)
			}
			if db.Protection() != states[step] {
				return fmt.Errorf("protection = %v, want %v", db.Protection(), states[step])
			}
			k := fmt.Sprintf("s%d-r%d", step, c.Rank())
			switch states[step] {
			case RDONLY:
				if err := db.Put([]byte(k), []byte("x")); !errors.Is(err, ErrProtected) {
					return fmt.Errorf("RDONLY put = %v", err)
				}
			default:
				if err := db.Put([]byte(k), []byte("x")); err != nil {
					return err
				}
			}
		}
		if err := db.SetProtection(Protection(99)); !errors.Is(err, ErrInvalidArgument) {
			return fmt.Errorf("bogus protection accepted: %v", err)
		}
		return db.Close()
	})
}

func TestReopenAfterDestroyIsEmpty(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("phoenix", smallOpt())
		if err != nil {
			return err
		}
		db.Put([]byte(fmt.Sprintf("k%d", c.Rank())), []byte("v"))
		db.Barrier(LevelSSTable)
		ev, err := db.Destroy()
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		// Synchronise: Destroy's removal must be complete on all ranks.
		if err := c.Barrier(); err != nil {
			return err
		}
		db2, err := rt.Open("phoenix", smallOpt())
		if err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			if err := wantMissing(db2, fmt.Sprintf("k%d", r)); err != nil {
				return fmt.Errorf("destroyed data resurrected: %w", err)
			}
		}
		return db2.Close()
	})
}

func TestManyOpenCloseCycles(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		for cycle := 0; cycle < 5; cycle++ {
			db, err := rt.Open("cycle", smallOpt())
			if err != nil {
				return fmt.Errorf("cycle %d open: %w", cycle, err)
			}
			k := fmt.Sprintf("c%d-r%d", cycle, c.Rank())
			if err := db.Put([]byte(k), []byte("v")); err != nil {
				return err
			}
			// Data from every earlier cycle must still be visible
			// (zero-copy reopen accumulates SSTables).
			for old := 0; old < cycle; old++ {
				if err := wantGet(db, fmt.Sprintf("c%d-r%d", old, c.Rank()), "v"); err != nil {
					return fmt.Errorf("cycle %d: %w", cycle, err)
				}
			}
			if err := db.Close(); err != nil {
				return fmt.Errorf("cycle %d close: %w", cycle, err)
			}
		}
		return nil
	})
}

func TestValueCopyIsolation(t *testing.T) {
	// Mutating a Get result must never corrupt the store.
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		db.Put([]byte("k"), []byte("pristine"))
		v1, err := db.Get([]byte("k"))
		if err != nil {
			return err
		}
		copy(v1, "CLOBBER!")
		v2, err := db.Get([]byte("k"))
		if err != nil {
			return err
		}
		if string(v2) != "pristine" {
			return fmt.Errorf("store corrupted through returned slice: %q", v2)
		}
		// The same must hold through the SSTable + cache path.
		db.Barrier(LevelSSTable)
		v3, _ := db.Get([]byte("k"))
		copy(v3, "CLOBBER!")
		v4, err := db.Get([]byte("k"))
		if err != nil || string(v4) != "pristine" {
			return fmt.Errorf("cache corrupted through returned slice: %q %v", v4, err)
		}
		return db.Close()
	})
}

func TestUpdateHeavyCompactionChurnAcrossRanks(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 3, groupSize: 3}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 2
		opt.LocalCacheCapacity = 0
		opt.RemoteCacheCapacity = 0
		db, err := rt.Open("churn", opt)
		if err != nil {
			return err
		}
		// Each rank repeatedly overwrites its own key range; barriers
		// interleave so gets race compactions on shared storage.
		for round := 0; round < 4; round++ {
			for i := 0; i < 80; i++ {
				k := fmt.Sprintf("r%d-%02d", c.Rank(), i)
				if err := db.Put([]byte(k), workload.Value(64, round*100+i)); err != nil {
					return err
				}
			}
			if err := db.Barrier(LevelSSTable); err != nil {
				return err
			}
			for r := 0; r < 3; r++ {
				for i := 0; i < 80; i += 11 {
					k := fmt.Sprintf("r%d-%02d", r, i)
					got, err := db.Get([]byte(k))
					if err != nil {
						return fmt.Errorf("round %d get %s: %w", round, k, err)
					}
					if !bytes.Equal(got, workload.Value(64, round*100+i)) {
						return fmt.Errorf("round %d get %s: stale value", round, k)
					}
				}
			}
			if err := db.Barrier(LevelMemTable); err != nil {
				return err
			}
		}
		return db.Close()
	})
}
