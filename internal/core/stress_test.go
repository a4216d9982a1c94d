package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/workload"
)

// TestMixedOpsMirror runs a long random put/get/delete sequence across a
// cluster against a per-owner reference map, checking full equivalence at
// every barrier. This is the broadest end-to-end invariant test: after a
// barrier, every rank observes exactly the reference contents.
func TestMixedOpsMirror(t *testing.T) {
	const ranks = 4
	const rounds = 5
	const opsPerRound = 300
	runCluster(t, clusterSpec{ranks: ranks, groupSize: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 3
		db, err := rt.Open("mirror", opt)
		if err != nil {
			return err
		}
		// All ranks derive the same op stream deterministically, but
		// each rank only EXECUTES its own slice; every rank can still
		// compute the expected global state.
		rng := rand.New(rand.NewSource(99))
		type op struct {
			rank int
			del  bool
			key  string
			val  string
		}
		var script []op
		for round := 0; round < rounds; round++ {
			for i := 0; i < opsPerRound; i++ {
				script = append(script, op{
					rank: rng.Intn(ranks),
					del:  rng.Intn(5) == 0,
					key:  fmt.Sprintf("k%03d", rng.Intn(200)),
					val:  fmt.Sprintf("v-%d-%d", round, i),
				})
			}
		}
		mirror := map[string]string{}
		for round := 0; round < rounds; round++ {
			for i := 0; i < opsPerRound; i++ {
				o := script[round*opsPerRound+i]
				// Within a round, writes to one key must come from one
				// rank only, or the arrival order at the owner is
				// nondeterministic; assign each key to writer key%ranks.
				writer := int(o.key[1]-'0')*100 + int(o.key[2]-'0')*10 + int(o.key[3]-'0')
				writer %= ranks
				if writer == c.Rank() {
					if o.del {
						if err := db.Delete([]byte(o.key)); err != nil {
							return err
						}
					} else if err := db.Put([]byte(o.key), []byte(o.val)); err != nil {
						return err
					}
				}
				// Every rank tracks the same expected state.
				if o.del {
					delete(mirror, o.key)
				} else {
					mirror[o.key] = o.val
				}
			}
			// Wait: mirror must only apply ops executed by SOME rank.
			// Ops are partitioned by writer, and every op IS executed by
			// its writer, so the mirror is exact. Synchronise and check.
			level := LevelMemTable
			if round%2 == 1 {
				level = LevelSSTable
			}
			if err := db.Barrier(level); err != nil {
				return err
			}
			for k := 0; k < 200; k++ {
				key := fmt.Sprintf("k%03d", k)
				want, exists := mirror[key]
				got, err := db.Get([]byte(key))
				switch {
				case exists && err != nil:
					return fmt.Errorf("round %d rank %d: Get(%s) = %v, want %q", round, c.Rank(), key, err, want)
				case exists && string(got) != want:
					return fmt.Errorf("round %d rank %d: Get(%s) = %q, want %q", round, c.Rank(), key, got, want)
				case !exists && !errors.Is(err, ErrNotFound):
					return fmt.Errorf("round %d rank %d: Get(%s) = %q,%v, want NotFound", round, c.Rank(), key, got, err)
				}
			}
			if err := db.Barrier(LevelMemTable); err != nil {
				return err
			}
		}
		return db.Close()
	})
}

// TestQueueBackPressure drives puts far faster than the flush thread can
// drain a (tiny) admission threshold, relying on the paper's back-pressure:
// puts stall while the immutable list is full rather than exhausting
// memory, and nothing is lost.
func TestQueueBackPressure(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.StallSoftDepth = 2
		opt.MemTableCapacity = 512
		opt.LocalCacheCapacity = 0
		db, err := rt.Open("bp", opt)
		if err != nil {
			return err
		}
		for i := 0; i < 2000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), workload.Value(64, i)); err != nil {
				return err
			}
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		for i := 0; i < 2000; i += 97 {
			want := workload.Value(64, i)
			got, err := db.Get([]byte(fmt.Sprintf("key-%05d", i)))
			if err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("key-%05d: %v", i, err)
			}
		}
		return db.Close()
	})
}

// TestRankFailurePropagatesDuringOps injects a failure in one rank's
// application code mid-run; the world must abort rather than hang, and the
// root cause must surface.
func TestRankFailurePropagatesDuringOps(t *testing.T) {
	base := t.TempDir()
	injected := errors.New("injected failure")
	world := mpi.NewWorld(3, mpi.Topology{})
	err := world.Run(func(c *mpi.Comm) error {
		rt, err := NewRuntime(Config{Comm: c, Device: mustDev(t, base, c.Rank())})
		if err != nil {
			return err
		}
		db, err := rt.Open("fail", DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			return injected
		}
		// The other ranks block in a collective that rank 1 never joins.
		err = db.Barrier(LevelMemTable)
		if err == nil {
			return errors.New("barrier succeeded despite failed rank")
		}
		return nil
	})
	if !errors.Is(err, injected) {
		t.Fatalf("Run error = %v, want injected failure", err)
	}
}

// TestRestartAfterSimulatedCrash models the paper's fault-tolerance story:
// a run checkpoints, "crashes" (the job simply ends without closing), the
// NVM is trimmed, and a new run recovers everything from the snapshot.
func TestRestartAfterSimulatedCrash(t *testing.T) {
	base := t.TempDir()
	spec := clusterSpec{ranks: 3, baseDir: base}
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("crashy", smallOpt())
		if err != nil {
			return err
		}
		for i := 0; i < 90; i++ {
			if err := db.Put([]byte(fmt.Sprintf("r%d-%02d", c.Rank(), i)), workload.Value(40, i)); err != nil {
				return err
			}
		}
		ev, err := db.Checkpoint("crash-snap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		// Post-snapshot work that will be lost in the crash.
		if err := db.Put([]byte(fmt.Sprintf("lost-%d", c.Rank())), []byte("gone")); err != nil {
			return err
		}
		// Crash: no Close, no Barrier. The runtime threads die with the
		// world; recovery comes solely from the snapshot. A real crash
		// kills the compaction workers too, but the harness cannot kill
		// goroutines — fail the rank, which stops every worker at its next
		// pick, and drain any in-flight job, so no leaked worker unlinks
		// tables after the next run restores into these same directories.
		db.Fail(errors.New("simulated crash"))
		db.compact()
		return nil
	})
	// Job teardown trims the NVM scratch.
	for r := 0; r < 3; r++ {
		if err := mustDev(t, base, r).Trim(); err != nil {
			t.Fatal(err)
		}
	}
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		db, ev, err := rt.Restart("crash-snap", "crashy", smallOpt(), false)
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		for r := 0; r < 3; r++ {
			for i := 0; i < 90; i += 13 {
				k := fmt.Sprintf("r%d-%02d", r, i)
				got, err := db.Get([]byte(k))
				if err != nil || !bytes.Equal(got, workload.Value(40, i)) {
					return fmt.Errorf("recovered %s: %v", k, err)
				}
			}
			if err := wantMissing(db, fmt.Sprintf("lost-%d", r)); err != nil {
				return fmt.Errorf("post-snapshot write survived the crash: %w", err)
			}
		}
		return db.Close()
	})
}

// mustDev opens the per-rank device directory used by runCluster's default
// (one group per rank) layout.
func mustDev(t *testing.T, base string, rank int) *nvm.Device {
	t.Helper()
	d, err := nvm.Open(filepath.Join(base, fmt.Sprintf("nvm-g%d", rank)), nvm.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
