package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"papyruskv/internal/mpi"
	"papyruskv/internal/sstable"
)

// quietOpt is smallOpt with every background actor that could touch the
// SSTables or allocate on its own switched off: no local cache, compaction
// only when a test forces it, no scrub thread, no prober, no WAL thread.
func quietOpt() Options {
	o := smallOpt()
	o.LocalCacheCapacity = 0
	o.CompactionEvery = 0
	o.ScrubInterval = -1
	o.ScrubBytesPerSec = -1
	o.ProbeInterval = -1
	o.WAL = WALDisabled
	return o
}

// viewStats reports the handles holding an open table and the pins on the
// current view beyond the DB's own.
func (db *DB) viewStats() (openTables, pins int64) {
	return db.openTables.Load(), db.view.Load().refs.Load() - 1
}

func churnKey(i int) string { return fmt.Sprintf("ck-%04d", i) }

func churnVal(i int) string { return fmt.Sprintf("cv-%04d-%s", i, strings.Repeat("x", 48)) }

// churnDeleted marks the keys the churn test deletes.
func churnDeleted(i int) bool { return i%7 == 3 }

// damageBehindHandle flips a bit in the data file of live table ssid after
// making sure the view's handle holds it open: the next open of the file
// reads the damage, the descriptor the gets are using does not. A scrub
// then finds and repairs the table while gets race the handle swap, and no
// get is owed an ErrCorrupt.
func damageBehindHandle(t *testing.T, db *DB, ssid uint64) {
	t.Helper()
	v := db.pinView()
	for tb := range v.tables(nil, nil, false) {
		if tb.SSID == ssid {
			if _, _, err := tb.h.table(); err != nil {
				t.Errorf("open table %d: %v", ssid, err)
			}
		}
	}
	db.unpinView(v)
	name := sstable.DataName(db.ownDir, ssid)
	dev := db.rt.cfg.Device
	data, err := dev.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	data[len(data)/2] ^= 0x10
	if err := dev.WriteFile(name, data); err != nil {
		t.Fatalf("rewrite %s: %v", name, err)
	}
}

// TestOwnGetAllocs pins what an own-rank get costs the allocator when it is
// served from a deeper-level SSTable of a quiesced rank: the value copied
// out of the block buffer and the caller's copy at the API edge — no
// candidate-id slice, no directory string, no per-table pin.
func TestOwnGetAllocs(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("allocs", quietOpt())
		if err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			mustPut(t, db, churnKey(i), churnVal(i))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		db.compact()
		db.sstMu.RLock()
		deep := len(db.levels) > 1 && len(db.levels[0]) == 0
		db.sstMu.RUnlock()
		if !deep {
			return fmt.Errorf("compaction left tables on L0")
		}
		key := []byte(churnKey(77))
		if err := wantGet(db, churnKey(77), churnVal(77)); err != nil {
			return err
		}
		// The two copies of the value; the same get allocated 6 times when
		// each probe went through the reader cache.
		const bound = 2
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := db.Get(key); err != nil {
				t.Error(err)
			}
		})
		if allocs > bound {
			t.Errorf("own-rank SSTable get allocates %v times, want <= %d", allocs, bound)
		}
		return db.Close()
	})
}

// TestGetRacesTableChurn races value-checked gets against everything that
// replaces a rank's tables under them: forced compactions, a scrub repair
// of a table damaged at rest, checkpoints, and a restore of the checkpoint
// into a second database on the same device. Every get returns its key's
// value, or ErrNotFound for a deleted key; and once the database closes,
// every table handle it opened is closed and no pin on its view remains.
// Sequential search reopens every table it probes by name, so its variant
// proves that no table's files go while a view naming it is pinned; it
// skips the damage, which it would read.
func TestGetRacesTableChurn(t *testing.T) {
	for name, mode := range map[string]sstable.SearchMode{
		"binary":     sstable.BinarySearch,
		"sequential": sstable.SequentialSearch,
	} {
		t.Run(name, func(t *testing.T) { testGetRacesTableChurn(t, mode) })
	}
}

func testGetRacesTableChurn(t *testing.T, mode sstable.SearchMode) {
	const n, rounds, getters = 300, 3, 3
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := quietOpt()
		opt.SearchMode = mode
		db, err := rt.Open("churn", opt)
		if err != nil {
			return err
		}
		load := func(stride int) {
			for j := 0; j < n; j++ {
				i := (j * stride) % n
				if churnDeleted(i) {
					if err := db.Delete([]byte(churnKey(i))); err != nil {
						t.Errorf("Delete(%s): %v", churnKey(i), err)
					}
				} else {
					mustPut(t, db, churnKey(i), churnVal(i))
				}
			}
			if err := db.Barrier(LevelSSTable); err != nil {
				t.Errorf("Barrier: %v", err)
			}
		}
		load(1)
		// Reopened, the rank composes its version from the manifest: every
		// handle starts unloaded, so the first gets open tables that the
		// churn below is already compacting away.
		if err := db.Close(); err != nil {
			return err
		}
		if db, err = rt.Open("churn", opt); err != nil {
			return err
		}

		var stop atomic.Bool
		var gets atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < getters; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					i := rng.Intn(n)
					got, err := db.Get([]byte(churnKey(i)))
					switch {
					case churnDeleted(i) && !errors.Is(err, ErrNotFound):
						t.Errorf("Get(%s) of a deleted key = %q, %v", churnKey(i), got, err)
					case !churnDeleted(i) && (err != nil || string(got) != churnVal(i)):
						t.Errorf("Get(%s) = %q, %v", churnKey(i), got, err)
					}
					gets.Add(1)
				}
			}(int64(g))
		}

		for r := 0; r < rounds; r++ {
			load(7 + 2*r) // a fresh set of L0 tables holding the same versions
			db.compact()
			path := fmt.Sprintf("churn-ckpt-%d", r)
			ev, err := db.Checkpoint(path)
			if err == nil {
				err = ev.Wait()
			}
			if err != nil {
				t.Errorf("checkpoint: %v", err)
				break
			}
			// Sequential search reads the damage itself — it opens the file
			// on every probe — so only handle reads race the repair.
			if mode == sstable.BinarySearch {
				repairs := db.Metrics().Scrub.Repairs.Load()
				tables := liveTables(db)
				damageBehindHandle(t, db, tables[r%len(tables)].SSID)
				if err := db.Scrub(); err != nil {
					t.Errorf("scrub: %v", err)
				}
				if db.Metrics().Scrub.Repairs.Load() != repairs+1 {
					t.Errorf("round %d: the damaged table was not repaired", r)
				}
			}
			rdb, rev, err := rt.Restart(path, fmt.Sprintf("churn-restored-%d", r), opt, false)
			if err == nil {
				err = rev.Wait()
			}
			if err != nil {
				t.Errorf("restore: %v", err)
				break
			}
			for i := 0; i < n; i += 37 {
				got, err := rdb.Get([]byte(churnKey(i)))
				if churnDeleted(i) != errors.Is(err, ErrNotFound) || !churnDeleted(i) && string(got) != churnVal(i) {
					t.Errorf("restored Get(%s) = %q, %v", churnKey(i), got, err)
				}
			}
			if err := rdb.Close(); err != nil {
				t.Errorf("close restored: %v", err)
			}
			if open, pins := rdb.viewStats(); open != 0 || pins != 0 {
				t.Errorf("restored database closed with %d open tables, %d view pins", open, pins)
			}
		}
		stop.Store(true)
		wg.Wait()
		if gets.Load() == 0 {
			return fmt.Errorf("no get ran during the churn")
		}
		if db.Metrics().Compactions.Load() == 0 {
			return fmt.Errorf("the churn ran no compaction")
		}
		if err := db.Close(); err != nil {
			return err
		}
		if open, pins := db.viewStats(); open != 0 || pins != 0 {
			t.Errorf("closed with %d open tables, %d view pins; want none", open, pins)
		}
		return nil
	})
}
