package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papyruskv/internal/manifest"
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

// viewStats reports the handles holding an open table, the pins on the
// current view beyond the DB's own, and the doomed tables whose files still
// wait for a pinned view to retire.
func (db *DB) viewStats() (openTables, pins, doomed int64) {
	return db.openTables.Load(), db.view.Load().refs.Load() - 1, db.doomedTables.Load()
}

// tableFilesOnDevice counts how many of table ssid's three files the device
// holds under the rank's directory.
func tableFilesOnDevice(db *DB, ssid uint64) int {
	n := 0
	for _, name := range []string{
		sstable.DataName(db.ownDir, ssid),
		sstable.IndexName(db.ownDir, ssid),
		sstable.BloomName(db.ownDir, ssid),
	} {
		if db.rt.cfg.Device.Exists(name) {
			n++
		}
	}
	return n
}

// supersededUnder returns the tables the iterator's pinned view reads that
// the live version no longer names: what compaction or scrub took away
// under it.
func supersededUnder(db *DB, it *Iterator) []uint64 {
	live := make(map[uint64]bool)
	for _, id := range db.liveSSIDs() {
		live[id] = true
	}
	var gone []uint64
	for tb := range it.view.tables(nil, nil, false) {
		if !live[tb.SSID] {
			gone = append(gone, tb.SSID)
		}
	}
	return gone
}

// wantTableFiles reports every table in ids whose file count on the device
// is not want: 3 while a pinned view still reads a doomed table, 0 once its
// fate ran.
func wantTableFiles(t *testing.T, db *DB, ids []uint64, want int, when string) {
	t.Helper()
	for _, id := range ids {
		if n := tableFilesOnDevice(db, id); n != want {
			t.Errorf("%s: table %d has %d of its 3 files on the device, want %d", when, id, n, want)
		}
	}
}

// waitDoomedDrained polls until no doomed table is pending and every table
// in ids is gone from the device. A view's last unpin can trail the
// iterators_open gauge (and a remote scan's registry entry) by a moment.
func waitDoomedDrained(t *testing.T, db *DB, ids []uint64) {
	t.Helper()
	drained := func() bool {
		if _, _, doomed := db.viewStats(); doomed != 0 {
			return false
		}
		for _, id := range ids {
			if tableFilesOnDevice(db, id) != 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !drained(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			_, pins, doomed := db.viewStats()
			t.Errorf("rank %d: %d doomed tables still pending, %d view pins", db.rt.rank, doomed, pins)
			wantTableFiles(t, db, ids, 0, "after the last reader closed")
			return
		}
	}
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

// TestGetRacesTableChurn races value-checked gets and iterators against
// everything that replaces a rank's tables under them: forced compactions,
// a scrub repair of a table damaged at rest, checkpoints, and a restore of
// the checkpoint into a second database on the same device. Every get
// returns its key's value, or ErrNotFound for a deleted key; every iterator
// walks exactly the live keys of its range. Once the database closes, every
// table handle it opened is closed, no pin on its view remains, no doomed
// table is pending, and every SSTable file left on the device is one the
// manifest names. Sequential search reopens every table it probes by name,
// so its variant proves that no table's files go while a view naming it is
// pinned; it skips the damage, which it would read.
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

		var scans atomic.Int64
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(getters)))
			for !stop.Load() {
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				if err := walkChurnRange(db, lo, hi); err != nil {
					t.Error(err)
					return
				}
				scans.Add(1)
			}
		}()

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
			if open, pins, doomed := rdb.viewStats(); open != 0 || pins != 0 || doomed != 0 {
				t.Errorf("restored database closed with %d open tables, %d view pins, %d doomed tables", open, pins, doomed)
			}
		}
		stop.Store(true)
		wg.Wait()
		if gets.Load() == 0 || scans.Load() == 0 {
			return fmt.Errorf("%d gets and %d iterators ran during the churn", gets.Load(), scans.Load())
		}
		if db.Metrics().Compactions.Load() == 0 {
			return fmt.Errorf("the churn ran no compaction")
		}
		if err := db.Close(); err != nil {
			return err
		}
		if open, pins, doomed := db.viewStats(); open != 0 || pins != 0 || doomed != 0 {
			t.Errorf("closed with %d open tables, %d view pins, %d doomed tables; want none", open, pins, doomed)
		}
		return checkNoStrayTables(db)
	})
}

// walkChurnRange walks the churn keys [lo, hi) through an iterator and
// checks it yields exactly the live ones, in order, with their values.
func walkChurnRange(db *DB, lo, hi int) error {
	it, err := db.NewIterator([]byte(churnKey(lo)), []byte(churnKey(hi)))
	if err != nil {
		return fmt.Errorf("NewIterator(%d, %d): %w", lo, hi, err)
	}
	defer it.Close()
	next := func(i int) int {
		for i < hi && churnDeleted(i) {
			i++
		}
		return i
	}
	i := next(lo)
	for ; it.Next(); i = next(i + 1) {
		if i >= hi || string(it.Key()) != churnKey(i) || string(it.Value()) != churnVal(i) {
			return fmt.Errorf("iterator [%d, %d) yielded %q=%q, want key %d", lo, hi, it.Key(), it.Value(), i)
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("iterator [%d, %d): %w", lo, hi, err)
	}
	if i != hi {
		return fmt.Errorf("iterator [%d, %d) stopped before key %d", lo, hi, i)
	}
	return nil
}

// checkNoStrayTables reports any SSTable file in the rank's directory that
// the manifest log does not name: a table whose fate never ran.
func checkNoStrayTables(db *DB) error {
	dev := db.rt.cfg.Device
	raw, err := dev.ReadFile(manifest.LogName(db.ownDir))
	if err != nil {
		return err
	}
	v, _, err := manifest.Compose(raw)
	if err != nil {
		return err
	}
	files, err := dev.List(db.ownDir)
	if err != nil {
		return err
	}
	for _, f := range files {
		base := f[strings.LastIndex(f, "/")+1:]
		if f != db.ownDir+"/"+base || !strings.HasPrefix(base, "sst-") {
			continue // subdirectories: wal/, manifest/, quarantine/
		}
		var id uint64
		if _, err := fmt.Sscanf(base, "sst-%d.", &id); err != nil || !v.Has(id) {
			return fmt.Errorf("%s is on the device but not in the manifest", base)
		}
	}
	return nil
}
