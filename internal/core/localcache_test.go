package core

import (
	"testing"

	"papyruskv/internal/mpi"
)

// TestLocalCacheFillRacesPut: a get that read a key's older value out of an
// SSTable must not cache it once a put of that key has landed in the
// MemTable. Otherwise, after that MemTable flushes, the local cache serves
// the stale value over the newer SSTable.
func TestLocalCacheFillRacesPut(t *testing.T) {
	opt := smallOpt()
	opt.MemTableCapacity = 1 << 20
	opt.CompactionEvery = 0
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("fillrace", opt)
		if err != nil {
			return err
		}
		k := string(ownKeys(db, 0, 1)[0])
		mustPut(t, db, k, "old")
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		// The put lands between the get's SSTable search and its fill.
		db.beforeFill = func(key []byte) {
			db.beforeFill = nil
			mustPut(t, db, string(key), "new")
		}
		// The get overlaps the put, so it may answer either value.
		if got, err := db.Get([]byte(k)); err != nil || (string(got) != "old" && string(got) != "new") {
			t.Fatalf("racing Get = %q, %v", got, err)
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if err := wantGet(db, k, "new"); err != nil {
			t.Errorf("after the put's flush: %v", err)
		}
		return db.Close()
	})
}

// TestLocalCacheHitAllocs: a get the local cache serves allocates only the
// copy of the value the caller keeps.
func TestLocalCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's own under -race")
	}
	opt := smallOpt()
	opt.CompactionEvery = 0
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("cachehit", opt)
		if err != nil {
			return err
		}
		k := string(ownKeys(db, 0, 1)[0])
		mustPut(t, db, k, "cached")
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if err := wantGet(db, k, "cached"); err != nil { // the fill
			return err
		}
		key := []byte(k)
		hits := db.metrics.LocalCacheHits.Load()
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := db.Get(key); err != nil {
				t.Error(err)
			}
		})
		if served := db.metrics.LocalCacheHits.Load() - hits; served < 1000 {
			t.Errorf("the local cache served %d of 1001 gets", served)
		}
		if allocs > 1 {
			t.Errorf("a local-cache hit allocates %v times, want 1 (the API copy)", allocs)
		}
		return db.Close()
	})
}
