package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
)

// TestScanSnapshotIsolation is the tentpole acceptance scenario: an iterator
// opened before a burst of overwrites, a delete, and a forced compaction
// returns the pre-mutation view with zero errors — compaction committed its
// new version, but the files of the inputs the iterator's view reads stayed
// on the device (counted by scan_unlinks_deferred), and closing the
// iterator dropped its view pin and removed them.
func TestScanSnapshotIsolation(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scansnap", smallOpt()) // CompactionEvery: 4
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 40)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		// Flush so the snapshot pins real files, not just MemTables.
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if db.SSTableCount() == 0 {
			t.Fatal("no SSTables before the scan opened")
		}

		it, err := db.NewIterator(nil, nil)
		if err != nil {
			return err
		}
		if len(it.scanners) == 0 {
			t.Fatal("iterator reads no SSTables")
		}

		// Mutate everything under the open iterator, then force a
		// compaction of the pinned inputs: each Barrier seals and flushes
		// one filler table, and every 4th SSID triggers the merge.
		for _, k := range keys {
			mustPut(t, db, string(k), "overwritten")
		}
		if err := db.Delete(keys[0]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		m := db.Metrics()
		base := m.Compactions.Load()
		for i := 0; m.Compactions.Load() == base; i++ {
			if i > 16 {
				// Enough fillers have flushed that the L0 trigger fired and
				// the kick is pending; the commit itself is asynchronous, so
				// wait it out instead of piling on more tables.
				for deadline := time.Now().Add(10 * time.Second); m.Compactions.Load() == base; {
					if time.Now().After(deadline) {
						t.Fatal("compaction never triggered")
					}
					time.Sleep(time.Millisecond)
				}
				break
			}
			mustPut(t, db, fmt.Sprintf("fill-%04d", i), "x")
			if err := db.Barrier(LevelSSTable); err != nil {
				return err
			}
		}
		// The compaction counter bumps at the manifest commit, but the
		// inputs are doomed at the in-memory install after it — give the
		// background job a moment to reach it.
		for deadline := time.Now().Add(5 * time.Second); m.ScanUnlinksDeferred.Load() == 0; {
			if time.Now().After(deadline) {
				t.Error("compaction deferred no input's unlink")
				break
			}
			time.Sleep(time.Millisecond)
		}
		gone := supersededUnder(db, it)
		if len(gone) == 0 {
			t.Error("compaction took no table the iterator reads")
		}
		wantTableFiles(t, db, gone, 3, "iterator open")

		// The iterator must deliver the pre-mutation view — original
		// values, the deleted key still present, no filler keys — with
		// zero read errors (the pinned files were never unlinked).
		i := 0
		for it.Next() {
			if i >= len(keys) {
				t.Fatalf("scan returned extra key %q", it.Key())
			}
			if string(it.Key()) != string(keys[i]) || string(it.Value()) != string(val(keys[i])) {
				t.Errorf("scan[%d] = %q=%q, want %q=%q", i, it.Key(), it.Value(), keys[i], val(keys[i]))
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("iterator error: %v", err)
		}
		if i != len(keys) {
			t.Errorf("scan saw %d keys, want %d", i, len(keys))
		}

		// Close drops the view pin; the doomed inputs go on the way out.
		if err := it.Close(); err != nil {
			return err
		}
		if got := m.IteratorsOpen.Load(); got != 0 {
			t.Errorf("iterators_open = %d after close, want 0", got)
		}
		wantTableFiles(t, db, gone, 0, "iterator closed")
		if _, pins, doomed := db.viewStats(); pins != 0 || doomed != 0 {
			t.Errorf("after close: %d view pins, %d doomed tables pending; want none", pins, doomed)
		}

		// The live view (outside any snapshot) shows the mutations.
		if err := wantGet(db, string(keys[1]), "overwritten"); err != nil {
			t.Error(err)
		}
		if err := wantMissing(db, string(keys[0])); err != nil {
			t.Error(err)
		}
		return db.Close()
	})
}

// TestScanTombstoneSuppression checks the suppression rule across every
// layer boundary: a tombstone in a newer SSTable shadows an older SSTable, a
// MemTable tombstone shadows SSTables, and a delete that never left the
// mutable MemTable shadows its own put.
func TestScanTombstoneSuppression(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0
		db, err := rt.Open("scantomb", opt)
		if err != nil {
			return err
		}
		key := func(i int) string { return fmt.Sprintf("k%02d", i) }
		for i := 0; i < 10; i++ {
			mustPut(t, db, key(i), "old")
		}
		if err := db.Barrier(LevelSSTable); err != nil { // SSTable 1: k00..k09
			return err
		}
		if err := db.Delete([]byte(key(3))); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		mustPut(t, db, key(5), "new")
		if err := db.Barrier(LevelSSTable); err != nil { // SSTable 2: k03 tombstone, k05 new
			return err
		}
		if err := db.Delete([]byte(key(7))); err != nil { // MemTable tombstone over SSTable 1
			t.Fatalf("Delete: %v", err)
		}
		mustPut(t, db, key(10), "x") // put+delete entirely in the mutable table
		if err := db.Delete([]byte(key(10))); err != nil {
			t.Fatalf("Delete: %v", err)
		}

		want := map[string]string{
			key(0): "old", key(1): "old", key(2): "old", key(4): "old",
			key(5): "new", key(6): "old", key(8): "old", key(9): "old",
		}
		got := map[string]string{}
		err = db.Scan(context.Background(), nil, nil, func(k, v []byte) error {
			got[string(k)] = string(v)
			return nil
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(got) != len(want) {
			t.Errorf("scan returned %d keys, want %d: %v", len(got), len(want), got)
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("scan[%s] = %q, want %q", k, got[k], v)
			}
		}
		for _, dead := range []int{3, 7, 10} {
			if _, ok := got[key(dead)]; ok {
				t.Errorf("deleted key %s surfaced in the scan", key(dead))
			}
		}
		return db.Close()
	})
}

// TestScanCrossRankOrdering scatters a scan across 4 ranks while one rank
// keeps overwriting the scanned keys: every rank's merge must deliver the
// full key set exactly once, strictly ordered, and every value must be a
// complete version (the original or the overwrite, never a torn mix).
// Tiny pages force the paged continuation over many round-trips.
func TestScanCrossRankOrdering(t *testing.T) {
	const n = 200
	runCluster(t, clusterSpec{ranks: 4}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.ScanPageBytes = 256
		db, err := rt.Open("scanxrank", opt)
		if err != nil {
			return err
		}
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
		// Rank 0 stages every key; Fence migrates each to its owner.
		if rt.Rank() == 0 {
			for i := 0; i < n; i++ {
				mustPut(t, db, string(key(i)), string(val(key(i))))
			}
			if err := db.Fence(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Rank 1 overwrites concurrently with every rank's scan.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if rt.Rank() == 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					err := db.Put(key(i%n), []byte("marker"))
					if err != nil && !errors.Is(err, ErrWriteStalled) {
						t.Errorf("concurrent put: %v", err)
						return
					}
					if err != nil {
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}

		var prev []byte
		count := 0
		err = db.Scan(context.Background(), []byte("key-"), []byte("key-~"), func(k, v []byte) error {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("out of order: %q after %q", k, prev)
			}
			prev = append(prev[:0], k...)
			if sv := string(v); sv != string(val(k)) && sv != "marker" {
				return fmt.Errorf("key %q has torn value %q", k, sv)
			}
			count++
			return nil
		})
		if err != nil {
			t.Errorf("rank %d Scan: %v", rt.Rank(), err)
		}
		if count != n {
			t.Errorf("rank %d scan saw %d keys, want %d", rt.Rank(), count, n)
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 1 {
			close(stop)
			wg.Wait()
		}
		return db.Close()
	})
}

// TestScanCtxCancelReleasesPins cancels a cross-rank scan mid-stream: the
// caller's context error surfaces, its local snapshot unpins immediately,
// the fire-and-forget close releases the owner's parked continuation — and
// with its view pin the files of the tables the owner compacted away under
// it — and both the caller's request path and the owner's handler workers
// keep serving afterwards.
func TestScanCtxCancelReleasesPins(t *testing.T) {
	parked, compacted := newSignal(), newSignal()
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0 // the compaction under the scan is explicit
		opt.ScanPageBytes = 64  // a few entries per page: the scan parks at the owner
		db, err := rt.Open("scancancel", opt)
		if err != nil {
			return err
		}
		own := loadParkTables(t, db, 30)

		var inputs []uint64
		if rt.Rank() == 0 {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			err := db.Scan(ctx, nil, nil, func(k, v []byte) error {
				seen++
				if seen == 3 {
					parked.fire()
					<-compacted.ch
					cancel()
				}
				return nil
			})
			parked.fire() // a scan that never got that far must not strand rank 1
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled Scan err = %v, want context.Canceled", err)
			}
			if got := db.metrics.IteratorsOpen.Load(); got != 0 {
				t.Errorf("caller iterators_open = %d after cancel, want 0", got)
			}
			// The request path and the owner's workers still serve.
			if err := wantGet(db, string(own[0]), string(val(own[0]))); err != nil {
				t.Error(err)
			}
			other := ownKeys(db, 1, 1)[0]
			if err := wantGet(db, string(other), string(val(other))); err != nil {
				t.Errorf("remote get after cancelled scan: %v", err)
			}
		} else {
			func() {
				defer compacted.fire()
				<-parked.ch
				inputs = compactUnderParkedScan(t, db)
			}()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Both sides drain: rank 1's registry empties when the close
		// message lands, and its doomed inputs go with the scan's view.
		waitScansDrained(t, db)
		waitDoomedDrained(t, db, inputs)
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestCompactDoesNotWaitForParkedScan: a remote scan parked at its owner
// between pages pins the owner's read view for as long as its consumer
// dawdles, up to scanIdleTimeout. Compacting away every table it reads must
// not wait for it: the compaction returns at once, the consumer then drains
// the scan's snapshot — pre-compaction values, no error — and the inputs'
// files go when the stream ends.
func TestCompactDoesNotWaitForParkedScan(t *testing.T) {
	parked, compacted := newSignal(), newSignal()
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0
		opt.ScanPageBytes = 64
		db, err := rt.Open("scanpark", opt)
		if err != nil {
			return err
		}
		own := loadParkTables(t, db, 30)

		var inputs []uint64
		if rt.Rank() == 0 {
			seen := 0
			err := db.Scan(context.Background(), nil, nil, func(k, v []byte) error {
				if seen == 0 {
					parked.fire()
					<-compacted.ch
				}
				if string(v) != string(val(k)) {
					t.Errorf("scan %q = %q, want the pre-compaction %q", k, v, val(k))
				}
				seen++
				return nil
			})
			parked.fire()
			if err != nil {
				t.Errorf("scan across the owner's compaction: %v", err)
			}
			if seen != 60 {
				t.Errorf("scan saw %d keys, want 60", seen)
			}
		} else {
			func() {
				defer compacted.fire()
				<-parked.ch
				// Overwrites after the scan opened: invisible to its snapshot.
				for _, k := range own {
					mustPut(t, db, string(k), "overwritten")
				}
				inputs = compactUnderParkedScan(t, db)
			}()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		waitScansDrained(t, db)
		waitDoomedDrained(t, db, inputs)
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// signal is a channel closed once, by whichever rank fires it first; a rank
// that fails before its cue still fires it on the way out, so its peer
// cannot wait forever.
type signal struct {
	ch   chan struct{}
	once sync.Once
}

func newSignal() *signal { return &signal{ch: make(chan struct{})} }

func (s *signal) fire() { s.once.Do(func() { close(s.ch) }) }

// loadParkTables puts this rank's first n owned keys in two flushes, so
// each rank holds at least two L0 tables a forced compaction merges.
func loadParkTables(t *testing.T, db *DB, n int) [][]byte {
	t.Helper()
	own := ownKeys(db, db.rt.rank, n)
	for _, half := range [][][]byte{own[:n/2], own[n/2:]} {
		for _, k := range half {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			t.Errorf("Barrier: %v", err)
		}
	}
	return own
}

// compactUnderParkedScan runs a forced compaction on the owner of a remote
// scan parked in its registry and checks that it took every table the
// scan's view reads without waiting for the scan, and that those tables'
// files stay on the device while the scan is parked. It returns them.
func compactUnderParkedScan(t *testing.T, db *DB) []uint64 {
	t.Helper()
	var it *Iterator
	db.scans.mu.Lock()
	for _, s := range db.scans.m {
		s.mu.Lock()
		if s.it != nil {
			it = s.it
		}
		s.mu.Unlock()
	}
	db.scans.mu.Unlock()
	if it == nil {
		t.Error("no remote scan is parked at the owner")
		return nil
	}
	reads := 0
	for range it.view.tables(nil, nil, false) {
		reads++
	}
	start := time.Now()
	db.compact()
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("compaction took %v under a parked scan; it must not wait for the scan", took)
	}
	inputs := supersededUnder(db, it)
	if reads < 2 || len(inputs) != reads {
		t.Errorf("compaction took %d of the %d tables the parked scan reads, want all of them (at least 2)", len(inputs), reads)
	}
	wantTableFiles(t, db, inputs, 3, "scan parked")
	if db.metrics.ScanUnlinksDeferred.Load() == 0 {
		t.Error("scan_unlinks_deferred = 0 with a parked scan reading the inputs")
	}
	return inputs
}

// TestIteratorOpenAcrossClose pins the contract for an application iterator
// left open past DB.Close: Close does not wait for it, the iterator still
// walks its snapshot, and its own Close removes the files of the tables
// compacted away under it.
func TestIteratorOpenAcrossClose(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0
		db, err := rt.Open("iterclose", opt)
		if err != nil {
			return err
		}
		flushTable(t, db, "k0", 15)
		flushTable(t, db, "k1", 15)
		it, err := db.NewIterator(nil, nil)
		if err != nil {
			return err
		}
		db.compact()
		gone := supersededUnder(db, it)
		if len(gone) == 0 {
			t.Error("compaction took no table the iterator reads")
		}

		closed := make(chan error, 1)
		go func() { closed <- db.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				return err
			}
		case <-time.After(5 * time.Second):
			return fmt.Errorf("DB.Close waited for an open iterator")
		}
		wantTableFiles(t, db, gone, 3, "database closed, iterator open")

		seen := 0
		for it.Next() {
			k := string(it.Key())
			if want := fmt.Sprintf("%s-val-%s", k[:2], k[3:]); string(it.Value()) != want {
				t.Errorf("scan %q = %q, want %q", k, it.Value(), want)
			}
			seen++
		}
		if err := it.Err(); err != nil {
			t.Errorf("iterator error after DB.Close: %v", err)
		}
		if seen != 30 {
			t.Errorf("scan saw %d keys, want 30", seen)
		}
		if err := it.Close(); err != nil {
			return err
		}
		wantTableFiles(t, db, gone, 0, "iterator closed")
		if open, pins, doomed := db.viewStats(); open != 0 || pins != 0 || doomed != 0 {
			t.Errorf("after both closes: %d open tables, %d view pins, %d doomed tables; want none", open, pins, doomed)
		}
		return nil
	})
}

// waitScansDrained polls until this rank's scan registry is empty and no
// iterator is open. Closes are fire-and-forget, so the drain is prompt but
// not synchronous; the bound is far below scanIdleTimeout, so a registry
// that only the idle sweep would empty fails here.
func waitScansDrained(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.scans.mu.Lock()
		parked := len(db.scans.m)
		db.scans.mu.Unlock()
		if parked == 0 && db.metrics.IteratorsOpen.Load() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("rank %d: %d scans still parked, iterators_open=%d",
				db.rt.rank, parked, db.metrics.IteratorsOpen.Load())
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanCompletedStreamsDrainRegistry: a remote stream that ran to its
// final page must leave nothing behind at its owner. The owner keeps a
// completed scan's registry entry and last page only so a retried final-page
// request can be replayed; the caller's close — sent for completed streams
// too — deletes them. Left to the idle sweep instead, a scan-heavy workload
// holds scanIdleTimeout's worth of dead entries and retained pages.
func TestScanCompletedStreamsDrainRegistry(t *testing.T) {
	const scans = 25
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.ScanPageBytes = 256 // several pages per stream
		db, err := rt.Open("scandrain", opt)
		if err != nil {
			return err
		}
		own := ownKeys(db, rt.Rank(), 40)
		for _, k := range own {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		for i := 0; i < scans; i++ {
			seen := 0
			if err := db.Scan(context.Background(), nil, nil, func(k, v []byte) error { seen++; return nil }); err != nil {
				t.Errorf("rank %d scan %d: %v", rt.Rank(), i, err)
			}
			if seen != 80 {
				t.Errorf("rank %d scan %d saw %d keys, want 80", rt.Rank(), i, seen)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		waitScansDrained(t, db)
		if n := db.metrics.ScansExpired.Load(); n != 0 {
			t.Errorf("rank %d: %d scans reaped by the idle sweep, want 0 (closes drain them)", rt.Rank(), n)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestIdleScanReapedWithProbingOff: the idle-scan sweep runs on the prober's
// tick, and turning probes off (ProbeInterval < 0) must not turn it off too.
// The seed's prober returned at once without probing, so an abandoned remote
// scan kept its pinned view — and every table that view dooms — until Close.
func TestIdleScanReapedWithProbingOff(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.ProbeInterval = -1
		db, err := rt.Open("scanreap", opt)
		if err != nil {
			return err
		}
		mustPut(t, db, "k", "v")
		it, err := db.NewIterator(nil, nil)
		if err != nil {
			return err
		}
		s := db.scans.getOrCreate(scanKey{source: 0, id: 1})
		s.mu.Lock()
		s.it, s.started = it, true
		s.lastUsed = time.Now().Add(-2 * scanIdleTimeout)
		s.mu.Unlock()
		deadline := time.Now().Add(2 * time.Second)
		for db.metrics.ScansExpired.Load() == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("an idle scan was not reaped within 2s with ProbeInterval < 0")
			}
			time.Sleep(10 * time.Millisecond)
		}
		return db.Close()
	})
}

// TestScanReadsThroughViewHandles: iterators and gets share one way to read
// a table — the read view's handles. Once a rank's tables are open, opening
// an iterator over them — seek included — opens no file and counts as
// reader hits, and closing it returns its view pin.
func TestScanReadsThroughViewHandles(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.CompactionEvery = 0 // keep the flushed tables in place
		db, err := rt.Open("scanhandles", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 120)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if db.SSTableCount() < 2 {
			t.Fatalf("only %d SSTables flushed", db.SSTableCount())
		}
		scan := func() {
			it, err := db.NewIterator(keys[30], keys[50])
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			for i := 30; it.Next(); i++ {
				if i >= 50 || string(it.Key()) != string(keys[i]) || string(it.Value()) != string(val(keys[i])) {
					t.Fatalf("scan[%d] = %q=%q", i, it.Key(), it.Value())
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
		scan() // loads whatever the flushes left cold
		dev := rt.cfg.Device
		opens, hits, misses := dev.Stats().Opens, db.metrics.Readers.Hits.Load(), db.metrics.Readers.Misses.Load()
		scan()
		if got := dev.Stats().Opens - opens; got != 0 {
			t.Errorf("warm iterator opened %d files, want 0", got)
		}
		if got := db.metrics.Readers.Misses.Load() - misses; got != 0 {
			t.Errorf("warm iterator loaded %d tables", got)
		}
		if db.metrics.Readers.Hits.Load() == hits {
			t.Error("warm iterator did not read through the view's open tables")
		}
		if _, pins, _ := db.viewStats(); pins != 0 {
			t.Errorf("%d view pins after the iterators closed", pins)
		}
		return db.Close()
	})
}

// TestScanDegradedRank degrades one rank to read-only (ENOSPC on its SSTable
// writes) and scans from every rank, the degraded one included: scans gate
// on readHealth, so the degraded rank serves its portion — the unflushed
// keys still sitting in its deferred immutable MemTables included — and can
// itself scatter a scan.
func TestScanDegradedRank(t *testing.T) {
	const victim = 0
	inj := faults.New(0x5ca9de96)
	runCluster(t, clusterSpec{ranks: 3, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		o := recoverOpt()
		if rt.Rank() == victim {
			o.ProbeInterval = -1 // no reclaim probe: the victim stays Degraded
		}
		db, err := rt.Open("scandeg", o)
		if err != nil {
			return err
		}
		own := ownKeys(db, rt.Rank(), 25)
		for _, k := range own {
			mustPut(t, db, string(k), string(val(k)))
		}
		if rt.Rank() == victim {
			inj.Enable(faults.Rule{
				Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Tag: faults.AnyTag,
				Where: fmt.Sprintf("r%d/sst-", victim), Count: 1, Fires: 1 << 20,
			})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// The collective flush degrades the victim; its keys never reach an
		// SSTable and stay in the deferred immutable MemTables.
		berr := db.Barrier(LevelSSTable)
		if rt.Rank() == victim {
			if berr == nil {
				t.Error("victim Barrier returned nil, want degradation error")
			}
			if got := db.State(); got != StateDegraded {
				t.Errorf("victim state = %v, want degraded", got)
			}
		} else if berr != nil {
			t.Errorf("rank %d Barrier err = %v", rt.Rank(), berr)
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		want := map[string]string{}
		for r := 0; r < 3; r++ {
			for _, k := range ownKeys(db, r, 25) {
				want[string(k)] = string(val(k))
			}
		}
		got := map[string]string{}
		err = db.Scan(context.Background(), nil, nil, func(k, v []byte) error {
			got[string(k)] = string(v)
			return nil
		})
		if err != nil {
			t.Errorf("rank %d Scan with degraded peer: %v", rt.Rank(), err)
		}
		if len(got) != len(want) {
			t.Errorf("rank %d scan saw %d keys, want %d", rt.Rank(), len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("rank %d scan[%s] = %q, want %q", rt.Rank(), k, got[k], v)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		cerr := db.Close()
		if rt.Rank() == victim {
			return nil // Close reports the (expected) skipped flush
		}
		return cerr
	})
}

// TestScanStagingWins: in relaxed mode a caller's staged — not yet migrated
// — overwrite and delete of keys a peer owns shadow the owner's stream in
// the caller's own scan, exactly as they do for its Get, while the owner
// still scans the old versions. After Fence migrates them, both scans agree
// on the new state.
func TestScanStagingWins(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scanstage", smallOpt()) // Relaxed
		if err != nil {
			return err
		}
		peerKeys := ownKeys(db, 1, 6)
		if rt.Rank() == 1 {
			for _, k := range peerKeys {
				mustPut(t, db, string(k), "old")
			}
		}
		if err := db.Barrier(LevelSSTable); err != nil { // the owner's SSTables hold the old versions
			return err
		}
		overwritten, deleted := string(peerKeys[1]), string(peerKeys[4])
		if rt.Rank() == 0 {
			mustPut(t, db, overwritten, "new")
			if err := db.Delete([]byte(deleted)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// check scans every pair and compares it with the old versions,
		// optionally with the staged overwrite and delete applied.
		check := func(when string, staged bool) {
			t.Helper()
			want := map[string]string{}
			for _, k := range peerKeys {
				want[string(k)] = "old"
			}
			if staged {
				want[overwritten] = "new"
				delete(want, deleted)
			}
			got := map[string]string{}
			err := db.Scan(context.Background(), nil, nil, func(k, v []byte) error {
				got[string(k)] = string(v)
				return nil
			})
			if err != nil {
				t.Fatalf("rank %d %s Scan: %v", rt.Rank(), when, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rank %d %s scan = %v, want %v", rt.Rank(), when, got, want)
			}
		}
		check("before Fence", rt.Rank() == 0)
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			if err := db.Fence(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		check("after Fence", true)
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// scanOpt is quietOpt with MemTables that flush tables of a few dozen KB.
func scanOpt() Options {
	o := quietOpt()
	o.MemTableCapacity = 32 << 10
	return o
}

// scanVal is the 256-byte value loadScanTables writes under k.
func scanVal(k []byte) []byte { return append(val(k), strings.Repeat("s", 256-len(val(k)))...) }

// loadScanTables fills one rank's own key space with n keys and scanVal
// values, written in a strided order so that every table a scanOpt
// MemTable flushes spans the whole range, and flushes them all.
func loadScanTables(t *testing.T, db *DB, rank, n int) [][]byte {
	t.Helper()
	keys := ownKeys(db, rank, n)
	for j := range keys {
		k := keys[(j*7)%n]
		mustPut(t, db, string(k), string(scanVal(k)))
	}
	if err := db.Barrier(LevelSSTable); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestIteratorAllocs pins the allocations of an iterator open, a 100-key
// walk and its Close on a warm, quiesced rank over 10 tables, in the manner
// of TestOwnGetAllocs. The same walk allocated 54 times when every table
// cost a heap Scanner, a closure and a fresh read window.
func TestIteratorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's own")
	}
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("iterallocs", scanOpt())
		if err != nil {
			return err
		}
		keys := loadScanTables(t, db, 0, 1000)
		lo, hi := keys[100], keys[200]
		walk := func() {
			it, err := db.NewIterator(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.Next() {
				n++
			}
			if err := it.Err(); err != nil || n != 100 {
				t.Fatalf("walk returned %d pairs, err %v", n, err)
			}
			it.Close()
		}
		walk()
		// The Iterator, its bounds, scanner array, source list, the merge's
		// three, and the key and value buffers.
		const bound = 9
		if allocs := testing.AllocsPerRun(200, walk); allocs > bound {
			t.Errorf("iterator open, 100-key walk and close allocate %v times over %d tables, want <= %d", allocs, db.SSTableCount(), bound)
		}
		return db.Close()
	})
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// tablesIn counts the tables the rank's read view yields for [lo, hi): the
// tables a bounded scan must read, once each.
func tablesIn(db *DB, lo, hi []byte) int {
	v := db.pinView()
	defer db.unpinView(v)
	n := 0
	for range v.tables(lo, hi, false) {
		n++
	}
	return n
}

// TestScanReadsOneSpanPerTable pins "one read per table" end to end. A warm
// iterator over a 100-key range makes exactly as many device reads as the
// read view yields tables for the range, and a two-rank DB.Scan makes the
// sum over both ranks: each table's span, from the block lo falls in to the
// end of the block hi falls in, fits one pooled window and is read once.
func TestScanReadsOneSpanPerTable(t *testing.T) {
	t.Run("iterator", func(t *testing.T) {
		runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
			db, err := rt.Open("onespan", scanOpt())
			if err != nil {
				return err
			}
			keys := loadScanTables(t, db, 0, 1000)
			lo, hi := keys[150], keys[250]
			want := tablesIn(db, lo, hi)
			if want < 4 {
				t.Fatalf("range overlaps %d tables, want several", want)
			}
			walk := func() {
				it, err := db.NewIterator(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				defer it.Close()
				for it.Next() {
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
			}
			walk() // loads the tables' readers
			dev := rt.cfg.Device
			before := dev.Stats().Reads
			walk()
			if got := dev.Stats().Reads - before; got != uint64(want) {
				t.Errorf("warm iterator made %d device reads over %d tables, want one each", got, want)
			}
			return db.Close()
		})
	})
	t.Run("scan", func(t *testing.T) {
		var tables [2]int
		// One storage group: both ranks' tables on one device, whose
		// counters see the caller's reads and the owner's.
		runCluster(t, clusterSpec{ranks: 2, groupSize: 2}, func(rt *Runtime, c *mpi.Comm) error {
			db, err := rt.Open("onespan2", scanOpt())
			if err != nil {
				return err
			}
			loadScanTables(t, db, rt.Rank(), 1000)
			lo, hi := []byte("key-0500"), []byte("key-0700")
			tables[rt.Rank()] = tablesIn(db, lo, hi)
			if err := c.Barrier(); err != nil {
				return err
			}
			if rt.Rank() == 0 {
				if tables[0] < 2 || tables[1] < 2 {
					t.Fatalf("range overlaps %v tables per rank, want several", tables)
				}
				scan := func() int {
					n := 0
					if err := db.Scan(context.Background(), lo, hi, func(k, v []byte) error { n++; return nil }); err != nil {
						t.Fatal(err)
					}
					return n
				}
				scan()
				dev := rt.cfg.Device
				before := dev.Stats().Reads
				if n := scan(); n != 200 {
					t.Errorf("scan returned %d pairs, want 200", n)
				}
				want := tables[0] + tables[1]
				if got := dev.Stats().Reads - before; got != uint64(want) {
					t.Errorf("warm scan made %d device reads over %d + %d tables, want one each", got, tables[0], tables[1])
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return db.Close()
		})
	})
}

// TestScanGatherAcrossRefills scans, from one rank of two, pairs whose
// values outgrow the scanners' read-ahead, and checks every pair. Each such
// record takes a refill of its own, into the window that does not hold the
// record before it, while the owner's pages interleave with them in the
// gather. An entry a scanner returns lasts only through its following Next,
// so a merge stacked on another merge — pulling the scanner once more
// before the outer one hands the entry out — would give the callback bytes
// a refill had already overwritten.
func TestScanGatherAcrossRefills(t *testing.T) {
	const n = 16
	big := func(k []byte) []byte { return bytes.Repeat(append(val(k), ';'), 200<<10/11) }
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := quietOpt()
		opt.MemTableCapacity = 1 << 20
		db, err := rt.Open("scanrefill", opt)
		if err != nil {
			return err
		}
		for _, k := range ownKeys(db, rt.Rank(), n) {
			mustPut(t, db, string(k), string(big(k)))
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			var prev []byte
			count := 0
			err := db.Scan(context.Background(), nil, nil, func(k, v []byte) error {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return fmt.Errorf("%q after %q", k, prev)
				}
				if !bytes.Equal(v, big(k)) {
					return fmt.Errorf("value of %q is not the one written", k)
				}
				prev = append(prev[:0], k...)
				count++
				return nil
			})
			if err == nil && count != 2*n {
				err = fmt.Errorf("scanned %d pairs, want %d", count, 2*n)
			}
			if err != nil {
				t.Errorf("full-range scan: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestScanConcurrentPooledWindows races scans whose scanners decode in
// place from the tables' mappings — 4 goroutines per rank on 2 ranks, over
// overlapping ranges, checking every value — against a writer on each rank
// whose rewrites flush tables and trigger compactions. A table unmapped
// while an entry still aliased it kills the process; a buffer shared by two
// owners shows as a wrong value, and under the race detector as a race.
func TestScanConcurrentPooledWindows(t *testing.T) {
	const n, scanners, rounds = 300, 4, 30
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scanpool", smallOpt())
		if err != nil {
			return err
		}
		var own [][]byte
		for i := 0; i < n; i++ {
			if k := key(i); db.Owner(k) == rt.Rank() {
				own = append(own, k)
				mustPut(t, db, string(k), string(val(k)))
			}
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// The writer rewrites the same values, so every scan has one right
		// answer however it interleaves with the flushes and compactions.
		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := own[i%len(own)]
				if err := db.Put(k, val(k)); errors.Is(err, ErrWriteStalled) {
					time.Sleep(time.Millisecond)
				} else if err != nil {
					t.Errorf("rewrite %q: %v", k, err)
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < scanners; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for r := 0; r < rounds; r++ {
					i := rng.Intn(n - 100)
					j := i + 1 + rng.Intn(100)
					next := i
					err := db.Scan(context.Background(), key(i), key(j), func(k, v []byte) error {
						if string(k) != string(key(next)) || string(v) != string(val(k)) {
							return fmt.Errorf("pair %d: %q=%q, want %q", next-i, k, v, key(next))
						}
						next++
						return nil
					})
					if err == nil && next != j {
						err = fmt.Errorf("%d pairs, want %d", next-i, j-i)
					}
					if err != nil {
						t.Errorf("rank %d scan [%s, %s): %v", rt.Rank(), key(i), key(j), err)
						return
					}
				}
			}(int64(rt.Rank()*scanners + g))
		}
		wg.Wait()
		close(stop)
		writer.Wait()
		if m := db.Metrics(); m.Flushes.Load() == 0 || m.Compactions.Load() == 0 {
			t.Errorf("rank %d: %d flushes, %d compactions under the scans, want both", rt.Rank(), m.Flushes.Load(), m.Compactions.Load())
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}
