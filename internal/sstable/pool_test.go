package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"papyruskv/internal/faults"
	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestWriterCloseFailureLeavesNoFiles fails each of Close's three writes in
// turn — the last data chunk, the index, the bloom filter — on a full
// device. Nothing of the table may stay behind: not the unlisted .tmp data
// file, and not the files published before the failing step.
func TestWriterCloseFailureLeavesNoFiles(t *testing.T) {
	for count := uint64(1); count <= 3; count++ {
		t.Run(fmt.Sprint("write", count), func(t *testing.T) {
			dev := testDev(t)
			dev.InjectFaults(faults.New(1).Enable(faults.Rule{Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Count: count}))
			if _, err := WriteTable(dev, "d", 1, sortedEntries(100, 1)); !errors.Is(err, nvm.ErrNoSpace) {
				t.Fatalf("WriteTable = %v, want ErrNoSpace", err)
			}
			left, err := os.ReadDir(filepath.Join(dev.Dir(), "d"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range left {
				t.Errorf("failed table left %s on the device", f.Name())
			}
		})
	}
}

// bigTable writes an SSTable of about size bytes of 1KB values as ssid.
func bigTable(t *testing.T, dev *nvm.Device, dir string, ssid uint64, size int) []memtable.Entry {
	t.Helper()
	var entries []memtable.Entry
	for i := 0; i < size/1024; i++ {
		entries = append(entries, memtable.Entry{
			Key:   []byte(fmt.Sprintf("key-%08d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, 1000),
		})
	}
	if _, err := WriteTable(dev, dir, ssid, entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestScannerRefillAllocs: once the pools are warm, a full sequential pass
// refills into the scanner's two pooled windows instead of a fresh window
// per refill — a few hundred bytes for the scanner and its handle, not
// megabytes.
func TestScannerRefillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled windows at random")
	}
	dev := testDev(t)
	entries := bigTable(t, dev, "d", 1, 8<<20)
	pass := func() {
		sc, err := NewScanner(dev, "d", 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		sc.Close()
		if n != len(entries) {
			t.Fatalf("pass scanned %d entries, want %d", n, len(entries))
		}
	}
	// One P and no collection between the passes: a sync.Pool keeps one
	// item per P out of other Ps' reach and empties over two collections,
	// either of which could make the second pass allocate a window anew.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("second pass over an 8MB table allocated %d bytes, want < 64KB", got)
	}
}

// TestWriterAddAllocs: Add encodes each record straight into the pooled
// write-behind buffer, so a steady stream of records allocates nothing.
func TestWriterAddAllocs(t *testing.T) {
	const warm, runs = 1000, 4000
	entries := sortedEntries(warm+runs+1, 3)
	for i := range entries {
		entries[i].Value = bytes.Repeat([]byte{byte(i)}, 200)
	}
	w, err := NewWriter(testDev(t), "d", 1, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	next := 0
	add := func() {
		if err := w.Add(entries[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < warm {
		add()
	}
	if allocs := testing.AllocsPerRun(runs, add); allocs != 0 {
		t.Errorf("Add allocates %v times per record, want 0", allocs)
	}
}

// TestMergeConcurrentSharedPools runs four compactions at once, each over
// its own tables, all drawing scanner windows and writer buffers from the
// same pools. Every merged value must be the newest input's, byte for byte:
// a window or buffer handed to two users at once would show as a wrong
// value, a CRC failure or an ordering error.
func TestMergeConcurrentSharedPools(t *testing.T) {
	dev := testDev(t)
	const workers, tables, keys = 4, 3, 1200
	value := func(w, tbl, k int) []byte {
		// Sizes from 100 bytes to ~3KB, so records straddle refills.
		return bytes.Repeat([]byte(fmt.Sprintf("%d/%d/%d;", w, tbl, k)), 10+(k*7+tbl*13)%300)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				dir := fmt.Sprintf("g%d", w)
				// Table tbl holds every key k with k%tbl == 0: they
				// overlap, and table 1 is the newest.
				for tbl := 1; tbl <= tables; tbl++ {
					var entries []memtable.Entry
					for k := 0; k < keys; k++ {
						if k%tbl == 0 {
							entries = append(entries, memtable.Entry{Key: []byte(fmt.Sprintf("k%06d", k)), Value: value(w, tbl, k)})
						}
					}
					if _, err := WriteTable(dev, dir, uint64(tbl), entries); err != nil {
						return err
					}
				}
				if _, err := MergeOrdered(dev, dir, []uint64{1, 2, 3}, 4, nil, nil, false); err != nil {
					return err
				}
				got, err := ReadAll(dev, dir, 4)
				if err != nil {
					return err
				}
				if len(got) != keys {
					return fmt.Errorf("worker %d: merged %d keys, want %d", w, len(got), keys)
				}
				for k, e := range got {
					if want := value(w, 1, k); string(e.Key) != fmt.Sprintf("k%06d", k) || !bytes.Equal(e.Value, want) {
						return fmt.Errorf("worker %d: entry %d is %q = %.20q..., want newest value %.20q...", w, k, e.Key, e.Value, want)
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
