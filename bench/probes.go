package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"papyruskv/internal/bloom"
	"papyruskv/internal/fifo"
	"papyruskv/internal/hashfn"
	"papyruskv/internal/lru"
	"papyruskv/internal/manifest"
	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/rbtree"
	"papyruskv/internal/sstable"
	"papyruskv/internal/wal"
	"papyruskv/internal/workload"
)

// Layer probes: timed direct calls to each layer's public functions with
// the workload's own key and value shapes. They give the unit cost column
// of the attribution table and the layer metrics that no counter carries.

// probeBytes bounds the pairs one probe works on, so a probe at 4 KB
// values touches as many bytes as one at 128 B.
const probeBytes = 4 << 20

// perOp times n calls of f and returns the mean in ns.
func perOp(n int, f func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probeResults maps a per-layer metric name to its value; hotGetReads is
// the device reads one cached SSTable get performs, which the attribution
// table uses to separate sstable time from nvm time.
type probeResults struct {
	m           map[string]float64
	hotGetReads float64
}

// runProbes runs every layer probe on a scratch device under dir.
func runProbes(sp *spec, dir string, seed uint64, scale float64) (*probeResults, error) {
	n := min(max(int(float64(probeBytes/(keyLen+sp.value))*min(scale*10, 1)), 256), 20000)
	keys := workload.Keys(int64(seed), keyLen, 2*n)
	val := newValuer(sp.value)
	entries := make([]memtable.Entry, 2*n)
	for i := range entries {
		entries[i] = memtable.Entry{Key: keys[i], Value: bytes.Clone(val.fill(nil, i))}
	}
	absent := workload.Keys(^int64(seed), keyLen, n)
	rng := rand.New(rand.NewPCG(seed, 7))
	res := &probeResults{m: map[string]float64{}}
	m := res.m

	m["hashfn.default_ns"] = perOp(n, func(i int) { sink += hashfn.Default(keys[i], 2) })

	tree := rbtree.New()
	m["rbtree.put_ns"] = perOp(n, func(i int) { tree.Put(keys[i], i) })
	m["rbtree.get_ns"] = perOp(n, func(i int) {
		if _, ok := tree.Get(keys[i]); ok {
			sink++
		}
	})

	mt := memtable.New()
	m["memtable.put_ns"] = perOp(n, func(i int) { mt.Put(entries[i]) })
	m["memtable.get_ns"] = perOp(n, func(i int) {
		if _, ok := mt.Get(keys[i]); ok {
			sink++
		}
	})
	mt.Seal() // the bulk read paths below are for sealed tables
	batch := mt.Entries()
	var wire []byte
	m["memtable.encode_ns_per_entry"] = perOp(1, func(int) { wire = memtable.EncodeEntries(batch) }) / float64(n)
	var decodeErr error
	m["memtable.decode_ns_per_entry"] = perOp(1, func(int) {
		var out []memtable.Entry
		out, decodeErr = memtable.DecodeEntries(wire)
		sink += len(out)
	}) / float64(n)
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["memtable.cursor_ns_per_entry"] = perOp(1, func(int) {
		for c := mt.CursorFrom(nil); c.Valid(); c.Next() {
			sink += len(c.Entry().Key)
		}
	}) / float64(n)

	filter := bloom.New(n, 0.01)
	m["bloom.add_ns"] = perOp(n, func(i int) { filter.Add(keys[i]) })
	m["bloom.probe_ns"] = perOp(n, func(i int) {
		if filter.MayContain(absent[i]) {
			sink++
		}
	})

	cache := lru.New(64 << 20)
	m["lru.put_ns"] = perOp(n, func(i int) { cache.Put(keys[i], entries[i].Value, true) })
	m["lru.get_ns"] = perOp(n, func(i int) {
		if _, _, hit := cache.Get(keys[i]); hit {
			sink++
		}
	})

	q := fifo.New[int](16)
	m["fifo.enq_deq_ns"] = perOp(n, func(i int) {
		q.Enqueue(i)
		v, _ := q.Dequeue()
		sink += v
	})

	dev, err := nvm.Open(dir, nvm.DRAM)
	if err != nil {
		return nil, err
	}
	if err := probeDevice(dev, sp, n, rng, m); err != nil {
		return nil, fmt.Errorf("nvm probe: %w", err)
	}
	if err := probeWAL(dev, entries[:n], m); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := probeManifest(dev, keys, m); err != nil {
		return nil, fmt.Errorf("manifest probe: %w", err)
	}
	if res.hotGetReads, err = probeSSTable(dev, entries, absent, rng, m); err != nil {
		return nil, fmt.Errorf("sstable probe: %w", err)
	}
	if err := probeMPI(sp.value, n, m); err != nil {
		return nil, fmt.Errorf("mpi probe: %w", err)
	}
	return res, nil
}

// probeDevice times the three device calls the store's hot paths make:
// a record-sized random read, a value-sized append and an fsync.
func probeDevice(dev *nvm.Device, sp *spec, n int, rng *rand.Rand, m map[string]float64) error {
	rec := keyLen + sp.value + 16
	if err := dev.WriteFile("probe/blob", make([]byte, probeBytes)); err != nil {
		return err
	}
	f, err := dev.OpenFile("probe/blob")
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, rec)
	var readErr error
	m["nvm.readat_us"] = perOp(n, func(int) {
		if _, err := f.ReadAt(buf, rng.Int64N(probeBytes-int64(rec))); err != nil {
			readErr = err
		}
	}) / 1e3
	if readErr != nil {
		return readErr
	}
	app, err := dev.OpenAppend("probe/append")
	if err != nil {
		return err
	}
	defer app.Close()
	var appErr error
	m["nvm.append_us"] = perOp(n, func(int) {
		if err := app.Append(buf); err != nil {
			appErr = err
		}
	}) / 1e3
	syncs := max(n/100, 8)
	m["nvm.sync_us"] = perOp(syncs, func(int) {
		if err := app.Append(buf); err != nil {
			appErr = err
		}
		if err := app.Sync(); err != nil {
			appErr = err
		}
	}) / 1e3
	return appErr
}

// probeWAL times the in-memory append every put pays and the write+fsync
// the group-commit thread pays per batch. Appends are timed in batches
// with an untimed commit between them, as the store's 2 ms commit tick
// keeps the log's buffer from growing without bound.
func probeWAL(dev *nvm.Device, entries []memtable.Entry, m map[string]float64) error {
	log, _, err := wal.Recover(wal.Config{Device: dev, Dir: "probe", Stream: "local"})
	if err != nil {
		return err
	}
	defer log.Close()
	const perCommit = 256
	var appendNs, commitNs float64
	var opErr error
	commits := 0
	for base := 0; base+perCommit <= len(entries); base += perCommit {
		appendNs += perCommit * perOp(perCommit, func(i int) {
			e := entries[base+i]
			if err := log.Append(wal.Record{Seq: uint64(base + i), Key: e.Key, Value: e.Value}); err != nil {
				opErr = err
			}
		})
		commitNs += perOp(1, func(int) {
			if err := log.GroupCommit(); err != nil {
				opErr = err
			}
		})
		commits++
	}
	m["wal.append_ns"] = appendNs / float64(commits*perCommit)
	m["wal.commit_us"] = commitNs / float64(commits) / 1e3
	return opErr
}

// probeManifest times one durable version edit: a frame append plus fsync.
func probeManifest(dev *nvm.Device, keys [][]byte, m map[string]float64) error {
	mf, err := manifest.Open(manifest.Config{Device: dev, Dir: "probe"})
	if err != nil {
		return err
	}
	defer mf.Close()
	var opErr error
	m["manifest.apply_us"] = perOp(32, func(i int) {
		err := mf.Apply(manifest.Edit{Add: []manifest.TableMeta{{
			SSID: uint64(i + 1), DataBytes: memTableCapacity, Entries: 1, MinKey: keys[0], MaxKey: keys[1],
		}}})
		if err != nil {
			opErr = err
		}
	}) / 1e3
	return opErr
}

// probeSSTable writes two tables of n entries each, merges them, and reads
// the merged table every way the store does. It returns the device reads
// one cached get performs.
func probeSSTable(dev *nvm.Device, entries []memtable.Entry, absent [][]byte, rng *rand.Rand, m map[string]float64) (float64, error) {
	const dir = "probe/sst"
	n := len(entries) / 2
	halves := [2][]memtable.Entry{append([]memtable.Entry(nil), entries[:n]...), append([]memtable.Entry(nil), entries[n:]...)}
	var writeNs float64
	for h, half := range halves {
		sort.Slice(half, func(a, b int) bool { return bytes.Compare(half[a].Key, half[b].Key) < 0 })
		var err error
		writeNs += perOp(1, func(int) { _, err = sstable.WriteTable(dev, dir, uint64(h+1), half) })
		if err != nil {
			return 0, err
		}
	}
	m["sstable.write_ns_per_entry"] = writeNs / float64(2*n)

	var err error
	m["sstable.merge_ns_per_entry"] = perOp(1, func(int) {
		_, err = sstable.MergeOrdered(dev, dir, []uint64{2, 1}, 3, nil, nil, false)
	}) / float64(2*n)
	if err != nil {
		return 0, err
	}

	sc, err := sstable.NewScanner(dev, dir, 3)
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	scanned := 0
	scanNs := perOp(1, func(int) {
		for {
			var ok bool
			if _, ok, err = sc.Next(); err != nil || !ok {
				return
			}
			scanned++
		}
	})
	if err != nil {
		return 0, err
	}
	if scanned != 2*n {
		return 0, fmt.Errorf("merged table holds %d entries, want %d", scanned, 2*n)
	}
	m["sstable.scan_ns_per_entry"] = scanNs / float64(scanned)
	seeks := max(n/20, 16)
	m["sstable.seek_us"] = perOp(seeks, func(int) {
		if e := sc.SeekGE(entries[rng.IntN(2*n)].Key); e != nil {
			err = e
		}
		if _, _, e := sc.Next(); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return 0, err
	}

	// The found counts below double as the probe's own output check.
	found := 0
	get := func(v []byte, tomb, ok bool, e error) {
		if e != nil {
			err = e
		}
		if ok && !tomb && len(v) > 0 {
			found++
		}
	}
	cold := max(n/50, 8)
	m["sstable.get_cold_us"] = perOp(cold, func(int) {
		get(sstable.Get(dev, dir, 3, entries[rng.IntN(2*n)].Key, sstable.BinarySearch, true))
	}) / 1e3
	rc := sstable.NewReaderCache(dev, 32<<20)
	defer rc.EvictDir(dir)
	get(rc.Get(dir, 3, entries[0].Key, sstable.BinarySearch, true)) // loads the table
	before := dev.Stats().Reads
	m["sstable.get_hot_us"] = perOp(n, func(int) {
		get(rc.Get(dir, 3, entries[rng.IntN(2*n)].Key, sstable.BinarySearch, true))
	}) / 1e3
	hotReads := float64(dev.Stats().Reads-before) / float64(n)
	if err == nil && found != cold+1+n {
		err = fmt.Errorf("%d of %d gets of written keys found them", found, cold+1+n)
	}
	m["sstable.get_absent_us"] = perOp(n, func(i int) {
		get(rc.Get(dir, 3, absent[i], sstable.BinarySearch, true))
	}) / 1e3
	if err == nil && found != cold+1+n {
		err = fmt.Errorf("a get of a never-written key found a value")
	}
	return hotReads, err
}

// probeMPI times a two-rank round trip carrying the workload's value size
// each way, and a two-rank barrier, on a fabric with no modelled delay.
func probeMPI(valueSize, n int, m map[string]float64) error {
	rounds := max(n/4, 64)
	payload := make([]byte, valueSize)
	var pingNs, barrierNs float64
	err := mpi.NewWorld(2, mpi.Topology{}).Run(func(c *mpi.Comm) error {
		var opErr error
		peer := 1 - c.Rank()
		ns := perOp(rounds, func(int) {
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, payload); err != nil {
					opErr = err
				}
			}
			if _, err := c.Recv(peer, 0); err != nil {
				opErr = err
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, 0, payload); err != nil {
					opErr = err
				}
			}
		})
		bs := perOp(rounds, func(int) {
			if err := c.Barrier(); err != nil {
				opErr = err
			}
		})
		if c.Rank() == 0 {
			pingNs, barrierNs = ns, bs
		}
		return opErr
	})
	m["mpi.pingpong_us"] = pingNs / 1e3
	m["mpi.barrier_us"] = barrierNs / 1e3
	return err
}
