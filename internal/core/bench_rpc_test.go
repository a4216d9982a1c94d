package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/workload"
)

// BenchmarkConcurrentRemoteGet measures aggregate remote-get throughput when
// 1 vs 8 client goroutines on one rank hammer the same owner (handlerThreads
// at its default of 4). The owner serves every get with an SSTable binary
// search against a modelled NVMe device — each probe step is a ~90µs device
// read — so a get is dominated by NVM wait, the cost the handler worker pool
// exists to overlap. One client leaves the owner's device idle between
// requests; eight concurrent clients keep the workers (and the device)
// busy, and the reply router keeps their responses sorted. ns/op is
// aggregate wall time per operation, so the 1-client vs 8-client ratio is
// the aggregate throughput scaling. On the old single handler thread the
// two cases are identical: every get serialises behind the one handler.
func BenchmarkConcurrentRemoteGet(b *testing.B) {
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchConcurrentRemoteGet(b, clients)
		})
	}
}

// benchModelDB is benchDB with a device performance model: one device per
// rank, both governed by model.
func benchModelDB(b *testing.B, ranks int, model nvm.PerfModel, fn func(db *DB, c *mpi.Comm) error) {
	b.Helper()
	base := b.TempDir()
	devs := make([]*nvm.Device, ranks)
	for r := range devs {
		d, err := nvm.Open(filepath.Join(base, fmt.Sprintf("r%d", r)), model)
		if err != nil {
			b.Fatal(err)
		}
		devs[r] = d
	}
	w := mpi.NewWorld(ranks, mpi.Topology{})
	err := w.Run(func(c *mpi.Comm) error {
		rt, err := NewRuntime(Config{Comm: c, Device: devs[c.Rank()]})
		if err != nil {
			return err
		}
		db, err := rt.Open("bench", DefaultOptions())
		if err != nil {
			return err
		}
		if err := fn(db, c); err != nil {
			return err
		}
		return db.Close()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchConcurrentRemoteGet(b *testing.B, clients int) {
	// NVMe's 90µs read latency, with writes and opens free so the setup
	// (puts, WAL, flush) does not inflate the measured region. Each get
	// pays one modelled device read: the SSTable block its key can be in.
	model := nvm.PerfModel{Name: "nvme-read", ReadLatency: nvm.NVMe.ReadLatency, TimeScale: 1}
	benchModelDB(b, 2, model, func(db *DB, c *mpi.Comm) error {
		keys := workload.Keys(1, 16, 4096)
		var remote [][]byte
		for _, k := range keys {
			if db.Owner(k) == 0 {
				remote = append(remote, k)
			}
		}
		if c.Rank() == 0 {
			for i, k := range remote {
				if err := db.Put(k, workload.Value(128, i)); err != nil {
					return err
				}
			}
		}
		// Flush the owner's pairs to its SSTable, then disable the caches
		// on both sides so every get crosses the wire and probes NVM.
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		db.localCache.SetEnabled(false)
		db.remoteCache.SetEnabled(false)
		if c.Rank() == 1 {
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < b.N; i += clients {
						if _, err := db.Get(remote[i%len(remote)]); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		}
		return db.Barrier(LevelMemTable)
	})
}
