package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/workload"
)

// BenchmarkPutBacklog measures the put-latency tail while the flush path
// runs on a device slower than the put arrival rate, with write admission
// control on (the default thresholds scaled down) and off (StallSoftDepth
// -1, the old behaviour of letting the immutable-table backlog grow without
// bound). The interesting numbers are not ns/op but the reported metrics:
// with admission control the p99 and max put latencies are bounded by
// StallTimeout (shed puts return typed ErrWriteStalled instead of waiting)
// and the backlog stays near the soft threshold; without it every put is
// quick but the backlog — sealed MemTables pinned in memory awaiting a
// device that cannot keep up — grows with b.N.
func BenchmarkPutBacklog(b *testing.B) {
	const stallTimeout = 20 * time.Millisecond
	run := func(b *testing.B, softDepth int) {
		benchOverloadDB(b, func(db *DB, c *mpi.Comm) error {
			val := workload.Value(128, 0)
			lat := make([]time.Duration, 0, b.N)
			var shed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				err := db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
				lat = append(lat, time.Since(start))
				switch {
				case err == nil:
				case errors.Is(err, ErrWriteStalled):
					shed++
				default:
					return err
				}
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
			b.ReportMetric(float64(lat[len(lat)-1]), "max-ns")
			b.ReportMetric(float64(shed), "shed-ops")
			b.ReportMetric(float64(db.immDepth(false)), "backlog-tables")
			return nil
		}, softDepth, stallTimeout)
	}
	b.Run("admission", func(b *testing.B) { run(b, 4) })
	b.Run("unbounded", func(b *testing.B) { run(b, -1) })
}

// benchOverloadDB is benchDB with a deliberately slow device: 4ms per write
// makes a flush cost several milliseconds while a put costs microseconds,
// so the backlog builds for any sustained load.
func benchOverloadDB(b *testing.B, fn func(db *DB, c *mpi.Comm) error, softDepth int, stallTimeout time.Duration) {
	b.Helper()
	slow := nvm.PerfModel{Name: "slow", WriteLatency: 4 * time.Millisecond, TimeScale: 1}
	dev, err := nvm.Open(b.TempDir(), slow)
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(1, mpi.Topology{})
	err = w.Run(func(c *mpi.Comm) error {
		rt, err := NewRuntime(Config{Comm: c, Device: dev})
		if err != nil {
			return err
		}
		o := DefaultOptions()
		o.MemTableCapacity = 4 << 10
		o.StallSoftDepth = softDepth
		o.StallTimeout = stallTimeout
		o.WAL = WALDisabled
		o.CompactionEvery = 0
		o.ProbeInterval = -1
		db, err := rt.Open("benchoverload", o)
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
