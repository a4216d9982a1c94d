package sstable

import (
	"testing"

	"papyruskv/internal/nvm"
)

func benchDev(b *testing.B) (*nvm.Device, error) {
	b.Helper()
	return nvm.Open(b.TempDir(), nvm.DRAM)
}

// BenchmarkSSTableGet measures one SSTable probe on an unthrottled DRAM
// device (nvm.DRAM: no modelled latencies, so the numbers are pure software
// cost — exactly what the reader cache removes).
//
//	cold: the package-level Get — re-reads and re-CRCs the bloom file and
//	      re-parses the whole SSIndex on every probe, the pre-PR behaviour
//	      of every consumer.
//	hot:  the same probes through a warm ReaderCache, paying only the one
//	      block read.
//
// The committed numbers live in EXPERIMENTS.md and BENCH_read.json.
func BenchmarkSSTableGet(b *testing.B) {
	dev, err := benchDev(b)
	if err != nil {
		b.Fatal(err)
	}
	const tableSize = 10000
	entries := sortedEntries(tableSize, 42)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := entries[i*7919%tableSize]
			val, _, found, err := Get(dev, "db/r0", 1, e.Key, BinarySearch, true)
			if err != nil || !found || len(val) == 0 {
				b.Fatalf("get %d: found=%v err=%v", i, found, err)
			}
		}
	})

	b.Run("hot", func(b *testing.B) {
		c := NewReaderCache(dev, 32<<20)
		// Warm the cache outside the timed region.
		if _, _, _, err := c.Get("db/r0", 1, entries[0].Key, BinarySearch, true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := entries[i*7919%tableSize]
			val, _, found, err := c.Get("db/r0", 1, e.Key, BinarySearch, true)
			if err != nil || !found || len(val) == 0 {
				b.Fatalf("get %d: found=%v err=%v", i, found, err)
			}
		}
	})
}
