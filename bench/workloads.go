package main

const (
	keyLen = 16
	// scanLen is how many consecutive preloaded keys one scan covers.
	scanLen = 100
	// memTableCapacity replaces the 1 GB default, which never flushes.
	memTableCapacity = 4 << 20
	// absentKeys is the size of the never-written key table.
	absentKeys = 10000
	// insertBlock is each client's supply of new keys on the mixed
	// workloads; a client that exhausts it wraps, turning inserts into
	// updates of its own earlier inserts.
	insertBlock = 1 << 14
)

// spec is one workload. Sizes are per rank and are multiplied by -scale.
type spec struct {
	name string
	why  string

	// reps is how many times one run sets up and measures. Every
	// end-to-end value is a median over them; the count-bound workload,
	// which yields one throughput per repetition and not one per time
	// slice, takes more and shorter ones.
	reps    int
	ranks   int
	clients int // goroutines per rank; ranks*clients <= the reference box's 2 cores
	value   int // value size in bytes
	preload int // keys per rank written in set-up
	// insertsPerSecond makes the measured phase count-bound instead of
	// time-bound: the rank inserts insertsPerSecond * (-seconds / reps)
	// unique keys and the clock stops after the final SSTable barrier, so
	// write amplification is measured over the same amount of data on
	// every run, however fast the machine.
	insertsPerSecond int
	mix              mix
	zipf             bool
	fenceEvery       int // ops between Fence calls on each client; 0 = never
	primary          opKind
	localCache       int64 // Options.LocalCacheCapacity; 0 keeps the 64 MB default
}

// specs lists the workloads in the order they run; the names are the ones
// BENCHMARK.json carries.
var specs = []*spec{
	{
		name: "load",
		why:  "1 rank x 2 clients insert unique 128 B pairs into a fresh DB, timed through the final SSTable barrier: the write path (db.mu, WAL, rbtree, flush, leveled compaction); reads and comms idle",
		reps: 5, ranks: 1, clients: 2, value: 128,
		insertsPerSecond: 190000,
		mix:              mix{insert: 100},
		primary:          opInsert,
	},
	{
		name: "read_sst",
		why:  "1 rank x 2 clients, uniform gets (10 % absent) over 500k x 128 B quiesced pairs, ~72 MB against an 8 MB local cache: every get crosses bloom, SSIndex, ReaderCache and nvm; larger than the caches",
		reps: 3, ranks: 1, clients: 2, value: 128, preload: 500000,
		mix:        mix{get: 90, absent: 10},
		primary:    opGet,
		localCache: 8 << 20,
	},
	{
		name: "ycsb_b",
		why:  "same 500k preload with the default 64 MB cache, 95 % get / 5 % update, scrambled Zipfian 0.99: the hot set fits MemTable + lru, so lock and cache cost dominate; the fits-in-cache twin of read_sst",
		reps: 3, ranks: 1, clients: 2, value: 128, preload: 500000,
		mix:     mix{get: 95, update: 5},
		zipf:    true,
		primary: opGet,
	},
	{
		name: "ycsb_a_2r",
		why:  "2 ranks x 1 client, 50 % get / 50 % update of 4 KB values, uniform over the global key space, relaxed with a Fence every 1000 ops: router, mpi, handler pool, batched migration, remote gets",
		reps: 3, ranks: 2, clients: 1, value: 4096, preload: 40000,
		mix:        mix{get: 50, update: 50},
		fenceEvery: 1000,
		primary:    opGet,
	},
	{
		name: "scan_2r",
		why:  "2 ranks x 1 client, 95 % DB.Scan of 100 consecutive keys / 5 % inserts over 150k x 128 B per rank: the read layers used as merge iterator, Scanner.SeekGE and paged scatter-gather",
		reps: 3, ranks: 2, clients: 1, value: 128, preload: 150000,
		mix:     mix{scan: 95, insert: 5},
		primary: opScan,
	},
}

// countBound reports whether the measured phase ends after a number of ops
// and not after a time.
func (sp *spec) countBound() bool { return sp.insertsPerSecond > 0 }

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
