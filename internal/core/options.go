package core

import (
	"time"

	"papyruskv/internal/hashfn"
	"papyruskv/internal/sstable"
)

// Consistency is the memory consistency mode of a database (§3.1).
type Consistency int

const (
	// Relaxed: puts update only the caller's MemTables; remote data
	// becomes visible at synchronization points (fence/barrier).
	Relaxed Consistency = iota
	// Sequential: every remote put or delete migrates to the owner rank
	// immediately and synchronously.
	Sequential
)

func (c Consistency) String() string {
	if c == Sequential {
		return "sequential"
	}
	return "relaxed"
}

// Protection is a database's protection attribute (§3.2).
type Protection int

const (
	// RDWR allows reads and writes; the local cache is enabled, the
	// remote cache disabled.
	RDWR Protection = iota
	// WRONLY declares a write-only phase: the local cache is invalidated
	// and disabled so puts skip cache maintenance.
	WRONLY
	// RDONLY declares a read-only phase: writes fail and the remote
	// cache is enabled, caching values fetched from owner ranks.
	RDONLY
)

func (p Protection) String() string {
	switch p {
	case WRONLY:
		return "wronly"
	case RDONLY:
		return "rdonly"
	default:
		return "rdwr"
	}
}

// WALMode selects the durability discipline of the write-ahead log that
// sits ahead of the MemTables (the WAL→MemTable→SSTable order of RocksDB).
type WALMode int

const (
	// WALAsync (the default) appends to the log in memory and lets a
	// group-commit thread write and fsync the accumulated records every
	// WALFlushInterval. A kill loses at most the last commit window of
	// acknowledged puts.
	WALAsync WALMode = iota
	// WALSync writes and fsyncs the log before every acknowledgement
	// (one fsync per put, one per applied migration batch). A kill loses
	// no acknowledged put.
	WALSync
	// WALDisabled turns the log off; durability begins at flush, as in
	// the original artifact. A kill loses every MemTable-resident put.
	WALDisabled
)

func (m WALMode) String() string {
	switch m {
	case WALSync:
		return "sync"
	case WALDisabled:
		return "disabled"
	default:
		return "async"
	}
}

// Options configures a database at open time (papyruskv_option_t plus the
// artifact's PAPYRUSKV_* environment toggles). The zero value plus
// DefaultOptions' fill-ins give the paper's default configuration.
type Options struct {
	// MemTableCapacity is the byte threshold at which a MemTable is
	// sealed and queued (the paper's "MemTable threshold", 1GB in Fig 6;
	// tests use much smaller values to exercise flushing).
	MemTableCapacity int64
	// LocalCacheCapacity bounds the local cache in bytes; 0 disables it.
	LocalCacheCapacity int64
	// RemoteCacheCapacity bounds the remote cache in bytes; 0 disables
	// it even under RDONLY protection.
	RemoteCacheCapacity int64
	// Consistency is the initial consistency mode.
	Consistency Consistency
	// Protection is the initial protection attribute.
	Protection Protection
	// Hash is the owner-rank hash; nil selects the built-in function.
	// Applications install custom hashes for load balancing (§2.4).
	Hash hashfn.Func
	// SearchMode selects SSTable search: binary search (the NVM
	// optimisation) or sequential scan (Figure 8's baseline).
	SearchMode sstable.SearchMode
	// UseBloom consults bloom filters before touching SSTables.
	UseBloom bool
	// CompactionEvery is the L0 compaction trigger: when the count of
	// level-0 tables reaches it, the compaction workers merge all of L0
	// (plus the overlapping L1 range) down a level. The trigger counts
	// live L0 tables — not raw SSID arithmetic, which drifted whenever a
	// merge output consumed an SSID — so the cadence is stable under any
	// mix of flushes and compactions. 0 disables background compaction.
	CompactionEvery uint64
	// LevelBytesBase is the byte budget of level 1; each deeper level's
	// budget is LevelBytesGrowth times its parent's. A level over budget
	// scores a compaction of its largest table into the next level.
	// 0 selects the default (8MB).
	LevelBytesBase int64
	// LevelBytesGrowth is the per-level budget multiplier. 0 selects the
	// default (10).
	LevelBytesGrowth int
	// RetryTimeout is the per-attempt reply deadline of every remote
	// request (migration batch, synchronous put, remote get, scan page).
	// A request that times out is resent under the same sequence number —
	// receivers deduplicate writes, so a retried request is applied at most
	// once — up to five attempts with capped, jittered backoff between
	// them. It must comfortably exceed the modelled round-trip plus handler
	// service time or slow-but-healthy peers will be retried spuriously;
	// the default (10s) is generous for that reason. Tests injecting
	// message loss shrink it to keep retries fast. 0 selects the default.
	RetryTimeout time.Duration
	// WAL selects the write-ahead-log durability mode. The zero value is
	// WALAsync: logging on, group commit.
	WAL WALMode
	// WALFlushInterval is the WALAsync group-commit period. 0 selects the
	// default (2ms); WALSync and WALDisabled ignore it.
	WALFlushInterval time.Duration
	// ParkedBytes bounds the migration batches parked for unreachable
	// peers (encoded wire bytes, summed across all peers). While a peer's
	// circuit breaker is open, undeliverable batches wait here — backed by
	// their still-pinned WAL segments — and are redelivered when the peer
	// recovers; past the budget, further batches degrade to counted loss
	// (PairsLost, reported at the next Fence) instead of unbounded memory.
	// 0 selects the default (8MB); a negative value disables parking, so
	// every undeliverable batch is immediate, counted loss.
	ParkedBytes int64
	// ProbeInterval is the circuit breaker's half-open probe period: how
	// often a rank pings each peer whose circuit is open to learn whether
	// it has recovered. While this rank itself is Degraded the same tick
	// drives its reclaim probe, so the interval also bounds how quickly a
	// cleaned-up device is noticed. 0 selects the default (250ms); a
	// negative value disables probing, so tripped circuits stay open and a
	// degraded rank heals only through an explicit Reclaim call.
	ProbeInterval time.Duration
	// StallSoftDepth is the write admission control's stall threshold:
	// when the count of immutable local (for local puts) or remote (for
	// staged remote puts) MemTables reaches it, puts sleep in short
	// jittered periods — bounded by StallTimeout — waiting for the flush
	// or migration backlog to drain, instead of growing it. 0 selects the
	// default (8); a negative value disables admission control entirely,
	// restoring unbounded backlog growth.
	StallSoftDepth int
	// StallTimeout bounds the total time one put may spend stalled above
	// StallSoftDepth before giving up with ErrWriteStalled. No put ever
	// blocks longer than StallTimeout plus one stall period (StallTimeout/8,
	// clamped to [200us, 10ms]). 0 selects the default (1s).
	StallTimeout time.Duration
	// ScanPageBytes bounds the encoded payload of one scan page an owner
	// rank streams to a remote Scan caller. Larger pages amortise the
	// request round-trip over more pairs; smaller pages bound the memory a
	// slow consumer pins on the owner. 0 selects the default (256KB).
	ScanPageBytes int
	// ScrubInterval is the background integrity scrubber's cycle period:
	// every interval the rank re-reads its live SSTables, WAL segments, and
	// manifest and verifies them against the manifest-recorded checksums,
	// repairing corrupt tables from the latest committed checkpoint (or
	// quarantining them and degrading when no repair source exists).
	// 0 selects the default (60s); a negative value disables the background
	// scrubber — explicit DB.Scrub calls still work.
	ScrubInterval time.Duration
	// ScrubBytesPerSec is the scrubber's token-bucket byte budget: the
	// sustained rate at which it may read and checksum NVM bytes, so a
	// scrub pass cannot perturb foreground tail latency. 0 selects the
	// default (8MB/s); a negative value removes the throttle.
	ScrubBytesPerSec int64
}

// Fixed sizes of the runtime's pools, caches and timeouts.
const (
	// compactionWorkers is the number of background compaction workers;
	// jobs over disjoint level ranges run in parallel.
	compactionWorkers = 2
	// readerCacheBytes bounds the per-device SSTable reader cache, which
	// pins each hot table's validated bloom filter, parsed SSIndex and
	// open data file so repeated gets skip the device reads and CRC passes.
	// Every rank on a device (a storage group shares one) shares the cache.
	readerCacheBytes = 32 << 20
	// handlerThreads is the number of message-handler workers serving
	// remote requests (see handlerThread for how requests are routed).
	handlerThreads = 4
	// handlerQueueDepth bounds each handler worker's request queue. The
	// receive dispatcher blocks when a worker's queue fills, which
	// back-pressures through the request communicator.
	handlerQueueDepth = 16
	// scanIdleTimeout is how long an owner keeps an idle remote scan — its
	// pinned read view included — before the prober reaps it. A consumer
	// that pages slower than this must restart its scan (the caller sees a
	// typed "scan expired" error).
	scanIdleTimeout = 30 * time.Second
)

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{
		MemTableCapacity:    1 << 30, // 1GB, as in the evaluation
		LocalCacheCapacity:  64 << 20,
		RemoteCacheCapacity: 64 << 20,
		Consistency:         Relaxed,
		Protection:          RDWR,
		SearchMode:          sstable.BinarySearch,
		UseBloom:            true,
		CompactionEvery:     8,
		LevelBytesBase:      8 << 20,
		LevelBytesGrowth:    10,
		RetryTimeout:        10 * time.Second,
		WAL:                 WALAsync,
		WALFlushInterval:    2 * time.Millisecond,
		ParkedBytes:         8 << 20,
		ProbeInterval:       250 * time.Millisecond,
		StallSoftDepth:      8,
		StallTimeout:        time.Second,
		ScanPageBytes:       256 << 10,
		ScrubInterval:       60 * time.Second,
		ScrubBytesPerSec:    8 << 20,
	}
}

// withDefaults fills unset fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MemTableCapacity <= 0 {
		o.MemTableCapacity = d.MemTableCapacity
	}
	if o.Hash == nil {
		o.Hash = hashfn.Default
	}
	if o.RetryTimeout <= 0 {
		o.RetryTimeout = d.RetryTimeout
	}
	if o.LevelBytesBase <= 0 {
		o.LevelBytesBase = d.LevelBytesBase
	}
	if o.LevelBytesGrowth <= 1 {
		o.LevelBytesGrowth = d.LevelBytesGrowth
	}
	if o.WALFlushInterval <= 0 {
		o.WALFlushInterval = d.WALFlushInterval
	}
	if o.ParkedBytes == 0 {
		o.ParkedBytes = d.ParkedBytes
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = d.ProbeInterval
	}
	if o.StallSoftDepth == 0 {
		o.StallSoftDepth = d.StallSoftDepth
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = d.StallTimeout
	}
	if o.ScanPageBytes <= 0 {
		o.ScanPageBytes = d.ScanPageBytes
	}
	if o.ScrubInterval == 0 {
		o.ScrubInterval = d.ScrubInterval
	}
	if o.ScrubBytesPerSec == 0 {
		o.ScrubBytesPerSec = d.ScrubBytesPerSec
	}
	return o
}
