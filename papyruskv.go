// Package papyruskv is a Go implementation of PapyrusKV, the parallel
// embedded key-value store for distributed NVM architectures of Kim, Lee &
// Vetter (SC'17, DOI 10.1145/3126908.3126943).
//
// PapyrusKV stores keys with their values in arbitrary byte arrays across
// the NVM devices of a distributed system. It is embedded in SPMD-style
// programs: every rank runs the same code, and the store is partitioned
// across ranks by a (customisable) key hash. On top of the standard put /
// get / delete operations it provides the paper's HPC-oriented features:
// dynamic consistency control (relaxed vs sequential), protection
// attributes that drive its caches, storage groups that let ranks sharing
// an NVM device read each other's SSTables directly, zero-copy workflows
// across application runs, and asynchronous checkpoint/restart — including
// restart with redistribution onto a different rank count.
//
// Because Go has no MPI bindings, the SPMD substrate is provided by this
// package too: a Cluster runs N ranks as goroutines connected by an
// MPI-semantics message layer, with NVM devices and the interconnect
// governed by calibrated performance models of the paper's three evaluation
// systems (OLCF Summitdev, TACC Stampede, NERSC Cori). Set TimeScale to 0
// to disable all performance modelling and run at native speed.
//
// A minimal SPMD program:
//
//	cluster, _ := papyruskv.NewCluster(papyruskv.ClusterConfig{Ranks: 4, Dir: dir})
//	err := cluster.Run(func(ctx *papyruskv.Context) error {
//		db, err := ctx.Open("mydb", nil)
//		if err != nil {
//			return err
//		}
//		if err := db.Put([]byte("key"), []byte("value")); err != nil {
//			return err
//		}
//		if err := db.Barrier(papyruskv.SSTableLevel); err != nil {
//			return err
//		}
//		val, err := db.Get([]byte("key"))
//		_ = val
//		return db.Close()
//	})
package papyruskv

import (
	"papyruskv/internal/core"
	"papyruskv/internal/hashfn"
	"papyruskv/internal/scrub"
)

// Re-exported core types. The paper's papyruskv_option_t, consistency
// modes, protection attributes, barrier levels, events, and error codes all
// surface here so applications never import internal packages.
type (
	// Options configures a database at open time (papyruskv_option_t).
	Options = core.Options
	// Consistency selects relaxed or sequential mode (§3.1).
	Consistency = core.Consistency
	// Protection is RDWR, WRONLY, or RDONLY (§3.2).
	Protection = core.Protection
	// BarrierLevel is the papyruskv_barrier flushing level.
	BarrierLevel = core.BarrierLevel
	// DB is an open database handle; Open is collective and every rank
	// holds an identical descriptor.
	DB = core.DB
	// Event identifies an asynchronous checkpoint/restart/destroy
	// operation (papyruskv_event_t); Wait blocks for completion.
	Event = core.Event
	// Metrics exposes per-rank data-path counters.
	Metrics = core.Metrics
	// Iterator is a snapshot-pinned ordered iterator over one rank's
	// local view; DB.NewIterator opens one, and DB.Scan merges them
	// across every rank of the world.
	Iterator = core.Iterator
	// HashFunc maps a key to its owner rank; install a custom one via
	// Options.Hash for application-specific load balancing.
	HashFunc = hashfn.Func
	// WALMode selects the write-ahead-log durability discipline via
	// Options.WAL: WALAsync (group commit, the default), WALSync (fsync
	// before every acknowledgement), or WALDisabled.
	WALMode = core.WALMode
	// HealthState is a rank's position on the degradation ladder reported
	// by DB.State: Healthy → Degraded (read-only) → Failed.
	HealthState = core.HealthState
	// ScrubReport is the cumulative outcome of a rank's background
	// integrity scrub (DB.ScrubReport): verification counters plus the key
	// range of every table quarantined without a repair source.
	ScrubReport = scrub.Report
	// ScrubLostRange is one quarantined, unrepairable table's key coverage
	// inside a ScrubReport.
	ScrubLostRange = scrub.LostRange
)

// Degradation-ladder states (DB.State). A Healthy rank serves reads and
// writes; a Degraded rank — out of NVM space, or over its parked-batch
// budget — serves reads but refuses writes with ErrReadOnly until resources
// are reclaimed (DB.Reclaim, or the background reclaim probe); a Failed
// rank refuses everything with ErrRankFailed until DB.Recover heals it.
const (
	StateHealthy  = core.StateHealthy
	StateDegraded = core.StateDegraded
	StateFailed   = core.StateFailed
)

// Consistency modes (PAPYRUSKV_RELAXED, PAPYRUSKV_SEQUENTIAL).
const (
	Relaxed    = core.Relaxed
	Sequential = core.Sequential
)

// Protection attributes (PAPYRUSKV_RDWR, PAPYRUSKV_WRONLY, PAPYRUSKV_RDONLY).
const (
	RDWR   = core.RDWR
	WRONLY = core.WRONLY
	RDONLY = core.RDONLY
)

// Barrier levels (PAPYRUSKV_MEMTABLE, PAPYRUSKV_SSTABLE).
const (
	MemTableLevel = core.LevelMemTable
	SSTableLevel  = core.LevelSSTable
)

// Write-ahead-log durability modes (Options.WAL). WALAsync is the zero
// value: a kill loses at most the last group-commit window of acknowledged
// puts. WALSync loses none. WALDisabled restores the original artifact's
// behaviour, where durability begins only at SSTable flush.
const (
	WALAsync    = core.WALAsync
	WALSync     = core.WALSync
	WALDisabled = core.WALDisabled
)

// Error codes (PAPYRUSKV_NOT_FOUND, PAPYRUSKV_INVALID_DB, ...).
var (
	ErrNotFound        = core.ErrNotFound
	ErrInvalidDB       = core.ErrInvalidDB
	ErrProtected       = core.ErrProtected
	ErrInvalidArgument = core.ErrInvalidArgument
	ErrNoSnapshot      = core.ErrNoSnapshot
	// ErrReadOnly is returned for writes — local puts, and remote puts or
	// migrations refused by their owner across the wire — while a rank is
	// Degraded (read-only). Reads keep working; Reclaim or freed space
	// lifts the state.
	ErrReadOnly = core.ErrReadOnly
	// ErrWriteStalled is returned when a put, after stalling up to
	// Options.StallTimeout on a full immutable-table backlog, still finds
	// the backlog above the soft threshold — or immediately once the
	// backlog reaches four times Options.StallSoftDepth. The put was not
	// applied.
	ErrWriteStalled = core.ErrWriteStalled
	// ErrScrubLoss is the cause inside Health()'s ErrReadOnly after the
	// background scrubber found a corrupt SSTable with no valid checkpoint
	// copy to repair from: the table is quarantined, its key range is in
	// DB.ScrubReport, and the rank is Degraded (read-only).
	ErrScrubLoss = core.ErrScrubLoss
)

// DefaultOptions returns the paper's default database configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultHash is the built-in owner-rank hash function.
func DefaultHash(key []byte, nranks int) int { return hashfn.Default(key, nranks) }
