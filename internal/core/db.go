package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"papyruskv/internal/faults"
	"papyruskv/internal/lru"
	"papyruskv/internal/manifest"
	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/scrub"
	"papyruskv/internal/sstable"
)

// DB is one rank's handle on an open database. Open is collective; every
// rank holds a structurally identical descriptor. Put, Get, Delete, and
// Metrics are safe for any number of application goroutines per rank
// (MPI_THREAD_MULTIPLE, §2.3): concurrent remote operations each register
// in the response router's pending-call table and can never consume one
// another's replies. The collective operations — Open, Close, Fence,
// Barrier, Checkpoint, Restart, SetConsistency, Protect — must be called by
// one goroutine per rank, in the same order on every rank, and not
// concurrently with each other; that is MPI's own collective-ordering
// contract, not a lock this layer could supply.
//
// Lock order for the six mutexes declared below, outermost first. A
// goroutine may take a lock only while holding locks listed above it:
//
//	recoverMu, scrubMu   each held across one whole Recover / scrub cycle;
//	                     never both at once
//	mu, sstMu            never held together
//	scrubRepMu           leaf
//	failMu               leaf, taken under any of the above (a WAL rotation
//	                     degrades the rank under mu)
//
// Each wal.Log brings two more, below mu: its I/O lock, then its append
// lock (wal/log.go). A put appends under mu, taking the append lock alone;
// a MemTable roll rotates the stream under mu, taking both; commits and the
// group-commit thread take them without mu, so a write or fsync in flight
// never holds mu.
//
// The wake broadcast (backlog.go) is lock-free and sits outside the order.
type DB struct {
	rt   *Runtime
	name string

	// reqComm carries requests into message handlers; replyComm carries
	// their replies back, drained exclusively by the response router
	// (router.go) and demultiplexed to waiting callers by (tag, seq);
	// respComm carries the application-thread collectives (barriers).
	// All are private duplicates of the world communicator, so runtime
	// traffic can never collide with application messages (§2.4,
	// Migration), and the split keeps the router's wildcard receive off
	// the collective traffic (a message-barrier world's tokens would
	// otherwise be stolen). ckptComm carries the checkpoint commit
	// collectives, which run on a goroutine concurrent with
	// application-thread collectives on respComm.
	reqComm   *mpi.Comm
	respComm  *mpi.Comm
	replyComm *mpi.Comm
	ckptComm  *mpi.Comm

	// ownDir is this rank's SSTable directory, db.dir(rt.rank).
	ownDir string

	// mu guards the MemTables, the immutable-table lists and the background
	// threads' claims on them, stores of the WAL streams and walSegs, and the
	// consistency and protection flags. closed is set under it, so a put
	// that checked it under mu finishes before Close tears down; the read
	// path loads it lock-free.
	//
	// immLocal and immRemote hold the sealed MemTables, oldest first. Gets
	// search them newest first; the flush thread and the dispatcher consume
	// them oldest first (backlog.go) — the lists are the paper's flushing
	// and migration queues. flushBusy/migrBusy are set while a thread works
	// on a table it claimed; migrPending counts the tail of immRemote the
	// dispatcher has not claimed yet (a sent table can linger ahead of it
	// while a parked batch pins it).
	mu          sync.Mutex
	opt         Options
	localMT     *memtable.Table
	remoteMT    *memtable.Table
	immLocal    []*memtable.Table
	immRemote   []*memtable.Table
	flushBusy   bool
	migrBusy    bool
	migrPending int
	consistency Consistency
	protection  Protection
	closed      atomic.Bool

	// wake is the broadcast behind await/wakeAll (backlog.go): a channel
	// closed and replaced on every seal, retire, idle thread, health
	// transition and Close.
	wake atomic.Pointer[chan struct{}]

	localCache  *lru.Cache
	remoteCache *lru.Cache
	// beforeFill, nil outside tests, runs between a local get's SSTable
	// search and its local-cache fill, the window a concurrent put races.
	beforeFill func(key []byte)

	// readers is the device's shared SSTable reader cache (see
	// sstable.ReaderCache): every rank on the device — the whole storage
	// group — resolves to the same instance, so the owner's invalidations
	// on compaction, restore, and teardown cover the peers' shared reads.
	readers *sstable.ReaderCache

	// sstMu guards the leveled live-table state and the SSID allocator.
	// levels[0] is the overlap-allowed level, ordered by SSID ascending
	// (newest last); levels[n>=1] hold non-overlapping key ranges, ordered
	// by MinKey. Recency across levels is (level asc, then SSID desc within
	// L0): an L1 output carries a higher SSID than L0 tables flushed during
	// its merge, so raw SSID order no longer encodes recency.
	//
	// view is levels as gets and iterators read it: republished under sstMu
	// on every change, loaded and pinned without it (view.go). openTables
	// counts the view handles holding an open table, doomedTables the
	// dropped tables whose files still wait for a pinned view to retire.
	sstMu        sync.RWMutex
	levels       [][]manifest.TableMeta
	nextSSID     uint64
	view         atomic.Pointer[readView]
	openTables   atomic.Int64
	doomedTables atomic.Int64

	// compactKick wakes the compaction workers; the cap-1 channel coalesces
	// any number of triggers into one pending kick. The busy sets, guarded
	// by sstMu, hold the tables claimed as inputs by a job still running.
	compactKick   chan struct{}
	compactBusy   map[uint64]bool
	compactL0Busy bool

	// scans is the owner-side registry of remote scans in progress: each
	// holds a pinned iterator between page requests so a slow consumer
	// costs a registry entry, never a handler worker. The prober reaps
	// entries idle past scanIdleTimeout.
	scans scanRegistry

	// man is this rank's table-lifecycle manifest (manifest.go): the
	// durable record of which SSTables are live. Every flush, compaction,
	// and restore commits its edit here before old files are unlinked;
	// nil after a failed manifest open, which refuses further transitions.
	man *manifest.Manifest

	// ckptCopies counts checkpoint copies in progress. Each copies a pinned
	// read view, so compaction runs on; only the scrubber yields to it.
	ckptCopies atomic.Int32

	// Background integrity scrub (scrub.go). scrubMu serializes cycles
	// (the ticker thread against explicit Scrub calls); scrubLim is the
	// token-bucket byte budget shared by every cycle; scrubRep, guarded by
	// scrubRepMu, accumulates the typed report (verification counters and
	// lost key ranges) that ScrubReport hands out.
	scrubMu    sync.Mutex
	scrubLim   *scrub.Limiter
	scrubRepMu sync.Mutex
	scrubRep   scrub.Report

	metrics Metrics

	// failMu guards the failure-domain state (health.go, recover.go): this
	// rank's root-cause failure, the per-peer circuit breakers (each with
	// its parked-batch queue), the parked-bytes accounting, the MemTables
	// pinned by parked batches, and the accumulated loss records the next
	// Fence drains. failedErr is written under it and read lock-free by the
	// read path's readHealth.
	failMu          sync.Mutex
	failedErr       atomic.Pointer[error]
	degradedErr     error // read-only degradation cause; Failed dominates
	peers           map[int]*peerCircuit
	parkedBytesUsed int64
	parkedTables    map[*memtable.Table]int
	lost            map[int]*lossRecord

	// incarnation is this rank's life number — the replayed WAL epoch, so
	// it is strictly monotonic across restarts and in-run recoveries. It
	// rides in every reliable request and ping so receivers can scope
	// their dedup windows to the sender's current life.
	incarnation atomic.Uint32
	// recoverMu serializes Recover against itself.
	recoverMu sync.Mutex

	// sendSeq numbers this database's outbound requests; replies echo the
	// seq so retries and duplicates are matched exactly.
	sendSeq atomic.Uint64
	// dedup is the handler-side duplicate-request window.
	dedup dedupWindow

	// calls is the response router's pending-call table (router.go);
	// closing is closed when Close begins teardown and routerDone when
	// the router exits, so retry loops blocked on replies or backoff
	// timers wake immediately instead of stalling shutdown.
	calls      pendingCalls
	closing    chan struct{}
	routerDone chan struct{}

	// inj arms the CoreKill injection point; nil when faults are off.
	inj *faults.Injector

	// Write-ahead log (see wal.go). wal holds the two streams, nil when
	// the log is disabled or its recovery failed; it is stored under mu
	// and loaded without it. walSeq stamps every record with the
	// database-wide append order; walSegs (guarded by mu) maps each sealed
	// MemTable to the sealed segment holding its records; walStop ends the
	// WALAsync group-commit thread.
	wal     atomic.Pointer[walLogs]
	walSeq  atomic.Uint64
	walSegs map[*memtable.Table]walSegRef
	walStop chan struct{}

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// dir returns the device-relative SSTable directory of rank r for this
// database. Ranks in one storage group share a device, so a group member
// can address a peer's directory directly.
func (db *DB) dir(r int) string { return fmt.Sprintf("%s/r%d", db.name, r) }

// Open opens or creates the database name with the given options. It is a
// collective operation: all ranks call it with the same name. If SSTables
// for this database already exist on the NVM devices — retained from an
// earlier application in the same job — the database is composed from them
// without any data movement (the zero-copy workflow of §4.1).
func (rt *Runtime) Open(name string, opt Options) (*DB, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty database name", ErrInvalidArgument)
	}
	opt = opt.withDefaults()
	db := &DB{
		rt:          rt,
		name:        name,
		opt:         opt,
		reqComm:     rt.cfg.Comm.Dup(),
		respComm:    rt.cfg.Comm.Dup(),
		replyComm:   rt.cfg.Comm.Dup(),
		ckptComm:    rt.cfg.Comm.Dup(),
		closing:     make(chan struct{}),
		routerDone:  make(chan struct{}),
		inj:         rt.cfg.Faults,
		localMT:     memtable.New(),
		remoteMT:    memtable.New(),
		consistency: opt.Consistency,
		protection:  opt.Protection,
		localCache:  lru.New(opt.LocalCacheCapacity),
		remoteCache: lru.New(opt.RemoteCacheCapacity),
		compactKick: make(chan struct{}, 1),
		compactBusy: make(map[uint64]bool),
		readers:     sstable.CacheFor(rt.cfg.Device, readerCacheBytes),
		nextSSID:    1,
		scrubLim:    scrub.NewLimiter(opt.ScrubBytesPerSec),
	}
	db.ownDir = db.dir(rt.rank)
	db.publishLocked(nil) // empty until the manifest composes the version
	wake := make(chan struct{})
	db.wake.Store(&wake)
	db.scans.m = make(map[scanKey]*openScan)
	db.applyProtection(opt.Protection)
	// The counters are device-wide (shared with the storage group's other
	// ranks), surfaced here under the reader_cache_ snapshot keys.
	db.metrics.Readers = db.readers.Counters()

	// Compose from the manifest log (zero-copy reopen): the log alone
	// decides which SSTables are live, and unlisted files are quarantined.
	// A corrupt or unopenable manifest fails
	// this rank's domain rather than the collective Open, exactly like a
	// corrupt WAL below: the world keeps its alignment, the damage stays
	// inside the failure domain that owns it.
	if err := db.manifestOpen(false); err != nil {
		db.fail(fmt.Errorf("manifest open: %w", err))
	}

	// Recover the write-ahead log and replay acknowledged-but-unflushed
	// records into the fresh MemTables — this is what makes a kill-and-
	// reopen lose nothing that was acked. Mid-log corruption fails this
	// rank's domain (typed wal.ErrCorrupt as root cause) instead of
	// failing the collective Open: the world keeps its alignment, the
	// damage stays inside the failure domain that owns it.
	db.walStop = make(chan struct{})
	if opt.WAL != WALDisabled {
		if err := db.walOpen(); err != nil {
			db.fail(err)
		}
	}
	// First life: the local stream's epoch when the WAL is on (Recover
	// advances it on every rebirth), else a counter recovery bumps.
	if w := db.wal.Load(); w != nil {
		db.incarnation.Store(w.local.Epoch())
		// Record the epoch this life opened with; a manifest dump then
		// tells which WAL generation pairs with the listed tables. An
		// append failure here poisons the manifest and fails the rank —
		// proceeding would let later transitions go unrecorded.
		if err := db.manifestApply(manifest.Edit{WALEpoch: w.local.Epoch()}); err != nil && db.man != nil {
			db.fail(fmt.Errorf("manifest: record WAL epoch: %w", err))
		}
	} else {
		db.incarnation.Store(1)
	}

	db.wg.Add(5)
	go db.compactionThread()
	go db.dispatcherThread()
	go db.handlerThread()
	go db.routerThread()
	go db.proberThread()
	// The compaction workers are separate from the flush thread: picking is
	// score-driven, not tied to flush cadence, and jobs over disjoint level
	// ranges run in parallel.
	for i := 0; i < compactionWorkers; i++ {
		db.wg.Add(1)
		go db.compactorThread()
	}
	// The group-commit thread starts whenever the mode calls for it, even
	// if this open's WAL recovery failed: a later Recover may install
	// fresh logs, and the thread loads them from db.wal either way.
	if opt.WAL == WALAsync {
		db.wg.Add(1)
		go db.walFlushThread()
	}
	// The background integrity scrubber; a negative interval disables it
	// (explicit Scrub calls still work).
	if opt.ScrubInterval > 0 {
		db.wg.Add(1)
		go db.scrubThread()
	}

	// Every rank must finish composing before any rank issues remote
	// operations against it. The barrier runs on respComm, which carries
	// only collectives: the message handler wildcard-receives on reqComm
	// and the response router on replyComm, and either would steal
	// barrier tokens in a distributed (message-barrier) world.
	if err := db.respComm.Barrier(); err != nil {
		return nil, err
	}
	return db, nil
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// Metrics returns this rank's operation counters.
func (db *DB) Metrics() *Metrics { return &db.metrics }

// Runtime returns the owning runtime.
func (db *DB) Runtime() *Runtime { return db.rt }

// SSTableCount returns the number of live SSTables on this rank.
func (db *DB) SSTableCount() int {
	db.sstMu.RLock()
	defer db.sstMu.RUnlock()
	n := 0
	for _, lvl := range db.levels {
		n += len(lvl)
	}
	return n
}

// Owner returns the owner rank of key under this database's hash function.
func (db *DB) Owner(key []byte) int {
	return db.opt.Hash(key, db.rt.size)
}

// Close closes the database collectively. All in-flight migrations are
// fenced and all MemTables flushed so the SSTables on NVM are a complete
// image — this is what makes the zero-copy reopen of §4.1 possible.
//
// Close stays collective-aligned even on a failed rank: the barrier and the
// shutdown sequence run regardless, so healthy ranks are never left waiting
// on a failed one, and the failure (skipped flush included) is reported in
// the return value.
func (db *DB) Close() error {
	if db.closed.Load() {
		return ErrInvalidDB
	}

	// Flush everything so on-NVM state is complete, and synchronise so no
	// rank can still be sending requests at shutdown. On a failed rank
	// Barrier performs the same collectives but skips the flush and
	// returns the root cause; proceed with teardown either way.
	barErr := db.Barrier(LevelSSTable)

	db.mu.Lock()
	db.closed.Store(true)
	db.mu.Unlock()

	var sendErr error
	db.closeOnce.Do(func() {
		// Wake any retry ladder still sleeping or waiting on a reply (an
		// application thread that raced Close, or requests to an already
		// failed peer): their backoff timers and reply waits select on
		// closing and error out instead of stalling the teardown below.
		// The flush thread and the dispatcher see closing at their next
		// wake and exit once nothing they may work on is left.
		close(db.closing)
		db.wakeAll()
		// Stop the handler and the response router with self-addressed
		// control messages, and close the stop channel to end the WAL
		// group-commit thread.
		sendErr = db.reqComm.Send(db.rt.rank, tagShutdown, nil)
		if err := db.replyComm.Send(db.rt.rank, tagShutdown, nil); err != nil && sendErr == nil {
			sendErr = err
		}
		close(db.walStop)
	})
	db.wg.Wait()
	// The handler is down, so no remote scan can page again: close every
	// registered scan, releasing its pinned view and the files of the
	// tables only it still read. An application iterator left open keeps
	// its view, and with it its tables' files, until its own Close; one
	// never closed leaves them as orphans for the next Open to quarantine.
	db.scans.closeAll()
	// Batches still parked for unreachable peers have no future to wait
	// for: convert them to counted loss so the caller hears about every
	// pair that never reached its owner.
	lossErr := db.abandonParked()
	db.walClose()
	db.manifestClose()
	// Release this rank's table handles and cached readers (and their fds).
	// The per-device cache outlives the database — peers may still be
	// reading shared tables — but this rank's own directory has no readers
	// left.
	db.retireView()
	db.readers.EvictDir(db.ownDir)
	// Final barrier: every rank's handler is down together.
	finalErr := db.respComm.Barrier()
	switch {
	case barErr != nil:
		return barErr
	case sendErr != nil:
		return sendErr
	case lossErr != nil:
		return lossErr
	default:
		return finalErr
	}
}

func (db *DB) checkOpen() error {
	if db.closed.Load() {
		return ErrInvalidDB
	}
	return nil
}

// Consistency returns the current consistency mode.
func (db *DB) Consistency() Consistency {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.consistency
}

// Protection returns the current protection attribute.
func (db *DB) Protection() Protection {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.protection
}
