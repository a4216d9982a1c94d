package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"papyruskv/internal/stats"
)

// counter is a waitable pending-work counter: the runtime uses one for
// in-flight compaction jobs and one for held checkpoint pins.
type counter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func newCounter() *counter {
	c := &counter{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *counter) add(delta int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += delta
	if c.n <= 0 {
		c.cond.Broadcast()
	}
}

func (c *counter) done() { c.add(-1) }

// wait blocks until the counter reaches zero.
func (c *counter) wait() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.n > 0 {
		c.cond.Wait()
	}
}

func (c *counter) value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Metrics are cumulative per-rank, per-database operation counters; tests
// and the experiment harness use them to assert which data path served each
// operation (the arrows of Figures 2 and 3).
type Metrics struct {
	PutsLocal              atomic.Uint64 // puts whose owner is the caller
	PutsRemote             atomic.Uint64 // staged remote puts (relaxed mode)
	PutsSync               atomic.Uint64 // synchronous remote puts (sequential mode)
	GetsLocal              atomic.Uint64 // gets served by the local path
	GetsRemote             atomic.Uint64 // gets that queried a remote owner
	LocalCacheHits         atomic.Uint64
	RemoteCacheHits        atomic.Uint64
	MemTableHits           atomic.Uint64 // local/immutable MemTable hits
	SSTableHits            atomic.Uint64 // values read out of own SSTables
	SharedSSTReads         atomic.Uint64 // values read from a peer's SSTables via the storage group
	SSTableProbes          atomic.Uint64 // SSTable reader probes issued by gets (read amplification)
	Flushes                atomic.Uint64 // immutable local MemTables flushed
	Compactions            atomic.Uint64 // SSTable merges performed
	CompactionsDeferred    atomic.Uint64 // compaction triggers deferred under a held checkpoint pin
	CompactionBytesWritten atomic.Uint64 // bytes written by compaction outputs (write amplification)
	Migrations             atomic.Uint64 // migration batches sent
	MigratedPairs          atomic.Uint64 // key-value pairs migrated out
	MigrationRetries       atomic.Uint64 // migration batch attempts beyond the first
	PutSyncRetries         atomic.Uint64 // synchronous-put attempts beyond the first
	GetRetries             atomic.Uint64 // remote-get attempts beyond the first
	DupsDropped            atomic.Uint64 // duplicate requests dropped by the dedup window
	RepliesUnclaimed       atomic.Uint64 // stale/duplicate replies dropped by the response router
	BadRequests            atomic.Uint64 // malformed request frames from peers, dropped or nacked

	Recoveries          atomic.Uint64 // successful in-run Recover calls on this rank
	Reclaims            atomic.Uint64 // Degraded→Healthy transitions (reclaim probe or Reclaim call)
	DegradedTransitions atomic.Uint64 // Healthy→Degraded transitions
	Degraded            atomic.Uint64 // gauge: 1 while the rank is Degraded (read-only)
	Stalls              atomic.Uint64 // puts that entered the admission-control stall loop
	StallNanos          atomic.Uint64 // total nanoseconds puts spent stalled
	PutsShed            atomic.Uint64 // puts refused with ErrWriteStalled
	ProbesSent          atomic.Uint64 // half-open circuit probes sent
	CircuitsOpened      atomic.Uint64 // peer circuit breakers tripped open
	CircuitsClosed      atomic.Uint64 // peer circuit breakers closed by a healthy probe answer
	ParkedBatches       atomic.Uint64 // migration batches parked for an unreachable peer
	RedeliveredBatches  atomic.Uint64 // parked batches delivered after the peer recovered
	ParkOverflows       atomic.Uint64 // batches degraded to loss by the parked-bytes budget
	PairsLost           atomic.Uint64 // pairs definitively lost on the way to their owner
	QuarantinedTables   atomic.Uint64 // unlisted SSTables moved aside at open/recover, never adopted

	Scans               atomic.Uint64 // DB.Scan calls started
	ScanPairs           atomic.Uint64 // pairs delivered to Scan callbacks on this rank
	ScanPages           atomic.Uint64 // owner-side scan pages served to remote callers
	ScanRetries         atomic.Uint64 // scan page attempts beyond the first
	ScansExpired        atomic.Uint64 // owner-side remote scans reaped by the idle sweep
	IteratorsOpen       atomic.Uint64 // gauge: per-rank merge iterators currently open (snapshots pinned)
	ScanUnlinksDeferred atomic.Uint64 // doomed tables (compacted away or quarantined) whose files waited for a pinned view to retire

	// lostMu guards the per-owner breakdown behind PairsLost; tests use it
	// to pin exactly whose pairs a degradation cost.
	lostMu     sync.Mutex
	lostByPeer map[int]uint64

	// WAL holds the write-ahead-log counters (records/bytes appended,
	// fsyncs, group commits, recovery totals), incremented by the wal
	// package and flattened into Snapshot with a wal_ prefix.
	WAL stats.WAL

	// Manifest holds the table-lifecycle log's counters (edits, rotations,
	// truncated tails), incremented by the manifest package and flattened
	// into Snapshot with a manifest_ prefix.
	Manifest stats.Manifest

	// Scrub holds the background integrity scrubber's counters (tables
	// verified, bytes read, corruptions, repairs), flattened into Snapshot
	// under their scrub metric names.
	Scrub stats.Scrub

	// Readers points at the SSTable reader-cache counters, flattened into
	// Snapshot with a reader_cache_ prefix. The cache — and therefore
	// these counters — is per NVM device, shared by every rank of a
	// storage group, not per-rank like the counters above.
	Readers *stats.ReaderCache
}

// addPairsLost counts pairs lost on the way to owner, both in the total
// and the per-owner breakdown.
func (m *Metrics) addPairsLost(owner int, pairs uint64) {
	m.PairsLost.Add(pairs)
	m.lostMu.Lock()
	if m.lostByPeer == nil {
		m.lostByPeer = make(map[int]uint64)
	}
	m.lostByPeer[owner] += pairs
	m.lostMu.Unlock()
}

// PairsLostByPeer returns a copy of the per-owner loss breakdown.
func (m *Metrics) PairsLostByPeer() map[int]uint64 {
	m.lostMu.Lock()
	defer m.lostMu.Unlock()
	out := make(map[int]uint64, len(m.lostByPeer))
	for r, n := range m.lostByPeer {
		out[r] = n
	}
	return out
}

// Snapshot returns a plain-values copy for reporting, the WAL counters
// included under their wal_ keys (and the per-rank loss breakdown under
// pairs_lost_rank_ keys).
func (m *Metrics) Snapshot() map[string]uint64 {
	snap := map[string]uint64{
		"puts_local":               m.PutsLocal.Load(),
		"puts_remote":              m.PutsRemote.Load(),
		"puts_sync":                m.PutsSync.Load(),
		"gets_local":               m.GetsLocal.Load(),
		"gets_remote":              m.GetsRemote.Load(),
		"local_cache_hits":         m.LocalCacheHits.Load(),
		"remote_cache_hits":        m.RemoteCacheHits.Load(),
		"memtable_hits":            m.MemTableHits.Load(),
		"sstable_hits":             m.SSTableHits.Load(),
		"shared_sst_reads":         m.SharedSSTReads.Load(),
		"sstable_probes":           m.SSTableProbes.Load(),
		"flushes":                  m.Flushes.Load(),
		"compactions":              m.Compactions.Load(),
		"compactions_deferred":     m.CompactionsDeferred.Load(),
		"compaction_bytes_written": m.CompactionBytesWritten.Load(),
		"migrations":               m.Migrations.Load(),
		"migrated_pairs":           m.MigratedPairs.Load(),
		"migration_retries":        m.MigrationRetries.Load(),
		"put_sync_retries":         m.PutSyncRetries.Load(),
		"get_retries":              m.GetRetries.Load(),
		"dups_dropped":             m.DupsDropped.Load(),
		"replies_unclaimed":        m.RepliesUnclaimed.Load(),
		"bad_requests":             m.BadRequests.Load(),

		"recoveries":           m.Recoveries.Load(),
		"reclaims":             m.Reclaims.Load(),
		"degraded_transitions": m.DegradedTransitions.Load(),
		"degraded":             m.Degraded.Load(),
		"stalls":               m.Stalls.Load(),
		"stall_ns_total":       m.StallNanos.Load(),
		"puts_shed":            m.PutsShed.Load(),

		"probes_sent":         m.ProbesSent.Load(),
		"circuits_opened":     m.CircuitsOpened.Load(),
		"circuits_closed":     m.CircuitsClosed.Load(),
		"parked_batches":      m.ParkedBatches.Load(),
		"redelivered_batches": m.RedeliveredBatches.Load(),
		"park_overflows":      m.ParkOverflows.Load(),
		"pairs_lost":          m.PairsLost.Load(),
		"quarantined_tables":  m.QuarantinedTables.Load(),

		"scans":                 m.Scans.Load(),
		"scan_pairs":            m.ScanPairs.Load(),
		"scan_pages":            m.ScanPages.Load(),
		"scan_retries":          m.ScanRetries.Load(),
		"scans_expired":         m.ScansExpired.Load(),
		"iterators_open":        m.IteratorsOpen.Load(),
		"scan_unlinks_deferred": m.ScanUnlinksDeferred.Load(),
	}
	m.lostMu.Lock()
	for r, n := range m.lostByPeer {
		snap[fmt.Sprintf("pairs_lost_rank_%d", r)] = n
	}
	m.lostMu.Unlock()
	for k, v := range m.WAL.Snapshot() {
		snap[k] = v
	}
	for k, v := range m.Manifest.Snapshot() {
		snap[k] = v
	}
	for k, v := range m.Scrub.Snapshot() {
		snap[k] = v
	}
	if m.Readers != nil {
		for k, v := range m.Readers.Snapshot() {
			snap[k] = v
		}
	}
	return snap
}
