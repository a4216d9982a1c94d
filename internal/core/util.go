package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"papyruskv/internal/stats"
)

// Metrics are cumulative per-rank, per-database operation counters; tests
// and the experiment harness use them to assert which data path served each
// operation (the arrows of Figures 2 and 3). A counter's metric tag is its
// Snapshot key.
type Metrics struct {
	PutsLocal              atomic.Uint64 `metric:"puts_local"`  // puts whose owner is the caller
	PutsRemote             atomic.Uint64 `metric:"puts_remote"` // staged remote puts (relaxed mode)
	PutsSync               atomic.Uint64 `metric:"puts_sync"`   // synchronous remote puts (sequential mode)
	GetsLocal              atomic.Uint64 `metric:"gets_local"`  // gets served by the local path
	GetsRemote             atomic.Uint64 `metric:"gets_remote"` // gets that queried a remote owner
	LocalCacheHits         atomic.Uint64 `metric:"local_cache_hits"`
	RemoteCacheHits        atomic.Uint64 `metric:"remote_cache_hits"`
	MemTableHits           atomic.Uint64 `metric:"memtable_hits"`            // local/immutable MemTable hits
	SSTableHits            atomic.Uint64 `metric:"sstable_hits"`             // values read out of own SSTables
	SharedSSTReads         atomic.Uint64 `metric:"shared_sst_reads"`         // values read from a peer's SSTables via the storage group
	SSTableProbes          atomic.Uint64 `metric:"sstable_probes"`           // SSTable reader probes issued by gets (read amplification)
	Flushes                atomic.Uint64 `metric:"flushes"`                  // immutable local MemTables flushed
	Compactions            atomic.Uint64 `metric:"compactions"`              // SSTable merges performed
	CompactionBytesWritten atomic.Uint64 `metric:"compaction_bytes_written"` // bytes written by compaction outputs (write amplification)
	Migrations             atomic.Uint64 `metric:"migrations"`               // migration batches sent
	MigratedPairs          atomic.Uint64 `metric:"migrated_pairs"`           // key-value pairs migrated out
	MigrationRetries       atomic.Uint64 `metric:"migration_retries"`        // migration batch attempts beyond the first
	PutSyncRetries         atomic.Uint64 `metric:"put_sync_retries"`         // synchronous-put attempts beyond the first
	GetRetries             atomic.Uint64 `metric:"get_retries"`              // remote-get attempts beyond the first
	DupsDropped            atomic.Uint64 `metric:"dups_dropped"`             // duplicate requests dropped by the dedup window
	RepliesUnclaimed       atomic.Uint64 `metric:"replies_unclaimed"`        // stale/duplicate replies dropped by the response router
	BadRequests            atomic.Uint64 `metric:"bad_requests"`             // malformed request frames from peers, dropped or nacked

	Recoveries          atomic.Uint64 `metric:"recoveries"`           // successful in-run Recover calls on this rank
	Reclaims            atomic.Uint64 `metric:"reclaims"`             // Degraded→Healthy transitions (reclaim probe or Reclaim call)
	DegradedTransitions atomic.Uint64 `metric:"degraded_transitions"` // Healthy→Degraded transitions
	Degraded            atomic.Uint64 `metric:"degraded"`             // gauge: 1 while the rank is Degraded (read-only)
	Stalls              atomic.Uint64 `metric:"stalls"`               // puts that entered the admission-control stall loop
	StallNanos          atomic.Uint64 `metric:"stall_ns_total"`       // total nanoseconds puts spent stalled
	PutsShed            atomic.Uint64 `metric:"puts_shed"`            // puts refused with ErrWriteStalled
	ProbesSent          atomic.Uint64 `metric:"probes_sent"`          // half-open circuit probes sent
	CircuitsOpened      atomic.Uint64 `metric:"circuits_opened"`      // peer circuit breakers tripped open
	CircuitsClosed      atomic.Uint64 `metric:"circuits_closed"`      // peer circuit breakers closed by a healthy probe answer
	ParkedBatches       atomic.Uint64 `metric:"parked_batches"`       // migration batches parked for an unreachable peer
	RedeliveredBatches  atomic.Uint64 `metric:"redelivered_batches"`  // parked batches delivered after the peer recovered
	ParkOverflows       atomic.Uint64 `metric:"park_overflows"`       // batches degraded to loss by the parked-bytes budget
	PairsLost           atomic.Uint64 `metric:"pairs_lost"`           // pairs definitively lost on the way to their owner
	QuarantinedTables   atomic.Uint64 `metric:"quarantined_tables"`   // unlisted SSTables moved aside at open/recover, never adopted

	Scans               atomic.Uint64 `metric:"scans"`                 // DB.Scan calls started
	ScanPairs           atomic.Uint64 `metric:"scan_pairs"`            // pairs delivered to Scan callbacks on this rank
	ScanPages           atomic.Uint64 `metric:"scan_pages"`            // owner-side scan pages served to remote callers
	ScanRetries         atomic.Uint64 `metric:"scan_retries"`          // scan page attempts beyond the first
	ScansExpired        atomic.Uint64 `metric:"scans_expired"`         // owner-side remote scans reaped by the idle sweep
	IteratorsOpen       atomic.Uint64 `metric:"iterators_open"`        // gauge: per-rank merge iterators currently open (snapshots pinned)
	ScanUnlinksDeferred atomic.Uint64 `metric:"scan_unlinks_deferred"` // doomed tables (compacted away or quarantined) whose files waited for a pinned view to retire

	// lostMu guards the per-owner breakdown behind PairsLost; tests use it
	// to pin exactly whose pairs a degradation cost.
	lostMu     sync.Mutex
	lostByPeer map[int]uint64

	// WAL, Manifest and Scrub hold the write-ahead log's (records/bytes
	// appended, fsyncs, group commits, recovery totals), the table-lifecycle
	// manifest's (edits, rotations, truncated tails) and the integrity
	// scrubber's (tables verified, bytes read, corruptions, repairs)
	// counters, incremented by those layers.
	WAL      stats.WAL
	Manifest stats.Manifest
	Scrub    stats.Scrub

	// Readers points at the SSTable reader-cache counters. The cache — and
	// therefore these counters — is per NVM device, shared by every rank of
	// a storage group, not per-rank like the counters above.
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

// Snapshot returns a plain-values copy for reporting: every counter under
// its metric tag — the WAL, manifest, scrub and (once set) reader-cache
// counters included — and the per-rank loss breakdown under
// pairs_lost_rank_ keys.
func (m *Metrics) Snapshot() map[string]uint64 {
	snap := stats.Flatten(m)
	m.lostMu.Lock()
	for r, n := range m.lostByPeer {
		snap[fmt.Sprintf("pairs_lost_rank_%d", r)] = n
	}
	m.lostMu.Unlock()
	return snap
}
