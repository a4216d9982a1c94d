package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"papyruskv/internal/faults"
	"papyruskv/internal/nvm"
)

// Failure-domain health ladder: Healthy → Degraded (read-only) → Failed.
//
// A background error (failed flush, failed compaction, injected kill) used
// to abort the whole world like an MPI_Abort, then (PR 1) to mark only the
// owning rank failed. Failure is still a blunt instrument, though: an
// ErrNoSpace from a flush leaves every SSTable, MemTable, and cache
// perfectly readable. The ladder keeps that distinction:
//
//   - Degraded (read-only): a resource-exhaustion error — ErrNoSpace from
//     flush/WAL/compaction, or a parked-bytes budget overflow — stopped the
//     rank persisting new writes. Puts and incoming migrations are refused
//     with typed ErrReadOnly (carried across the wire), but local gets,
//     remote gets, shared reads, and checkpoint reads keep serving from
//     MemTables + SSTables. Sealed tables whose flush cannot run wait in
//     place on immLocal, readable and still WAL-backed. The proberThread's
//     reclaim probe — or an explicit Reclaim call — transitions back to
//     Healthy once the device accepts writes again; peers' circuit probes
//     then see statusOK and redeliver what they parked, exactly as after
//     Recover.
//   - Failed: everything else. The rank's Put/Get/Barrier return
//     ErrRankFailed wrapping the root cause, its background threads leave
//     the sealed tables where they are (Fence and Barrier wait only for a
//     thread to go idle, so they never hang), and its message handler stays
//     alive answering remote requests with error responses. Recover
//     (recover.go) heals a failed rank from its WAL. Failed dominates
//     Degraded: a degraded rank that then hits a non-resource error is
//     failed outright.

// HealthState is a rank's position on the degradation ladder.
type HealthState int

const (
	// StateHealthy: reads and writes are served.
	StateHealthy HealthState = iota
	// StateDegraded: reads are served; writes are refused with ErrReadOnly
	// until resources are reclaimed.
	StateDegraded
	// StateFailed: every operation is refused with ErrRankFailed until
	// Recover heals the rank.
	StateFailed
)

func (s HealthState) String() string {
	switch s {
	case StateDegraded:
		return "degraded"
	case StateFailed:
		return "failed"
	default:
		return "healthy"
	}
}

// State returns this rank's current position on the ladder.
func (db *DB) State() HealthState {
	db.failMu.Lock()
	defer db.failMu.Unlock()
	return db.stateLocked()
}

// stateLocked computes the ladder position. Caller holds db.failMu.
func (db *DB) stateLocked() HealthState {
	switch {
	case db.failedErr.Load() != nil:
		return StateFailed
	case db.degradedErr != nil:
		return StateDegraded
	default:
		return StateHealthy
	}
}

// fail records err as this database's root-cause failure. Only the first
// call wins; later errors are usually consequences of the first. The first
// failure also tears down this rank's cached SSTable reader handles: a
// domain that failed mid-write may leave tables in any state, and the
// failed rank's storage-group peers must not keep serving reads from
// handles validated before the damage.
func (db *DB) fail(err error) {
	if err == nil {
		return
	}
	db.failMu.Lock()
	first := db.failedErr.Load() == nil
	if first {
		db.failedErr.Store(&err)
		// Failed dominates Degraded on the ladder; the gauge tracks the
		// Degraded state only. Stored under failMu so it cannot race a
		// concurrent degradeLocked's Store(1) and end up stale.
		db.metrics.Degraded.Store(0)
	}
	db.failMu.Unlock()
	if first {
		db.wakeAll()
		// Outside failMu: eviction takes the cache lock and closes fds,
		// and callers of Health() hold failMu-adjacent paths.
		db.readers.EvictDir(db.ownDir)
	}
}

// degrade moves a healthy rank to Degraded (read-only) with err as the
// cause. A rank already degraded or failed keeps its original cause. Unlike
// fail it does NOT evict the reader cache: nothing on the device is suspect
// — it is merely full — and every table must keep serving reads.
func (db *DB) degrade(err error) {
	if err == nil {
		return
	}
	db.failMu.Lock()
	db.degradeLocked(err)
	db.failMu.Unlock()
}

// degradeLocked is degrade for callers already holding db.failMu.
func (db *DB) degradeLocked(err error) {
	if err == nil || db.failedErr.Load() != nil || db.degradedErr != nil {
		return
	}
	db.degradedErr = err
	db.metrics.DegradedTransitions.Add(1)
	db.metrics.Degraded.Store(1)
	db.wakeAll()
}

// failOrDegrade routes a background error to its rung of the ladder:
// resource exhaustion (a full device) degrades to read-only, as does an
// unrepairable scrub loss (the corrupt table is quarantined; everything
// else on the device is verified and keeps serving reads). Everything else
// fails the domain.
func (db *DB) failOrDegrade(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, nvm.ErrNoSpace) || errors.Is(err, ErrScrubLoss) {
		db.degrade(err)
		return
	}
	db.fail(err)
}

// heal moves a Degraded rank back to Healthy and wakes the flush thread for
// the tables that waited in place while it could not write. A Failed rank is
// not healed here — that is Recover's job. Returns whether a transition
// happened.
func (db *DB) heal() bool {
	db.failMu.Lock()
	healed := db.failedErr.Load() == nil && db.degradedErr != nil
	if healed {
		db.degradedErr = nil
		// Under failMu: a Store(0) after the unlock could race a concurrent
		// degradeLocked's Store(1) and leave the gauge reading 0 while the
		// rank is Degraded again.
		db.metrics.Degraded.Store(0)
	}
	db.failMu.Unlock()
	if !healed {
		return false
	}
	db.metrics.Reclaims.Add(1)
	db.wakeAll()
	return true
}

// Fail marks this rank's database failed with the given root cause, exactly
// as an internal background error would. Applications and tests use it to
// take a rank out of service deliberately; Recover takes it back in.
func (db *DB) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("failed by application")
	}
	db.fail(err)
}

// Health returns nil while this rank's database accepts writes. A Degraded
// rank returns ErrReadOnly wrapping the exhaustion cause (reads still work
// — gate those on readHealth); a Failed rank returns ErrRankFailed wrapping
// the first root-cause error. Remote ranks' failures do not show up here —
// they surface per-operation.
func (db *DB) Health() error {
	db.failMu.Lock()
	defer db.failMu.Unlock()
	if failed := db.failedErr.Load(); failed != nil {
		return fmt.Errorf("%w: %w", ErrRankFailed, *failed)
	}
	if db.degradedErr != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, db.degradedErr)
	}
	return nil
}

// readHealth gates the read path: it fails only when the rank is Failed. A
// Degraded rank's MemTables, SSTables, and caches are fully intact — only
// new writes have nowhere to go — so gets, shared reads, and checkpoint
// reads keep serving through degradation. It takes no lock: one atomic load
// on the get path.
func (db *DB) readHealth() error {
	if failed := db.failedErr.Load(); failed != nil {
		return fmt.Errorf("%w: %w", ErrRankFailed, *failed)
	}
	return nil
}

// peerCircuit is this rank's circuit breaker for one peer. A request the
// peer could not serve (reliable.go's trip rule) or a migration batch it did
// not take trips it open, and later requests to the peer fail fast instead
// of burning their own budgets — but unlike the old sticky peerFailed map it
// is not a death certificate: the prober (recover.go) half-opens it with
// periodic pings and closes it the moment the peer answers healthy,
// redelivering the parked batches queued behind it. All fields are guarded
// by db.failMu.
type peerCircuit struct {
	open  bool
	cause error // what tripped it; nil while closed
	// inc is the peer's last advertised incarnation; 0 = never heard one.
	// A change means the peer was reborn in between, so protocol state
	// remembered against its previous life (the dedup window for its
	// seqs) is stale.
	inc uint32
	// parked holds undeliverable migration batches, oldest first — the
	// redelivery order, because per-source batch order is the owner's
	// apply order.
	parked []parkedBatch
}

// lossRecord accumulates pairs definitively lost on their way to one owner
// (parked-budget overflow, or parked pairs abandoned at Close), drained
// exactly once by the next Fence.
type lossRecord struct {
	pairs uint64
	cause error
}

// peerLocked returns owner r's circuit, creating it closed. Caller holds
// db.failMu.
func (db *DB) peerLocked(r int) *peerCircuit {
	if db.peers == nil {
		db.peers = make(map[int]*peerCircuit)
	}
	st := db.peers[r]
	if st == nil {
		st = &peerCircuit{}
		db.peers[r] = st
	}
	return st
}

// peerFail trips rank r's circuit with err; later requests to r fail fast
// instead of burning their full retry budget, until a probe closes it.
func (db *DB) peerFail(r int, err error) {
	db.failMu.Lock()
	st := db.peerLocked(r)
	if !st.open {
		st.open = true
		st.cause = err
		db.metrics.CircuitsOpened.Add(1)
	}
	db.failMu.Unlock()
}

// peerErr returns the cause rank r's circuit is open on, or nil while it is
// closed.
func (db *DB) peerErr(r int) error {
	db.failMu.Lock()
	defer db.failMu.Unlock()
	st := db.peers[r]
	if st == nil || !st.open {
		return nil
	}
	return st.cause
}

// observeIncarnation records the incarnation rank r last advertised. A
// change means r was reborn between its messages: its pre-crash retry
// ladders are gone, so the dedup window for its seqs is reset — acks
// recorded against the previous life must not replay against seqs the
// reborn sender allocates afresh from its replayed WAL.
func (db *DB) observeIncarnation(r int, inc uint32) {
	if inc == 0 {
		return
	}
	db.failMu.Lock()
	st := db.peerLocked(r)
	changed := st.inc != 0 && st.inc != inc
	st.inc = inc
	db.failMu.Unlock()
	if changed {
		db.dedup.reset(r)
	}
}

// anyPeerErr reports the state of this rank's outbound pairs once a fence
// has drained: definitive loss first — drained, so it is reported exactly
// once — then pairs still parked behind open circuits, recomputed on every
// call so the report clears by itself when redelivery succeeds. Both
// reports are deterministic: the lowest affected rank is named and the
// others are counted, never whichever rank map iteration yields first.
func (db *DB) anyPeerErr() error {
	if err := db.takeLossErr(); err != nil {
		return err
	}
	return db.parkedErr()
}

// takeLossErr drains the accumulated loss records into one error, or nil.
func (db *DB) takeLossErr() error {
	db.failMu.Lock()
	lost := db.lost
	db.lost = nil
	db.failMu.Unlock()
	if len(lost) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(lost))
	for r := range lost {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	low := lost[ranks[0]]
	err := fmt.Errorf("papyruskv: %d pairs owned by rank %d were not applied: %w",
		low.pairs, ranks[0], low.cause)
	if len(ranks) > 1 {
		var more uint64
		for _, r := range ranks[1:] {
			more += lost[r].pairs
		}
		err = fmt.Errorf("%w (and %d more pairs across %d other failed peers)",
			err, more, len(ranks)-1)
	}
	return err
}

// parkedErr reports pairs currently parked awaiting a peer's recovery, or
// nil. Unlike loss this is a live condition, not an event: it is recomputed
// from the circuits, so a Fence after successful redelivery returns nil.
func (db *DB) parkedErr() error {
	db.failMu.Lock()
	defer db.failMu.Unlock()
	var ranks []int
	for r, st := range db.peers {
		if len(st.parked) > 0 {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) == 0 {
		return nil
	}
	sort.Ints(ranks)
	st := db.peers[ranks[0]]
	var pairs uint64
	for _, b := range st.parked {
		pairs += uint64(b.pairs)
	}
	cause := st.cause
	if cause == nil {
		// The circuit closed and redelivery is in flight; the batches
		// just have not drained yet.
		cause = fmt.Errorf("redelivery in progress")
	}
	err := fmt.Errorf("papyruskv: %d pairs owned by rank %d are parked awaiting its recovery: %w",
		pairs, ranks[0], cause)
	if len(ranks) > 1 {
		err = fmt.Errorf("%w (and %d other unreachable peers)", err, len(ranks)-1)
	}
	return err
}

// lostLocked converts pairs bound for owner into counted, Fence-reported
// loss. Caller holds db.failMu.
func (db *DB) lostLocked(owner int, cause error, pairs int) {
	if db.lost == nil {
		db.lost = make(map[int]*lossRecord)
	}
	rec := db.lost[owner]
	if rec == nil {
		rec = &lossRecord{cause: cause}
		db.lost[owner] = rec
	}
	rec.pairs += uint64(pairs)
	db.metrics.addPairsLost(owner, uint64(pairs))
}

// maybeKill evaluates the CoreKill injection point at this rank's site and,
// if it fires, fails the database as if the rank's service threads died.
func (db *DB) maybeKill() {
	if db.inj == nil {
		return
	}
	site := faults.Site{Rank: db.rt.rank, Tag: faults.AnyTag, Where: db.name}
	if db.inj.Eval(faults.CoreKill, site).Fire {
		db.fail(fmt.Errorf("%w: rank %d killed", faults.ErrInjected, db.rt.rank))
	}
}

// dedupWindow remembers the most recent request sequence numbers applied per
// source rank, with the ack each produced. A retried or duplicated request
// whose seq is still in the window is not re-applied; its original ack is
// replayed. Sequence numbers are allocated from one per-database counter on
// the sender, so the window can be shared by every request type — but they
// are only meaningful within one incarnation of the sender, so each source's
// window is tagged with the incarnation its requests carried and discarded
// when a different one appears. Handler workers for different source ranks
// touch the window concurrently (only requests from one source are
// serialized onto one worker), so the shared map is mutex-guarded;
// per-source seen/record pairs stay race-free because per-source apply
// order is preserved by the worker sharding.
type dedupWindow struct {
	mu       sync.Mutex
	bySource map[int]*sourceWindow
}

// dedupDepth bounds remembered seqs per source. It only needs to cover
// requests that can still be retried or duplicated in flight — attempts x
// in-flight requests — for which 256 is orders of magnitude of headroom.
const dedupDepth = 256

// sourceWindow is one source's window: a fixed ring of the last dedupDepth
// seqs plus the ack each produced. The ring replaced a sliced-forward
// append slice (sw.order = sw.order[1:]) whose backing array was pinned
// forever and grew by one slot per request for the life of the run.
type sourceWindow struct {
	inc  uint32 // incarnation the seqs belong to
	ring [dedupDepth]uint64
	n    int // filled slots, < dedupDepth until the ring wraps
	next int // ring slot the next record overwrites
	acks map[uint64]ackRecord
}

// ackRecord is the ack an applied request produced, replayed to its
// duplicates.
type ackRecord struct {
	status byte
}

// seen reports whether (source, seq) was already applied by the same
// incarnation of the sender and, if so, the ack it produced. A window
// recorded against a different incarnation never matches: the reborn
// sender's seq space is fresh.
func (w *dedupWindow) seen(source int, inc uint32, seq uint64) (ackRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	sw := w.bySource[source]
	if sw == nil || sw.inc != inc {
		return ackRecord{}, false
	}
	rec, ok := sw.acks[seq]
	return rec, ok
}

// record remembers the ack for (source, seq), evicting the oldest entry
// once the window is full. A record under a new incarnation discards the
// source's previous window outright.
func (w *dedupWindow) record(source int, inc uint32, seq uint64, rec ackRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bySource == nil {
		w.bySource = make(map[int]*sourceWindow)
	}
	sw := w.bySource[source]
	if sw == nil || sw.inc != inc {
		sw = &sourceWindow{inc: inc, acks: make(map[uint64]ackRecord)}
		w.bySource[source] = sw
	}
	if _, ok := sw.acks[seq]; ok {
		return
	}
	if sw.n == dedupDepth {
		delete(sw.acks, sw.ring[sw.next])
	} else {
		sw.n++
	}
	sw.ring[sw.next] = seq
	sw.next = (sw.next + 1) % dedupDepth
	sw.acks[seq] = rec
}

// reset forgets source's window entirely — called when the source is
// observed under a new incarnation through a channel that carries no
// per-request incarnation (a ping).
func (w *dedupWindow) reset(source int) {
	w.mu.Lock()
	delete(w.bySource, source)
	w.mu.Unlock()
}
