package core

// Cross-rank ordered scans. Keys are hash-partitioned, so any rank may own
// keys anywhere in a range: DB.Scan scatters to every rank and k-way merges
// the sorted streams at the caller. Each owner serves its stream as a paged
// continuation — the scan's pinned iterator is parked in a registry between
// page requests, so the handler worker is freed after every page and a slow
// consumer can never hold one. Retried page requests are idempotent: the
// request names the page it wants, and the owner replays the previous page
// for a duplicate instead of advancing the iterator.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
)

// scanKey names one remote scan at its owner: the caller's rank plus the
// caller-allocated scan ID (drawn from its sendSeq space, unique per life).
type scanKey struct {
	source int
	id     uint64
}

// openScan is one parked remote scan. mu serializes page production against
// the idle sweep and duplicate requests; lastPage/lastDone replay the most
// recent page for a retried request that lost its reply.
type openScan struct {
	mu       sync.Mutex
	it       *Iterator // nil before open and after the final page
	started  bool
	nextPage uint32
	lastPage []byte
	lastDone bool
	lastUsed time.Time
	closed   bool
}

// closeLocked releases the scan's iterator and marks it dead.
func (s *openScan) closeLocked() {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	s.closed = true
}

// scanRegistry is the owner-side table of parked scans.
type scanRegistry struct {
	mu sync.Mutex
	m  map[scanKey]*openScan
}

func (r *scanRegistry) getOrCreate(k scanKey) *openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.m[k]; ok {
		return s
	}
	s := &openScan{lastUsed: time.Now()}
	r.m[k] = s
	return s
}

func (r *scanRegistry) get(k scanKey) *openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[k]
}

func (r *scanRegistry) remove(k scanKey) *openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.m[k]
	delete(r.m, k)
	return s
}

func (r *scanRegistry) snapshot() map[scanKey]*openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[scanKey]*openScan, len(r.m))
	for k, s := range r.m {
		out[k] = s
	}
	return out
}

// closeAll releases every parked scan; Close calls it after the handler is
// down, so no request can race the teardown.
func (r *scanRegistry) closeAll() {
	for k, s := range r.snapshot() {
		s.mu.Lock()
		s.closeLocked()
		s.mu.Unlock()
		r.remove(k)
	}
}

// expireScans reaps remote scans idle past scanIdleTimeout, releasing their
// pinned snapshots; the prober's tick drives it. Every stream a caller opened
// ends with a close — completed ones included — so the sweep only ever finds
// scans whose consumer died mid-scan or whose fire-and-forget close was lost;
// each costs at most one timeout's worth of pinned files and retained page.
func (db *DB) expireScans() {
	now := time.Now()
	for k, s := range db.scans.snapshot() {
		s.mu.Lock()
		expired := now.Sub(s.lastUsed) > scanIdleTimeout
		if expired {
			s.closeLocked()
		}
		s.mu.Unlock()
		if expired && db.scans.remove(k) != nil {
			db.metrics.ScansExpired.Add(1)
		}
	}
}

// errScanLost answers a page request for a scan the owner no longer holds —
// expired, desynced, or never opened. The caller cannot resume it.
var errScanLost = errors.New("lost its continuation (expired or desynced); rerun the scan")

// handleScan serves one scan control message on a handler worker. Open and
// next produce (or replay) one page and reply; close is fire-and-forget.
// The worker is occupied only while producing the page — between pages the
// scan lives in the registry, which is the whole point of the paging.
func (db *DB) handleScan(m mpi.Message) {
	req, err := decodeScanRequest(m.Data)
	if err != nil {
		db.metrics.BadRequests.Add(1)
		return
	}
	key := scanKey{source: m.Source, id: req.ScanID}
	if req.Op == scanOpClose {
		// Handled before the health gate: releasing pins must work on a
		// failed rank too, or its files stay pinned until Close.
		if s := db.scans.remove(key); s != nil {
			s.mu.Lock()
			s.closeLocked()
			s.mu.Unlock()
		}
		return
	}
	// readHealth, not Health: a Degraded (read-only) rank's MemTables and
	// SSTables are intact, so it keeps serving scans.
	if err := db.readHealth(); err != nil {
		db.sendResp(m.Source, tagScanResp, errorReply(req.Seq, err))
		return
	}
	var s *openScan
	switch req.Op {
	case scanOpOpen:
		// getOrCreate makes a duplicated open idempotent: the retry finds
		// the scan the lost-reply original created and replays page 0.
		s = db.scans.getOrCreate(key)
	case scanOpNext:
		s = db.scans.get(key)
	default:
		db.metrics.BadRequests.Add(1)
		return
	}
	if s == nil {
		db.sendResp(m.Source, tagScanResp, errorReply(req.Seq, errScanLost))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// drop ends the scan at the owner and answers err: the caller must rerun
	// it.
	drop := func(err error) {
		s.closeLocked()
		db.scans.remove(key)
		db.sendResp(m.Source, tagScanResp, errorReply(req.Seq, err))
	}
	if s.closed {
		drop(errScanLost)
		return
	}
	s.lastUsed = time.Now()
	if !s.started {
		it, err := db.newIterator(req.Lo, req.Hi, false)
		if err != nil {
			drop(err)
			return
		}
		s.it, s.started = it, true
	}
	switch {
	case s.nextPage > 0 && req.Page == s.nextPage-1:
		// Duplicate of the last answered request (its reply was lost):
		// replay the retained page, byte-identical.
		db.sendResp(m.Source, tagScanResp, encodeReply(req.Seq, statusOK, s.lastPage))
	case req.Page != s.nextPage || s.lastDone:
		// Out of protocol — a page neither current nor previous, or paging
		// past the end. Unrecoverable desync: drop the scan.
		drop(errScanLost)
	default:
		frame, done, err := db.producePage(s, int(req.MaxBytes))
		if err != nil {
			drop(err)
			return
		}
		if done {
			// The stream is exhausted: release the pins and cache refs now,
			// but keep the registry entry so a retried final-page request
			// replays instead of erroring. The caller's close deletes it; the
			// idle sweep covers a lost close.
			s.it.Close()
			s.it = nil
		}
		// Retain the body for replay; the frame was built around it by
		// producePage, so seal the header in place and hand it over without
		// another copy.
		s.lastPage = frame[replyHeader:len(frame):len(frame)]
		s.lastDone = done
		s.nextPage++
		db.metrics.ScanPages.Add(1)
		db.sendRespOwned(m.Source, tagScanResp, sealReply(frame, req.Seq, statusOK))
	}
}

// producePage pulls entries from the scan's iterator until the encoded page
// reaches maxBytes (at least one entry always fits), encoding each entry
// straight into a reply frame — the done flag and DecodeEntries' payload
// format after the reply header, so the page's bytes are copied exactly once
// on the owner (handleScan seals the header and hands the frame to SendOwned
// without another copy). The frame starts small and grows by append, so a
// page costs what the range holds, not what a full page could. Tombstones
// ride along: the caller's merge filters them at its own edge, keeping the
// suppression rule in exactly one place per side.
func (db *DB) producePage(s *openScan, maxBytes int) ([]byte, bool, error) {
	if maxBytes <= 0 {
		maxBytes = db.opt.ScanPageBytes
	}
	frame := make([]byte, scanPageHeader+4, scanPageHeader+4+min(maxBytes, 4<<10))
	var count uint32
	done := false
	for {
		e, ok, err := s.it.m.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			done = true
			break
		}
		frame = memtable.AppendEntry(frame, e)
		count++
		if len(frame)-scanPageHeader >= maxBytes {
			break
		}
	}
	if done {
		frame[replyHeader] = 1
	}
	binary.LittleEndian.PutUint32(frame[scanPageHeader:], count)
	return frame, done, nil
}

// scanStream is the caller's handle on one owner rank's sorted stream: a
// buffered page plus the paged-fetch state machine.
type scanStream struct {
	db     *DB
	ctx    context.Context // the Scan call's: bounds every fetch
	owner  int
	id     uint64
	lo, hi []byte
	sent   bool // a request may have reached the wire: the owner may hold state
	opened bool // the first page arrived: later requests are nexts
	done   bool
	page   uint32
	buf    []memtable.Entry
	i      int
	err    error
}

// Next returns the stream's next entry, fetching the next page when the
// buffer drains: the stream is one of the gather merge's sources. Entries
// alias the page's wire frame, which stays alive as long as anything
// references its entries.
func (s *scanStream) Next() (memtable.Entry, bool, error) {
	for {
		if s.err != nil {
			return memtable.Entry{}, false, s.err
		}
		if s.i < len(s.buf) {
			e := s.buf[s.i]
			s.i++
			return e, true, nil
		}
		if s.done {
			return memtable.Entry{}, false, nil
		}
		if err := s.fetch(); err != nil {
			s.err = err
			return memtable.Entry{}, false, err
		}
	}
}

// fetch requests the stream's next page through the one remote call path.
// Retries are safe because the request names its page — a duplicate is
// replayed, never advanced past.
func (s *scanStream) fetch() error {
	db := s.db
	op := byte(scanOpNext)
	if !s.opened {
		op = scanOpOpen
	}
	seq := db.sendSeq.Add(1)
	req := encodeScanRequest(scanRequest{
		Seq: seq, ScanID: s.id, Op: op, Page: s.page,
		MaxBytes: uint32(db.opt.ScanPageBytes), Lo: s.lo, Hi: s.hi,
	})
	s.sent = true
	status, body, err := db.request(s.ctx, s.owner, tagScan, tagScanResp, seq, req, &db.metrics.ScanRetries)
	if err != nil {
		return err
	}
	if status != statusOK || len(body) == 0 {
		return fmt.Errorf("papyruskv: rank %d sent a malformed scan page (status %d)", s.owner, status)
	}
	entries, err := memtable.DecodeEntries(body[1:])
	if err != nil {
		return err
	}
	s.buf, s.i = entries, 0
	s.opened = true
	s.page++
	s.done = body[0] != 0
	return nil
}

// abort releases the owner side of a stream with a fire-and-forget close: no
// reply, no retry — if it is lost, the owner's idle sweep reaps the scan one
// timeout later. A completed stream is closed too: its owner dropped the pins
// with the final page but still holds the registry entry and the page it
// retains for replay. Only a stream that never put a request on the wire has
// nothing to release.
func (s *scanStream) abort() {
	if !s.sent {
		return
	}
	req := encodeScanRequest(scanRequest{Seq: s.db.sendSeq.Add(1), ScanID: s.id, Op: scanOpClose})
	_ = s.db.reqComm.Send(s.owner, tagScan, req)
}

// Scan streams every live pair with lo <= key < hi (nil lo: from the start;
// nil hi: to the end), in ascending key order, to fn. The key and value
// slices passed to fn are reused between calls; fn must copy anything it
// keeps. A non-nil fn error aborts the scan and is returned.
//
// The view is a per-rank snapshot taken when each rank opens its iterator:
// writes, flushes, and compactions that land after that are invisible, and
// compaction cannot unlink an SSTable any open snapshot reads. Consistency
// follows the get path's rules: the caller sees its own staged (relaxed
// mode, not yet migrated) writes and deletes shadowing the owners' streams,
// but not other ranks' staged writes — those become visible at the next
// fence, exactly as for Get. Degraded (read-only) ranks serve their portion
// normally; a Failed rank fails the scan with ErrRankFailed.
//
// ctx bounds the whole call: cancellation or deadline expiry aborts the
// merge between pairs, releases the local snapshot, and sends best-effort
// closes for the remote continuations (owners reap lost ones after
// scanIdleTimeout).
func (db *DB) Scan(ctx context.Context, lo, hi []byte, fn func(key, value []byte) error) error {
	if fn == nil {
		return fmt.Errorf("%w: nil scan callback", ErrInvalidArgument)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(lo) > 0 && len(hi) > 0 && bytes.Compare(lo, hi) >= 0 {
		return nil
	}
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.maybeKill()
	if err := db.readHealth(); err != nil {
		return err
	}
	db.metrics.Scans.Add(1)

	// This rank's sources include the staging tables (withStaging): locally
	// staged entries must shadow their owners' streams. They go first in the
	// merge's newest-first list, which is all staging-wins takes; streams
	// never tie with each other (hash partitioning is disjoint). The streams
	// join the same merge rather than a second one stacked on this rank's:
	// a merge's entries last only until its next pull, too short for a
	// source of another merge.
	self, sources, err := db.openIterator(lo, hi, true)
	if err != nil {
		return err
	}
	defer self.Close()

	streams := make([]scanStream, 0, db.rt.size-1)
	defer func() {
		for i := range streams {
			streams[i].abort()
		}
	}()
	for r := 0; r < db.rt.size; r++ {
		if r != db.rt.rank {
			streams = append(streams, scanStream{db: db, ctx: ctx, owner: r, id: db.sendSeq.Add(1), lo: lo, hi: hi})
			sources = append(sources, &streams[len(streams)-1])
		}
	}

	// Fan the opens out in parallel: the first pages arrive concurrently
	// instead of one owner round-trip at a time. Errors park in st.err and
	// surface from the merge's first pull below. A lone stream opens on that
	// first pull.
	if len(streams) > 1 {
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(st *scanStream) {
				defer wg.Done()
				if err := st.fetch(); err != nil {
					st.err = err
				}
			}(&streams[i])
		}
		wg.Wait()
	}

	if err := self.merge(sources); err != nil {
		return err
	}
	m := self.m
	var keyBuf, valBuf []byte
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("papyruskv: %w", ctx.Err())
		default:
		}
		e, ok, err := m.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if e.Tombstone {
			continue
		}
		keyBuf = append(keyBuf[:0], e.Key...)
		valBuf = append(valBuf[:0], e.Value...)
		db.metrics.ScanPairs.Add(1)
		if err := fn(keyBuf, valBuf); err != nil {
			return err
		}
	}
}
