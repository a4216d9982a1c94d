package wal

import (
	"errors"
	"fmt"
	"strings"

	"sync"

	"papyruskv/internal/faults"
	"papyruskv/internal/nvm"
	"papyruskv/internal/stats"
)

// ErrClosed reports an append or commit against a closed log.
var ErrClosed = errors.New("wal: log closed")

// Config opens one stream of a database's write-ahead log.
type Config struct {
	// Device is the rank's NVM device; segments live on it.
	Device *nvm.Device
	// Dir is the rank's database directory (the SSTable directory);
	// segments go under Dir + "/wal".
	Dir string
	// Stream names the log: "local" (entries this rank owns, deleted
	// after SSTable flush) or "remote" (entries staged toward other
	// owners, deleted after migration).
	Stream string
	// Sync selects fsync-per-Commit durability (WALSync); otherwise
	// appends buffer in memory until GroupCommit or rotation.
	Sync bool
	// Rank is reported in injection sites so rules can target one rank's
	// log on a shared device.
	Rank int
	// Inj arms WALTornAppend and WALSyncError; nil disarms them.
	Inj *faults.Injector
	// Stats receives the log's counters; nil allocates a private set.
	Stats *stats.WAL
}

// maxSpare bounds the drained buffer a Log keeps for its next swap: a burst
// that grew the buffer past it is written and then dropped, so the log's
// idle footprint stays bounded, not a burst's high water. Below it the two
// buffers are recycled and a swap allocates nothing; a batch regrown from
// scratch costs several times its size in allocations. On a saturated
// two-core host the batches that pile up behind one slow fsync reach 4 MiB;
// a 1 MiB bound regrew about one batch in nine.
const maxSpare = 4 << 20

// Log is one stream of segments. It is safe for concurrent use by the
// application thread, the message handler, and the group-commit thread.
//
// Two locks split it into an append side and an I/O side, so appends keep
// landing in memory while the previous batch is written and fsynced:
//
//	ioMu  the device state (active segment, dirty, poisoned, spare,
//	      durable); held across every device write, fsync, rotation and
//	      close, which it serialises
//	mu    the append state (buf, appended, epoch, closed); held only to
//	      append, or to swap the filled buffer for the spare
//
// Lock order: core's db.mu → ioMu → mu. Appends take mu alone, so a put
// under db.mu never waits for a write or fsync in flight.
type Log struct {
	dev    *nvm.Device
	dir    string
	stream string
	sync   bool
	rank   int
	inj    *faults.Injector
	st     *stats.WAL

	ioMu       sync.Mutex
	seg        uint64 // segment number within the epoch
	active     *nvm.Appender
	activeName string
	spare      []byte // the drained buffer the next swap installs
	durable    uint64 // appends covered by the last successful commit
	dirty      bool   // device bytes written since the last sync
	poisoned   bool   // a torn append fired: the device stopped listening

	mu       sync.Mutex
	epoch    uint32 // set once by Recover, so openSegmentLocked reads it bare
	buf      []byte // framed records not yet handed to the device
	appended uint64 // records appended since Recover
	closed   bool
}

func segName(dir, stream string, epoch uint32, seg uint64) string {
	return fmt.Sprintf("%s/wal/%s-e%08d-s%08d.log", dir, stream, epoch, seg)
}

// parseSeg extracts the epoch of one of this stream's segment files,
// rejecting names of other streams or foreign files in the wal directory.
func (l *Log) parseSeg(name string) (uint32, bool) {
	base := name[strings.LastIndexByte(name, '/')+1:]
	var epoch uint32
	var seg uint64
	n, err := fmt.Sscanf(base, l.stream+"-e%08d-s%08d.log", &epoch, &seg)
	return epoch, err == nil && n == 2
}

// Recover opens the stream: it replays every surviving segment in epoch
// order, starts a fresh epoch above them, re-logs the survivors into the
// new epoch's first segment, deletes the old files, and returns the log
// together with the recovered records (in append order).
//
// A torn tail truncates a segment to its last whole frame and counts in
// Stats.SegmentsTruncated; mid-log corruption aborts recovery with an
// error wrapping ErrCorrupt. The re-log-then-delete order makes a crash
// during recovery itself harmless: the same records simply replay again
// from two epochs, idempotently.
func Recover(cfg Config) (*Log, []Record, error) {
	l := &Log{
		dev:    cfg.Device,
		dir:    cfg.Dir,
		stream: cfg.Stream,
		sync:   cfg.Sync,
		rank:   cfg.Rank,
		inj:    cfg.Inj,
		st:     cfg.Stats,
	}
	if l.st == nil {
		l.st = &stats.WAL{}
	}
	names, err := cfg.Device.List(cfg.Dir + "/wal")
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list segments: %w", err)
	}
	// List returns names sorted; zero-padded epoch and segment numbers
	// make lexical order the append order.
	var segs []string
	var maxEpoch uint32
	for _, n := range names {
		e, ok := l.parseSeg(n)
		if !ok {
			continue
		}
		segs = append(segs, n)
		if e > maxEpoch {
			maxEpoch = e
		}
	}
	var recs []Record
	for _, n := range segs {
		data, err := cfg.Device.ReadFile(n)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", n, err)
		}
		r, clean, derr := DecodeAll(data)
		if derr != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", n, derr)
		}
		if clean < len(data) {
			l.st.SegmentsTruncated.Add(1)
		}
		l.st.SegmentsRecovered.Add(1)
		l.st.RecordsRecovered.Add(uint64(len(r)))
		recs = append(recs, r...)
	}
	l.epoch = maxEpoch + 1
	if err := l.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	if len(recs) > 0 {
		var buf []byte
		for _, r := range recs {
			rr := r
			rr.Epoch = l.epoch
			buf = AppendRecord(buf, rr)
		}
		if err := l.active.Append(buf); err != nil {
			return nil, nil, fmt.Errorf("wal: re-log recovered records: %w", err)
		}
		if err := l.active.Sync(); err != nil {
			return nil, nil, fmt.Errorf("wal: re-log recovered records: %w", err)
		}
		l.st.Fsyncs.Add(1)
	}
	for _, n := range segs {
		if err := cfg.Device.Remove(n); err != nil {
			return nil, nil, fmt.Errorf("wal: drop replayed segment %s: %w", n, err)
		}
	}
	return l, recs, nil
}

// openSegmentLocked opens the active segment. Caller holds ioMu (or is
// Recover, before the log is shared).
func (l *Log) openSegmentLocked() error {
	name := segName(l.dir, l.stream, l.epoch, l.seg)
	a, err := l.dev.OpenAppend(name)
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	l.active = a
	l.activeName = name
	return nil
}

// site is the injection site of the active segment. Caller holds ioMu.
func (l *Log) site() faults.Site {
	return faults.Site{Rank: l.rank, Tag: faults.AnyTag, Where: l.activeName}
}

// Epoch returns the stream's current epoch. Recover always starts a fresh
// epoch above every surviving segment, so the value is strictly monotonic
// across process restarts and in-run recoveries alike — which is exactly
// what lets core use the local stream's epoch as the rank's persistent
// incarnation number.
func (l *Log) Epoch() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Append frames r into the in-memory buffer, stamping it with the current
// epoch. Nothing touches the device until Commit, GroupCommit, or Rotate;
// the caller decides the durability point. Append takes only the append
// lock, so it never waits for a device write or fsync in flight.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	r.Epoch = l.epoch
	before := len(l.buf)
	l.buf = AppendRecord(l.buf, r)
	l.appended++
	l.st.RecordsAppended.Add(1)
	l.st.BytesAppended.Add(uint64(len(l.buf) - before))
	return nil
}

// swapLocked takes the filled buffer and installs the spare in its place,
// holding mu only for the exchange; the caller writes the returned frames
// outside it. upto counts the appends they end with. Caller holds ioMu. A
// closed log yields ErrClosed.
func (l *Log) swapLocked() (b []byte, upto uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, ErrClosed
	}
	b = l.buf
	l.buf, l.spare = l.spare, nil
	return b, l.appended, nil
}

// writeLocked hands swapped-out frames to the device and keeps their
// buffer as the next spare if it is small enough. This is where
// WALTornAppend strikes: the firing append writes only a prefix of its
// frames and poisons the log — every later write silently drops its bytes
// while still reporting success, modelling the writes a crashed rank never
// got onto the device. Replay's frame checksums are what notice. Caller
// holds ioMu.
func (l *Log) writeLocked(b []byte) error {
	defer func() {
		if cap(b) <= maxSpare {
			l.spare = b[:0]
		}
	}()
	if len(b) == 0 || l.poisoned {
		return nil
	}
	if l.inj != nil {
		if dec := l.inj.Eval(faults.WALTornAppend, l.site()); dec.Fire {
			l.poisoned = true
			if n := dec.TearAt(len(b)); n > 0 {
				if err := l.active.Append(b[:n]); err != nil {
					return err
				}
				l.dirty = true
			}
			return nil
		}
	}
	if err := l.active.Append(b); err != nil {
		return err
	}
	l.dirty = true
	return nil
}

// syncLocked makes the written bytes durable; WALSyncError fires here.
// Caller holds ioMu.
func (l *Log) syncLocked() error {
	if l.inj != nil && l.inj.Eval(faults.WALSyncError, l.site()).Fire {
		return fmt.Errorf("wal: sync %s: %w: sync error", l.activeName, faults.ErrInjected)
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.st.Fsyncs.Add(1)
	l.dirty = false
	return nil
}

// persist is the one durability routine behind Commit and GroupCommit: it
// swaps out everything appended so far, writes it and fsyncs — the append
// lock held only for the swap, the I/O lock for the whole. A caller whose
// records an earlier caller's persist already swapped out waits for that
// one's fsync on ioMu and then finds them durable: concurrent commits share
// one fsync, and appends made meanwhile wait for the next. synced reports
// a fsync of a non-empty batch.
func (l *Log) persist() (synced bool, err error) {
	l.mu.Lock()
	target := l.appended
	l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.durable >= target {
		return false, nil
	}
	b, upto, err := l.swapLocked()
	if err != nil {
		return false, err
	}
	batched := len(b) > 0
	if err := l.writeLocked(b); err != nil {
		return false, err
	}
	if l.dirty {
		if err := l.syncLocked(); err != nil {
			return false, err
		}
		synced = batched
	}
	l.durable = upto
	return synced, nil
}

// Commit writes and fsyncs everything appended so far — the WALSync
// durability point, called once per put or per applied batch before the
// acknowledgement. It returns nil only once a fsync covering every record
// appended before the call has returned nil, its own or a concurrent
// caller's. It is a no-op when nothing new was appended.
func (l *Log) Commit() error {
	_, err := l.persist()
	return err
}

// GroupCommit writes and fsyncs the accumulated appends — the WALAsync
// durability point, called by the group-commit thread every flush
// interval. Appends keep landing in the other buffer while it writes. A
// tick with nothing to persist does no device work; on a closed log it is
// a no-op.
func (l *Log) GroupCommit() error {
	synced, err := l.persist()
	if errors.Is(err, ErrClosed) {
		return nil
	}
	if synced {
		l.st.GroupCommits.Add(1)
	}
	return err
}

// Rotate seals the active segment and opens the next one; core calls it
// under its db mutex at the exact moment the corresponding MemTable rolls,
// so a segment always holds precisely its table's records. The sealed
// segment's name is returned for deletion once the table's flush or
// migration commits. Buffered frames are written to the sealed segment
// first (and fsynced in Sync mode, so a put that itself triggered the roll
// is durable before its acknowledgement). It waits on the I/O lock for a
// write or fsync already in flight.
func (l *Log) Rotate() (sealed string, err error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	b, upto, err := l.swapLocked()
	if err != nil {
		return "", err
	}
	err = l.writeLocked(b)
	if err == nil && l.sync && l.dirty {
		if err = l.syncLocked(); err == nil {
			l.durable = upto
		}
	}
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = cerr
	}
	sealed = l.activeName
	l.seg++
	l.dirty = false
	if oerr := l.openSegmentLocked(); oerr != nil {
		return sealed, oerr
	}
	return sealed, err
}

// Remove deletes a sealed segment whose data has committed to an SSTable
// (local stream) or been applied by its owners (remote stream). This is
// the garbage collection that keeps WAL bytes bounded by the MemTable
// budget.
func (l *Log) Remove(sealed string) error {
	return l.dev.Remove(sealed)
}

// closeLocked marks the log closed and returns the frames still buffered.
// Caller holds ioMu; ok is false if the log was already closed.
func (l *Log) closeLocked() (b []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, false
	}
	l.closed = true
	b, l.buf = l.buf, nil
	return b, true
}

// Abandon releases the active segment WITHOUT persisting buffered appends
// — the teardown of a failed rank, whose group-commit thread is as dead as
// the rest of it. Whatever reached the device stays replayable; the
// in-memory buffer is the crash's loss window and is dropped.
func (l *Log) Abandon() {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if _, ok := l.closeLocked(); !ok {
		return
	}
	l.spare = nil
	_ = l.active.Close()
}

// Close flushes and fsyncs any buffered frames and releases the active
// segment. The segment file stays on the device: whatever it holds is
// exactly the un-flushed state the next Open must replay.
func (l *Log) Close() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	b, ok := l.closeLocked()
	if !ok {
		return nil
	}
	err := l.writeLocked(b)
	l.spare = nil
	if err == nil && l.dirty {
		err = l.syncLocked()
	}
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
