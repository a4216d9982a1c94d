package wal

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"papyruskv/internal/faults"
	"papyruskv/internal/freelist"
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
	// Rank is reported in injection sites so rules can target one rank's
	// log on a shared device.
	Rank int
	// Inj arms WALTornAppend and WALSyncError; nil disarms them.
	Inj *faults.Injector
	// Stats receives the log's counters; nil allocates a private set.
	Stats *stats.WAL
}

// The append buffer is a chain of blocks of blockSize bytes. A log recycles
// its written blocks through a free list of at most freeBlocks — the block
// being written and the one filling meanwhile — so a commit allocates
// nothing in steady state and an idle log retains at most that many; a
// burst past them allocates blocks the collector takes back once written.
// Every block kept stays on the heap, per stream, and a rank has two: four
// per log instead of one raised the scan_2r benchmark's heap_mb from 56
// to 72 MB. A record longer than a block gets a one-off block of its own.
const (
	blockSize  = 1 << 20
	freeBlocks = 2
)

// chunk is one link of the append chain: framed records of one segment in
// one block, and the segment's name if a rotation cut the chain after
// them. A cut does not end the block: the next segment's records go on
// filling it in a new chunk, so a roll costs no block. Of the chunks that
// share a block, the last holds it in block, and writing that chunk hands
// the block back to the free list.
type chunk struct {
	b     []byte // the records, a window of the block
	block []byte // the whole block, on the block's last chunk; nil on the others
	cut   string // the sealed segment's name; "" while the segment continues
}

// Log is one stream of segments. It is safe for concurrent use by the
// application thread, the message handler, and the group-commit thread.
//
// Two locks split it into an append side and an I/O side, so appends and
// rotations keep landing in memory while earlier records are written and
// fsynced:
//
//	ioMu  the device state (active segment, taken, dirty, poisoned,
//	      durable); held across every device write, fsync, segment
//	      open and close, which it serialises
//	mu    the append state (chain, sealSeg, appended, epoch, closed); held
//	      only to append, to cut the chain, or to take chunks off its head
//
// Lock order: ioMu → mu. Core's db.mu is taken before mu alone: Append and
// Rotate, both called under db.mu, take only mu, so a put or a MemTable
// roll never waits for a write or fsync in flight, and no device call runs
// under db.mu.
type Log struct {
	dev    *nvm.Device
	dir    string
	stream string
	rank   int
	inj    *faults.Injector
	st     *stats.WAL
	blocks *freelist.List

	ioMu       sync.Mutex
	seg        uint64        // the active segment's number within the epoch
	active     *nvm.Appender // nil while a cut could not open the next segment
	activeName string
	taken      []chunk // the chunks being written, off the chain's head
	durable    uint64  // appends covered by the last successful commit
	dirty      bool    // device bytes written since the last sync
	poisoned   bool    // a torn append fired: the device stopped listening

	mu       sync.Mutex
	epoch    uint32  // set once by Recover, so openSegmentLocked reads it bare
	chain    []chunk // framed records not yet handed to the device, in order
	sealSeg  uint64  // the number of the segment appends go to
	appended uint64  // records appended since Recover
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
		rank:   cfg.Rank,
		inj:    cfg.Inj,
		st:     cfg.Stats,
		blocks: freelist.New(blockSize, freeBlocks),
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

// Append frames r onto the tail of the append chain, stamping it with the
// current epoch. Nothing touches the device until Commit, GroupCommit,
// Remove or Close; the caller decides the durability point. Append takes
// only the append lock, so it never waits for a device write or fsync in
// flight.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	r.Epoch = l.epoch
	n := EncodedSize(r)
	tail := l.tailLocked(n)
	*tail = AppendRecord(*tail, r)
	l.appended++
	l.st.RecordsAppended.Add(1)
	l.st.BytesAppended.Add(uint64(n))
	return nil
}

// tailLocked returns the chunk the next n framed bytes go into: the chain's
// last chunk while its block has room; past a cut, a new chunk in the rest
// of that block, which takes the block over; else a new chunk in a new
// block from the free list — or, for a record longer than a block, a
// one-off block of its own size. Only Remove's write-through takes part
// of a block's chunks: a commit or Close takes the whole chain, and the
// next append starts a new block. Caller holds mu.
func (l *Log) tailLocked(n int) *[]byte {
	if k := len(l.chain); k > 0 {
		if c := &l.chain[k-1]; len(c.b)+n <= cap(c.b) {
			if c.cut == "" {
				return &c.b
			}
			next := chunk{b: c.b[len(c.b):], block: c.block}
			c.block = nil
			l.chain = append(l.chain, next)
			return &l.chain[k].b
		}
	}
	var b []byte
	if n > blockSize {
		b = make([]byte, 0, n)
	} else {
		b = l.blocks.Get()[:0]
	}
	l.chain = append(l.chain, chunk{b: b, block: b})
	return &l.chain[len(l.chain)-1].b
}

// Rotate seals the segment appends go to and returns its name; core calls
// it under its db mutex at the exact moment the corresponding MemTable
// rolls, so a segment always holds precisely its table's records, and
// deletes the segment by that name once the table's flush or migration
// commits. Rotate only cuts the append chain after its last record: it
// takes the append lock alone and makes no device call. The next Commit,
// GroupCommit, Remove or Close writes the sealed segment's blocks, closes
// it — fsynced first — and opens the next one.
func (l *Log) Rotate() (sealed string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return "", ErrClosed
	}
	sealed = segName(l.dir, l.stream, l.epoch, l.sealSeg)
	l.sealSeg++
	if k := len(l.chain); k > 0 && l.chain[k-1].cut == "" {
		l.chain[k-1].cut = sealed
	} else {
		l.chain = append(l.chain, chunk{cut: sealed})
	}
	return sealed, nil
}

// takeLocked moves chunks off the head of the chain into l.taken, holding
// mu only for the move: all of them, or — when through names a segment —
// those up to the cut that seals it, none if no buffered cut does. upto
// counts the appends the whole chain ends with. Caller holds ioMu. A closed
// log takes nothing and yields ErrClosed.
func (l *Log) takeLocked(through string) (upto uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	n := len(l.chain)
	if through != "" {
		n = slices.IndexFunc(l.chain, func(c chunk) bool { return c.cut == through }) + 1
	}
	l.moveLocked(n)
	return l.appended, nil
}

// moveLocked moves the chain's first n chunks into l.taken. Caller holds
// ioMu and mu.
func (l *Log) moveLocked(n int) {
	l.taken = append(l.taken, l.chain[:n]...)
	rest := copy(l.chain, l.chain[n:])
	clear(l.chain[rest:])
	l.chain = l.chain[:rest]
}

// writeLocked hands the taken chunks to the device in order, closing the
// active segment at each cut and opening the next, and recycles each block
// once its last chunk is written: the chunks before it are written by
// then, in this call or an earlier one. A failed write stops the data but
// not the cuts: every cut still advances the segment, so the segments on
// the device stay in step with the names Rotate handed out, and no later
// write lands in a segment already sealed — or already removed. The cut
// that seals unlink, the segment Remove is about to delete, skips its
// fsync; "" names none. It returns the first error. Caller holds ioMu.
func (l *Log) writeLocked(unlink string) error {
	var first error
	for i := range l.taken {
		c := &l.taken[i]
		if first == nil && len(c.b) > 0 {
			first = l.appendLocked(c.b)
		}
		l.blocks.Put(c.block)
		if c.cut != "" {
			if err := l.cutLocked(c.cut != unlink); first == nil {
				first = err
			}
		}
		*c = chunk{}
	}
	l.taken = l.taken[:0]
	return first
}

// appendLocked writes one block to the active segment, opening it first if
// a cut could not. This is where WALTornAppend strikes: the firing write
// puts only a prefix of its block on the device and poisons the log —
// every later write silently drops its bytes while still reporting
// success, modelling the writes a crashed rank never got onto the device.
// Replay's frame checksums are what notice. Caller holds ioMu.
func (l *Log) appendLocked(b []byte) error {
	if l.poisoned {
		return nil
	}
	if l.active == nil {
		if err := l.openSegmentLocked(); err != nil {
			return err
		}
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

// cutLocked closes the active segment — fsynced first when sync is set and
// it holds unsynced bytes, so a put whose own append sealed the segment is
// durable before its acknowledgement, and a GroupCommit whose chain
// crosses a cut leaves both segments durable — and opens the next. Caller
// holds ioMu.
func (l *Log) cutLocked(sync bool) error {
	var err error
	if l.active != nil {
		if sync && l.dirty {
			err = l.syncLocked()
		}
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	l.seg++
	l.dirty = false
	if oerr := l.openSegmentLocked(); err == nil {
		err = oerr
	}
	return err
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
// takes everything appended so far off the chain, writes it and fsyncs —
// the append lock held only for the take, the I/O lock for the whole. A
// caller whose records an earlier caller's persist already took waits for
// that one's fsync on ioMu and then finds them durable: concurrent commits
// share one fsync, and appends made meanwhile wait for the next. synced
// reports a fsync after a non-empty write.
func (l *Log) persist() (synced bool, err error) {
	l.mu.Lock()
	target := l.appended
	l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.durable >= target {
		return false, nil
	}
	upto, err := l.takeLocked("")
	if err != nil {
		return false, err
	}
	if err := l.writeLocked(""); err != nil {
		return false, err
	}
	if l.dirty {
		if err := l.syncLocked(); err != nil {
			return false, err
		}
		synced = true
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
// interval. Appends keep landing in new blocks while it writes. A tick
// with nothing to persist does no device work; on a closed log it is a
// no-op.
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

// Remove deletes a sealed segment whose data has committed to an SSTable
// (local stream) or been applied by its owners (remote stream). This is
// the garbage collection that keeps WAL bytes bounded by the MemTable
// budget. A segment whose cut is still buffered is written through first,
// up to and including that cut, so the device has moved past it before the
// unlink and no later write can re-create it. A failed write-through is
// returned, but the segment is unlinked all the same: its records are safe
// elsewhere.
func (l *Log) Remove(sealed string) error {
	l.ioMu.Lock()
	_, err := l.takeLocked(sealed)
	if err == nil {
		err = l.writeLocked(sealed)
	} else if errors.Is(err, ErrClosed) {
		err = nil // nothing will be written again
	}
	l.ioMu.Unlock()
	if rerr := l.dev.Remove(sealed); err == nil {
		err = rerr
	}
	return err
}

// closeLocked marks the log closed and moves the whole chain into l.taken,
// under one hold of mu, so no append lands between the two. Caller holds
// ioMu; it reports false if the log was already closed.
func (l *Log) closeLocked() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.closed = true
	l.moveLocked(len(l.chain))
	return true
}

// Abandon releases the active segment WITHOUT persisting buffered appends
// — the teardown of a failed rank, whose group-commit thread is as dead as
// the rest of it. Whatever reached the device stays replayable; the
// in-memory chain is the crash's loss window and is dropped.
func (l *Log) Abandon() {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if !l.closeLocked() {
		return
	}
	clear(l.taken)
	l.taken = l.taken[:0]
	if l.active != nil {
		_ = l.active.Close()
	}
}

// Close writes and fsyncs the buffered chain, cuts included, and releases
// the active segment. The segment file stays on the device: whatever it
// holds is exactly the un-flushed state the next Open must replay.
func (l *Log) Close() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if !l.closeLocked() {
		return nil
	}
	err := l.writeLocked("")
	if err == nil && l.dirty {
		err = l.syncLocked()
	}
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
