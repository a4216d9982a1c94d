// Package manifest is PapyrusKV's per-rank table-lifecycle log: the
// crash-atomic record of which SSTables are live, what the next SSID is,
// which WAL epoch the rank last opened, and which checkpoint it last
// committed — the "manifest discipline" of LSM stores like RocksDB.
//
// Before this package, Open/Restart/Recover re-derived the live table set
// by scanning the rank's directory, so any crash between "write merged
// output" and "delete compaction inputs" resurrected deleted and
// overwritten values on the next boot. The manifest closes that window:
// every lifecycle transition (flush retire, compaction install/delete,
// checkpoint restore) commits a VersionEdit to this log *before* the old
// files are unlinked, and recovery composes the database from the log
// alone. Files on the device that the log does not list are orphans — the
// remains of a crash mid-transition — and are quarantined, never adopted.
//
// The log is an append-only chain of CRC32C-framed edits under
// <rank-dir>/manifest/log, with the same damage taxonomy as the WAL: an
// incomplete frame at end of file is a torn tail (the expected remains of
// a crash mid-append) and is truncated silently; a complete frame that
// fails its checksum is mid-log corruption and surfaces as the typed
// ErrCorrupt. Every RotateEvery edits the log is compacted: the current
// version is written as a single snapshot frame to a temp file, fsynced,
// and atomically renamed over the log.
package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"papyruskv/internal/faults"
	"papyruskv/internal/nvm"
	"papyruskv/internal/stats"
)

// ErrCorrupt reports mid-log manifest corruption: a complete frame whose
// checksum or structure is wrong. A torn tail is not corruption — Open
// truncates it silently — so ErrCorrupt always means the rank's table
// lifecycle can no longer be reconstructed and its failure domain must be
// failed rather than guessed at.
var ErrCorrupt = errors.New("manifest: corrupt log")

// ErrClosed reports an edit against a closed or poisoned manifest.
var ErrClosed = errors.New("manifest: log closed")

// crcTable is the Castagnoli polynomial, matching the SSTable and WAL
// checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame layout, all little-endian:
//
//	crc32c  uint32  // over the payload
//	length  uint32  // payload bytes
//	payload:
//	  kind     uint8  // frameEdit or frameSnapshot
//	  nextSSID uint64 // 0 = unchanged (snapshot: absolute)
//	  walEpoch uint32 // 0 = unchanged (snapshot: absolute)
//	  ckptLen  uint32 // checkpoint-marker path bytes
//	  nAdd     uint32 // tables added (snapshot: the full live set)
//	  nDel     uint32 // SSIDs deleted (snapshot: always 0)
//	  ckpt     [ckptLen]byte
//	  adds     [nAdd]TableMeta
//	  dels     [nDel]uint64
//
// This is the only frame format. Kinds 1 and 2 belonged to a level-less
// predecessor nobody deployed; like any other unknown kind they are
// ErrCorrupt.
const (
	frameHeader  = 8
	payloadFixed = 1 + 8 + 4 + 4 + 4 + 4

	frameEdit     = 3
	frameSnapshot = 4
)

// tableMetaFixed is the fixed-size prefix of one encoded TableMeta:
// ssid u64, dataBytes u64, entries u64, dataCRC u32, indexCRC u32,
// bloomCRC u32, minLen u32, maxLen u32, level u32.
const tableMetaFixed = 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4

// TableMeta fingerprints one live SSTable: identity, placement, sizes, key
// bounds, and the CRC32C of each of its three files. Recovery validates the
// files on the device against it, so a torn or bit-flipped table surfaces as
// a typed error instead of silently serving wrong data.
type TableMeta struct {
	SSID      uint64
	Level     uint32 // LSM level: 0 overlap-allowed, >=1 disjoint sorted runs
	DataBytes int64
	Entries   uint64
	DataCRC   uint32
	IndexCRC  uint32
	BloomCRC  uint32
	MinKey    []byte
	MaxKey    []byte
}

// Edit is one atomic version transition. All fields of one Edit commit in a
// single frame, so a compaction's install+delete can never be observed half
// done. Zero-valued fields leave the corresponding state unchanged.
type Edit struct {
	// Add lists tables entering the live set.
	Add []TableMeta
	// Delete lists SSIDs leaving the live set.
	Delete []uint64
	// NextSSID, when non-zero, raises the persistent SSID allocator floor.
	// Adds raise it implicitly to SSID+1; an explicit value survives even
	// when every table above it is deleted — the fix for post-restart SSID
	// reuse.
	NextSSID uint64
	// WALEpoch, when non-zero, records the rank's current WAL epoch.
	WALEpoch uint32
	// Checkpoint, when non-empty, marks a committed checkpoint at this
	// PFS path.
	Checkpoint string
}

// Version is the composed state of the log: the live table set and the
// persistent allocator floor.
type Version struct {
	// Tables is the live set, ascending by SSID.
	Tables []TableMeta
	// NextSSID is the smallest SSID a fresh allocation may use.
	NextSSID uint64
	// WALEpoch is the last recorded WAL epoch.
	WALEpoch uint32
	// Checkpoint is the last recorded committed checkpoint path.
	Checkpoint string
}

// Has reports whether ssid is in the live set.
func (v Version) Has(ssid uint64) bool {
	for _, t := range v.Tables {
		if t.SSID == ssid {
			return true
		}
	}
	return false
}

// Config opens one rank's manifest.
type Config struct {
	// Device is the rank's NVM device; the log lives on it.
	Device *nvm.Device
	// Dir is the rank's database directory; the log goes under
	// Dir + "/manifest".
	Dir string
	// Rank is reported in injection sites so rules can target one rank's
	// manifest on a shared device.
	Rank int
	// Inj arms ManifestTornAppend and ManifestRotateFail; nil disarms.
	Inj *faults.Injector
	// Stats receives the log's counters; nil allocates a private set.
	Stats *stats.Manifest
	// RotateEvery bounds the edits appended between snapshot rotations;
	// 0 means the default of 64.
	RotateEvery int
}

// LogName returns the device-relative manifest log path for a database
// directory.
func LogName(dir string) string { return dir + "/manifest/log" }

func newName(dir string) string { return dir + "/manifest/log.new" }

// Manifest is one rank's open manifest log. Methods are safe for concurrent
// use; core serializes lifecycle transitions anyway, but Recover and a
// late-running flush may race Close.
type Manifest struct {
	dev    *nvm.Device
	dir    string
	rank   int
	inj    *faults.Injector
	st     *stats.Manifest
	rotate int

	mu       sync.Mutex
	tables   map[uint64]TableMeta
	nextSSID uint64
	walEpoch uint32
	ckpt     string
	app      *nvm.Appender
	edits    int  // edits appended since the last snapshot
	poisoned bool // a torn append fired: the rank is dead past this point
	closed   bool
}

// Open replays the manifest log under cfg.Dir and returns the handle. A
// missing log is an empty manifest; a torn tail is truncated to the last
// whole frame; mid-log corruption returns an error wrapping ErrCorrupt.
func Open(cfg Config) (*Manifest, error) {
	m := &Manifest{
		dev:      cfg.Device,
		dir:      cfg.Dir,
		rank:     cfg.Rank,
		inj:      cfg.Inj,
		st:       cfg.Stats,
		rotate:   cfg.RotateEvery,
		tables:   make(map[uint64]TableMeta),
		nextSSID: 1,
	}
	if m.st == nil {
		m.st = &stats.Manifest{}
	}
	if m.rotate <= 0 {
		m.rotate = 64
	}
	// A log.new left behind is an interrupted rotation that never renamed:
	// the old log is authoritative, the temp file is garbage.
	if err := cfg.Device.Remove(newName(cfg.Dir)); err != nil {
		return nil, err
	}
	log := LogName(cfg.Dir)
	var clean int64 = -1
	if cfg.Device.Exists(log) {
		raw, err := cfg.Device.ReadFile(log)
		if err != nil {
			return nil, fmt.Errorf("manifest: read log: %w", err)
		}
		edits, n, err := decodeFrames(raw)
		if err != nil {
			return nil, err
		}
		if n < len(raw) {
			clean = int64(n)
			m.st.TailsTruncated.Add(1)
		}
		for _, e := range edits {
			m.applyLocked(e)
		}
		m.st.EditsRecovered.Add(uint64(len(edits)))
		m.edits = len(edits)
	}
	app, err := cfg.Device.OpenAppend(log)
	if err != nil {
		return nil, fmt.Errorf("manifest: open log: %w", err)
	}
	if clean >= 0 {
		if err := app.Truncate(clean); err != nil {
			app.Close()
			return nil, fmt.Errorf("manifest: truncate torn tail: %w", err)
		}
	}
	m.app = app
	return m, nil
}

// Version returns the composed state.
func (m *Manifest) Version() Version {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versionLocked()
}

func (m *Manifest) versionLocked() Version {
	v := Version{NextSSID: m.nextSSID, WALEpoch: m.walEpoch, Checkpoint: m.ckpt}
	for _, t := range m.tables {
		v.Tables = append(v.Tables, t)
	}
	sort.Slice(v.Tables, func(i, j int) bool { return v.Tables[i].SSID < v.Tables[j].SSID })
	return v
}

// applyLocked folds one edit into the in-memory state.
func (m *Manifest) applyLocked(e Edit) {
	for _, t := range e.Add {
		m.tables[t.SSID] = t
		if t.SSID >= m.nextSSID {
			m.nextSSID = t.SSID + 1
		}
	}
	for _, id := range e.Delete {
		delete(m.tables, id)
	}
	if e.NextSSID > m.nextSSID {
		m.nextSSID = e.NextSSID
	}
	if e.WALEpoch != 0 {
		m.walEpoch = e.WALEpoch
	}
	if e.Checkpoint != "" {
		m.ckpt = e.Checkpoint
	}
}

func (m *Manifest) site() faults.Site {
	return faults.Site{Rank: m.rank, Tag: faults.AnyTag, Where: LogName(m.dir)}
}

// Apply appends e as one frame, fsyncs it, and folds it into the composed
// version. The edit is durable when Apply returns nil; on error nothing of
// it may be assumed durable and the caller must treat the transition as not
// having happened (the input files it was about to unlink must stay).
//
// The ManifestTornAppend injection point fires here: a torn append leaves a
// prefix of the frame on the device and returns an error — modelling a
// crash at that instruction, after which the rank must not proceed.
func (m *Manifest) Apply(e Edit) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.poisoned {
		return ErrClosed
	}
	frame := appendFrame(nil, frameEdit, e)
	if m.inj != nil {
		if dec := m.inj.Eval(faults.ManifestTornAppend, m.site()); dec.Fire {
			m.poisoned = true
			if n := dec.TearAt(len(frame)); n > 0 {
				_ = m.app.Append(frame[:n])
				_ = m.app.Sync()
			}
			return fmt.Errorf("manifest: append: %w: torn append", faults.ErrInjected)
		}
	}
	if err := m.app.Append(frame); err != nil {
		return fmt.Errorf("manifest: append: %w", err)
	}
	if err := m.app.Sync(); err != nil {
		return fmt.Errorf("manifest: sync: %w", err)
	}
	m.applyLocked(e)
	m.edits++
	m.st.Edits.Add(1)
	if m.edits >= m.rotate {
		// Best-effort: a failed rotation leaves the old log authoritative
		// and is counted, not fatal — the edit above is already durable.
		_ = m.rotateLocked()
	}
	return nil
}

// Rotate compacts the log now: the composed version is written as a single
// snapshot frame to a temp file, fsynced, verified by read-back, and
// atomically renamed over the log. Exposed for tests; Apply rotates
// automatically every RotateEvery edits.
func (m *Manifest) Rotate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.poisoned {
		return ErrClosed
	}
	return m.rotateLocked()
}

func (m *Manifest) rotateLocked() error {
	fail := func(err error) error {
		m.st.RotateErrors.Add(1)
		return err
	}
	if m.inj != nil && m.inj.Eval(faults.ManifestRotateFail, m.site()).Fire {
		return fail(fmt.Errorf("manifest: rotate: %w: rotation aborted", faults.ErrInjected))
	}
	snap := Edit{NextSSID: m.nextSSID, WALEpoch: m.walEpoch, Checkpoint: m.ckpt}
	snap.Add = m.versionLocked().Tables
	frame := appendFrame(nil, frameSnapshot, snap)

	tmp := newName(m.dir)
	if err := m.dev.Remove(tmp); err != nil {
		return fail(err)
	}
	a, err := m.dev.OpenAppend(tmp)
	if err != nil {
		return fail(err)
	}
	if err := a.Append(frame); err == nil {
		err = a.Sync()
	}
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(fmt.Errorf("manifest: rotate: write snapshot: %w", err))
	}
	// Read-back verification before the rename: a torn device write would
	// otherwise replace a complete log with a truncated snapshot.
	raw, err := m.dev.ReadFile(tmp)
	if err != nil {
		return fail(fmt.Errorf("manifest: rotate: verify snapshot: %w", err))
	}
	if _, n, err := decodeFrames(raw); err != nil || n != len(raw) || n != len(frame) {
		return fail(fmt.Errorf("manifest: rotate: snapshot fails verification (wrote %d, readable %d)", len(frame), n))
	}
	// Commit: close the live appender, rename the snapshot over the log
	// (fsyncing the parent directory), and reopen.
	if err := m.app.Close(); err != nil {
		return fail(fmt.Errorf("manifest: rotate: %w", err))
	}
	renameErr := m.dev.Rename(tmp, LogName(m.dir))
	app, openErr := m.dev.OpenAppend(LogName(m.dir))
	if openErr != nil {
		m.closed = true
		return fail(fmt.Errorf("manifest: rotate: reopen log: %w", openErr))
	}
	m.app = app
	if renameErr != nil {
		return fail(fmt.Errorf("manifest: rotate: %w", renameErr))
	}
	m.edits = 1 // the snapshot frame itself
	m.st.Rotations.Add(1)
	return nil
}

// Compose parses raw as a manifest log and returns the composed version plus
// the clean-prefix length, without opening a handle or touching a device.
// The damage taxonomy matches Open: a torn tail composes the frames before it
// and reports clean < len(raw) with a nil error; mid-log corruption returns
// an error wrapping ErrCorrupt. Offline tooling (pkvadmin scrub) and the
// online scrubber's manifest read-back both verify through it.
func Compose(raw []byte) (Version, int, error) {
	edits, clean, err := decodeFrames(raw)
	if err != nil {
		return Version{}, clean, err
	}
	m := &Manifest{tables: make(map[uint64]TableMeta), nextSSID: 1}
	for _, e := range edits {
		m.applyLocked(e)
	}
	return m.versionLocked(), clean, nil
}

// Close releases the log handle. Every committed edit is already fsynced,
// so there is nothing to flush; a poisoned (torn) log is released the same
// way.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if err := m.app.Close(); err != nil {
		return fmt.Errorf("manifest: close: %w", err)
	}
	return nil
}

// appendFrame appends one framed edit of the given kind to dst.
func appendFrame(dst []byte, kind byte, e Edit) []byte {
	plen := payloadFixed + len(e.Checkpoint)
	for _, t := range e.Add {
		plen += tableMetaFixed + len(t.MinKey) + len(t.MaxKey)
	}
	plen += 8 * len(e.Delete)

	off := len(dst)
	dst = append(dst, make([]byte, frameHeader+plen)...)
	p := dst[off+frameHeader:]
	p[0] = kind
	binary.LittleEndian.PutUint64(p[1:], e.NextSSID)
	binary.LittleEndian.PutUint32(p[9:], e.WALEpoch)
	binary.LittleEndian.PutUint32(p[13:], uint32(len(e.Checkpoint)))
	binary.LittleEndian.PutUint32(p[17:], uint32(len(e.Add)))
	binary.LittleEndian.PutUint32(p[21:], uint32(len(e.Delete)))
	w := payloadFixed
	w += copy(p[w:], e.Checkpoint)
	for _, t := range e.Add {
		binary.LittleEndian.PutUint64(p[w:], t.SSID)
		binary.LittleEndian.PutUint64(p[w+8:], uint64(t.DataBytes))
		binary.LittleEndian.PutUint64(p[w+16:], t.Entries)
		binary.LittleEndian.PutUint32(p[w+24:], t.DataCRC)
		binary.LittleEndian.PutUint32(p[w+28:], t.IndexCRC)
		binary.LittleEndian.PutUint32(p[w+32:], t.BloomCRC)
		binary.LittleEndian.PutUint32(p[w+36:], uint32(len(t.MinKey)))
		binary.LittleEndian.PutUint32(p[w+40:], uint32(len(t.MaxKey)))
		binary.LittleEndian.PutUint32(p[w+44:], t.Level)
		w += tableMetaFixed
		w += copy(p[w:], t.MinKey)
		w += copy(p[w:], t.MaxKey)
	}
	for _, id := range e.Delete {
		binary.LittleEndian.PutUint64(p[w:], id)
		w += 8
	}
	binary.LittleEndian.PutUint32(dst[off:], crc32.Checksum(p, crcTable))
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(plen))
	return dst
}

// frameRec is one decoded frame: its edit and whether it was a snapshot.
type frameRec struct {
	edit Edit
	snap bool
}

// decodePayload parses one frame payload.
func decodePayload(p []byte) (frameRec, error) {
	var fr frameRec
	if len(p) < payloadFixed {
		return fr, fmt.Errorf("%w: payload of %d bytes", ErrCorrupt, len(p))
	}
	switch p[0] {
	case frameEdit:
	case frameSnapshot:
		fr.snap = true
	default:
		return fr, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, p[0])
	}
	e := &fr.edit
	e.NextSSID = binary.LittleEndian.Uint64(p[1:])
	e.WALEpoch = binary.LittleEndian.Uint32(p[9:])
	ckptLen := binary.LittleEndian.Uint32(p[13:])
	nAdd := binary.LittleEndian.Uint32(p[17:])
	nDel := binary.LittleEndian.Uint32(p[21:])
	w := uint64(payloadFixed)
	if w+uint64(ckptLen) > uint64(len(p)) {
		return fr, fmt.Errorf("%w: checkpoint marker overruns payload", ErrCorrupt)
	}
	e.Checkpoint = string(p[w : w+uint64(ckptLen)])
	w += uint64(ckptLen)
	for i := uint32(0); i < nAdd; i++ {
		if w+tableMetaFixed > uint64(len(p)) {
			return fr, fmt.Errorf("%w: table meta overruns payload", ErrCorrupt)
		}
		var t TableMeta
		t.SSID = binary.LittleEndian.Uint64(p[w:])
		t.DataBytes = int64(binary.LittleEndian.Uint64(p[w+8:]))
		t.Entries = binary.LittleEndian.Uint64(p[w+16:])
		t.DataCRC = binary.LittleEndian.Uint32(p[w+24:])
		t.IndexCRC = binary.LittleEndian.Uint32(p[w+28:])
		t.BloomCRC = binary.LittleEndian.Uint32(p[w+32:])
		minLen := binary.LittleEndian.Uint32(p[w+36:])
		maxLen := binary.LittleEndian.Uint32(p[w+40:])
		t.Level = binary.LittleEndian.Uint32(p[w+44:])
		w += tableMetaFixed
		if w+uint64(minLen)+uint64(maxLen) > uint64(len(p)) {
			return fr, fmt.Errorf("%w: table key bounds overrun payload", ErrCorrupt)
		}
		t.MinKey = append([]byte(nil), p[w:w+uint64(minLen)]...)
		w += uint64(minLen)
		t.MaxKey = append([]byte(nil), p[w:w+uint64(maxLen)]...)
		w += uint64(maxLen)
		e.Add = append(e.Add, t)
	}
	for i := uint32(0); i < nDel; i++ {
		if w+8 > uint64(len(p)) {
			return fr, fmt.Errorf("%w: delete list overruns payload", ErrCorrupt)
		}
		e.Delete = append(e.Delete, binary.LittleEndian.Uint64(p[w:]))
		w += 8
	}
	if w != uint64(len(p)) {
		return fr, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, uint64(len(p))-w)
	}
	return fr, nil
}

// decodeFrames parses data as a sequence of frames, returning the edits in
// order (a snapshot frame resets the state, expressed by a leading delete of
// everything — see the caller), the clean-prefix length, and an error
// wrapping ErrCorrupt for a complete frame that fails validation. An
// incomplete frame at the end is a torn tail: the frames before it are
// returned with clean < len(data) and a nil error.
func decodeFrames(data []byte) ([]Edit, int, error) {
	var out []Edit
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return out, off, nil // torn header
		}
		crc := binary.LittleEndian.Uint32(data[off:])
		plen := binary.LittleEndian.Uint32(data[off+4:])
		if uint64(plen) > uint64(len(data)-off-frameHeader) {
			return out, off, nil // torn payload
		}
		p := data[off+frameHeader : off+frameHeader+int(plen)]
		if crc32.Checksum(p, crcTable) != crc {
			return out, off, fmt.Errorf("%w: bad checksum at offset %d", ErrCorrupt, off)
		}
		fr, err := decodePayload(p)
		if err != nil {
			return out, off, fmt.Errorf("%w at offset %d", err, off)
		}
		if fr.snap {
			// A snapshot replaces everything before it.
			out = out[:0]
		}
		out = append(out, fr.edit)
		off += frameHeader + int(plen)
	}
	return out, off, nil
}
