package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"papyruskv/internal/manifest"
	"papyruskv/internal/nvm"
	"papyruskv/internal/sstable"
)

// Event identifies an asynchronous pending operation (papyruskv_event_t).
// Wait blocks until the operation completes and returns its error. Wait is
// safe to call from multiple goroutines concurrently; every caller observes
// the same result.
type Event struct {
	done chan error
	once sync.Once
	err  error
}

func newEvent() *Event { return &Event{done: make(chan error, 1)} }

func (e *Event) complete(err error) { e.done <- err }

// Wait blocks until the pending operation completes (papyruskv_wait). It may
// be called multiple times, from any number of goroutines.
func (e *Event) Wait() error {
	e.once.Do(func() { e.err = <-e.done })
	return e.err
}

// manifestFile fingerprints one snapshot file: restart refuses to restore a
// file whose size or CRC32C no longer matches what checkpoint recorded.
// Level records which LSM level the table lived on, the same for all three
// files of a triple, so a verbatim restore re-installs the leveled shape
// instead of flattening everything onto L0.
type manifestFile struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC   uint32 `json:"crc"`
	Level uint32 `json:"level,omitempty"`
}

// ckptManifest describes a snapshot on the parallel file system. It is
// written by rank 0 only after every rank has finished its transfers
// (two-phase commit), so a manifest's existence implies the snapshot is
// complete. Each checkpoint writes into its own generation directory
// (path/g<N>/) and the manifest names the committed generation: a later
// checkpoint to the same path that crashes mid-transfer damages only its
// own uncommitted g<N+1>, and the old generation keeps restoring.
type ckptManifest struct {
	Name   string           `json:"name"`
	Ranks  int              `json:"ranks"`
	Format int              `json:"format"`
	Gen    int              `json:"gen"`
	Files  [][]manifestFile `json:"files"` // indexed by snapshot rank
}

// manifestFormat is the one snapshot layout, written and restored: a
// snapshot in any other format is ErrNoSnapshot.
const manifestFormat = 4

func manifestName(path string) string { return path + "/MANIFEST" }
func snapshotDir(path string, gen, r int) string {
	return fmt.Sprintf("%s/g%d/r%d", path, gen, r)
}

// ckptReport is one rank's phase-1 outcome, gathered to rank 0 on the
// dedicated checkpoint communicator before the manifest is committed.
type ckptReport struct {
	Files []manifestFile `json:"files"`
	Err   string         `json:"err,omitempty"`
}

// Checkpoint generates a snapshot of the database under path on the
// parallel file system (papyruskv_checkpoint). It is collective. The
// snapshot is built by an internal Barrier(LevelSSTable), so all MemTables
// land in SSTables on NVM; the file transfer to the PFS then runs
// asynchronously — the returned Event completes when the whole snapshot is
// committed. Updates issued meanwhile are safe: they never touch existing
// SSTables, and compaction is pinned for the duration of the copy.
//
// Commit is two-phase: every rank transfers its files and reports the file
// list (with sizes and CRC32C checksums) to rank 0, which writes the
// MANIFEST only after all reports arrive clean, then broadcasts the verdict.
// A failed rank still participates in the commit protocol — reporting its
// failure instead of transferring — so the healthy ranks' events complete
// with an error rather than a partial snapshot, and nobody deadlocks.
func (db *DB) Checkpoint(path string) (*Event, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	if db.rt.cfg.PFS == nil {
		return nil, fmt.Errorf("%w: no parallel file system configured", ErrInvalidArgument)
	}
	// Pin before the barrier: once other ranks pass their barrier they may
	// put again, and an incoming migration could otherwise trigger a
	// compaction that deletes snapshot files while they are being copied.
	db.checkpointPin.add(1)
	rankErr := db.Barrier(LevelSSTable)
	// Compaction now runs on its own workers, decoupled from the flush the
	// barrier drained; wait out any job already in flight so the table list
	// snapshotted below is stable for the whole copy. New triggers defer to
	// the pin (and are re-fired by releaseCheckpointPin).
	db.pendingCompact.wait()

	db.sstMu.RLock()
	var snapshot []manifest.TableMeta
	for _, lvl := range db.levels {
		snapshot = append(snapshot, lvl...)
	}
	db.sstMu.RUnlock()

	ev := newEvent()
	go func() {
		// Release the pin BEFORE completing the event: a Scrub or compaction
		// trigger issued right after Wait returns must not still find it held.
		err := db.copyOut(path, snapshot, rankErr)
		db.releaseCheckpointPin()
		ev.complete(err)
	}()
	return ev, nil
}

// copyOut runs both commit phases for this rank. rankErr, when non-nil, is
// this rank's barrier failure: the transfer is skipped and the error is
// carried into the commit protocol so every rank learns the snapshot is
// incomplete.
func (db *DB) copyOut(path string, tables []manifest.TableMeta, rankErr error) error {
	pfs := db.rt.cfg.PFS
	rank := db.rt.rank

	// Generation handshake: rank 0 reads the committed manifest (if any)
	// and broadcasts the next generation number, so every rank transfers
	// into the same fresh path/g<N> directory and the committed snapshot —
	// a different generation — is never overwritten in place.
	var genBuf []byte
	if rank == 0 {
		gen := 1
		if old, err := readManifest(pfs, path); err == nil {
			gen = old.Gen + 1
		}
		genBuf = []byte(fmt.Sprintf("%d", gen))
	}
	genBuf, bcastErr := db.ckptComm.Bcast(0, genBuf)
	if bcastErr != nil {
		return bcastErr
	}
	gen, genErr := strconv.Atoi(string(genBuf))
	if genErr != nil || gen < 1 {
		return fmt.Errorf("papyruskv: checkpoint: bad generation %q", genBuf)
	}

	// Phase 1: transfer this rank's SSTable files, fingerprinting each.
	var files []manifestFile
	xferErr := rankErr
	if xferErr == nil {
		files, xferErr = db.transferFiles(pfs, path, gen, tables)
	}

	// Phase 2: gather every rank's report to rank 0 on the dedicated
	// checkpoint communicator, commit the manifest there, and broadcast
	// the verdict. The broadcast doubles as the release barrier: no event
	// completes before the manifest is durable (or refused).
	rep := ckptReport{Files: files}
	if xferErr != nil {
		rep.Err = xferErr.Error()
	}
	payload, err := json.Marshal(rep)
	if err != nil {
		payload, _ = json.Marshal(ckptReport{Err: err.Error()})
	}
	reports, err := db.ckptComm.Gather(0, payload)
	if err != nil {
		if xferErr != nil {
			return xferErr
		}
		return err
	}

	var verdict []byte
	if rank == 0 {
		if err := db.commitManifest(pfs, path, gen, reports); err != nil {
			verdict = []byte(err.Error())
		}
	}
	verdict, err = db.ckptComm.Bcast(0, verdict)
	switch {
	case xferErr != nil:
		return xferErr
	case err != nil:
		return err
	case len(verdict) > 0:
		return fmt.Errorf("papyruskv: checkpoint not committed: %s", verdict)
	default:
		// Record the committed checkpoint in this rank's own manifest log:
		// a later inspection (pkvadmin manifest dump) shows which snapshot
		// this rank's tables last reached. Best-effort — the snapshot's own
		// commit record is the PFS manifest written above.
		_ = db.manifestApply(manifest.Edit{Checkpoint: fmt.Sprintf("%s/g%d", path, gen)})
		return nil
	}
}

// transferFiles copies this rank's snapshot files into the generation
// directory on the PFS and returns their manifest fingerprints, each
// carrying its table's level.
func (db *DB) transferFiles(pfs *nvm.Device, path string, gen int, tables []manifest.TableMeta) ([]manifestFile, error) {
	src := db.ownDir
	dst := snapshotDir(path, gen, db.rt.rank)
	if err := pfs.RemoveAll(dst); err != nil {
		return nil, err
	}
	files := []manifestFile{}
	for _, t := range tables {
		for _, name := range []string{"data", "idx", "bloom"} {
			file := fmt.Sprintf("sst-%06d.%s", t.SSID, name)
			size, crc, err := nvm.CopySum(pfs, dst+"/"+file, db.rt.cfg.Device, src+"/"+file)
			if err != nil {
				return nil, err
			}
			files = append(files, manifestFile{Name: file, Size: size, CRC: crc, Level: t.Level})
		}
	}
	return files, nil
}

// commitManifest (rank 0 only) validates every rank's report and writes the
// MANIFEST last, making generation gen visible atomically. On any failure
// the new generation's directory is discarded and the previous manifest —
// which names an older, untouched generation — is left in place, so the old
// snapshot keeps restoring; the pre-generation scheme removed the stale
// manifest here and a failed re-checkpoint cost the only snapshot. On
// success the superseded generations are garbage-collected, best-effort.
func (db *DB) commitManifest(pfs *nvm.Device, path string, gen int, reports [][]byte) error {
	m := ckptManifest{Name: db.name, Ranks: db.rt.size, Format: manifestFormat, Gen: gen,
		Files: make([][]manifestFile, len(reports))}
	var commitErr error
	for r, raw := range reports {
		var rep ckptReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			commitErr = fmt.Errorf("rank %d sent a malformed report: %v", r, err)
			break
		}
		if rep.Err != "" {
			commitErr = fmt.Errorf("rank %d: %s", r, rep.Err)
			break
		}
		m.Files[r] = rep.Files
	}
	if commitErr == nil {
		var raw []byte
		if raw, commitErr = json.Marshal(m); commitErr == nil {
			commitErr = pfs.WriteFile(manifestName(path), raw)
		}
	}
	if commitErr != nil {
		_ = pfs.RemoveAll(fmt.Sprintf("%s/g%d", path, gen))
		return commitErr
	}
	for g := gen - 1; g >= 1; g-- {
		_ = pfs.RemoveAll(fmt.Sprintf("%s/g%d", path, g))
	}
	return nil
}

// readManifest loads and validates the snapshot manifest at path: a missing
// manifest is ErrNoSnapshot (the snapshot was never committed), a manifest
// that does not parse or whose file list disagrees with the files actually
// present is ErrCorrupt.
func readManifest(pfs *nvm.Device, path string) (ckptManifest, error) {
	var m ckptManifest
	raw, err := pfs.ReadFile(manifestName(path))
	if err != nil {
		return m, fmt.Errorf("%w: %v", ErrNoSnapshot, err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%w: manifest does not parse: %v", ErrCorrupt, err)
	}
	if m.Format != manifestFormat {
		return m, fmt.Errorf("%w: unsupported snapshot format %d", ErrNoSnapshot, m.Format)
	}
	if m.Gen < 1 {
		return m, fmt.Errorf("%w: manifest names no generation", ErrCorrupt)
	}
	if len(m.Files) != m.Ranks {
		return m, fmt.Errorf("%w: manifest lists %d ranks' files for %d ranks",
			ErrCorrupt, len(m.Files), m.Ranks)
	}
	// Cheap structural validation up front: every listed file must exist
	// with the recorded size. Content (CRC) is verified as files are read
	// back during the restore itself.
	for r, files := range m.Files {
		dir := snapshotDir(path, m.Gen, r)
		for _, f := range files {
			size, err := pfs.FileSize(dir + "/" + f.Name)
			if err != nil {
				return m, fmt.Errorf("%w: snapshot missing %s/%s", ErrCorrupt, dir, f.Name)
			}
			if size != f.Size {
				return m, fmt.Errorf("%w: %s/%s is %d bytes, manifest says %d",
					ErrCorrupt, dir, f.Name, size, f.Size)
			}
		}
	}
	return m, nil
}

// Restart reverts database name from the snapshot stored at path
// (papyruskv_restart). It is collective. The returned Event completes when
// this rank's file transfers finish and the database is composed; use the
// DB only after Wait succeeds.
//
// If the snapshot was taken with the same number of ranks (and
// forceRedistribute is false), the SSTables are copied back verbatim — the
// streamlined workflow of Figure 5(b). Otherwise the runtime redistributes:
// each rank scans a partition of the snapshot's SSTables and re-puts every
// pair, letting the hash function assign new owners (Figure 5(c)).
func (rt *Runtime) Restart(path, name string, opt Options, forceRedistribute bool) (*DB, *Event, error) {
	if rt.cfg.PFS == nil {
		return nil, nil, fmt.Errorf("%w: no parallel file system configured", ErrInvalidArgument)
	}
	m, err := readManifest(rt.cfg.PFS, path)
	if err != nil {
		return nil, nil, err
	}

	if m.Ranks == rt.size && !forceRedistribute {
		return rt.restartVerbatim(path, name, opt, m)
	}
	return rt.restartRedistribute(path, name, opt, m)
}

// restartVerbatim copies this rank's snapshot files back to NVM — exactly
// the files the manifest lists, re-verifying each one's CRC32C on the way —
// then opens the database over them.
func (rt *Runtime) restartVerbatim(path, name string, opt Options, m ckptManifest) (*DB, *Event, error) {
	ev := newEvent()
	// Clear any stale on-NVM state for this database first so the
	// restored image is exact, and drop any reader handles cached over the
	// old files — the restore rewrites the same (dir, ssid) names with
	// snapshot content, which a stale cached bloom/index would mask.
	if err := rt.cfg.Device.RemoveAll(fmt.Sprintf("%s/r%d", name, rt.rank)); err != nil {
		return nil, nil, err
	}
	sstable.EvictDeviceDir(rt.cfg.Device, fmt.Sprintf("%s/r%d", name, rt.rank))
	db, err := rt.Open(name, opt)
	if err != nil {
		return nil, nil, err
	}
	go func() {
		src := snapshotDir(path, m.Gen, rt.rank)
		dst := db.ownDir
		for _, f := range m.Files[rt.rank] {
			size, crc, err := nvm.CopySum(rt.cfg.Device, dst+"/"+f.Name, rt.cfg.PFS, src+"/"+f.Name)
			if err != nil {
				ev.complete(err)
				return
			}
			if size != f.Size || crc != f.CRC {
				ev.complete(fmt.Errorf("%w: snapshot file %s/%s fails its manifest checksum",
					ErrCorrupt, src, f.Name))
				return
			}
		}
		// Drop entries cached during the copy window — gets racing the
		// restore may have memoised not-found (negative entries) for
		// SSIDs that now exist — then compose: commit the restored tables
		// to this rank's manifest (the directory was cleared above, so the
		// log is fresh and they would otherwise be quarantined orphans)
		// and adopt them, each at the level the snapshot recorded for it.
		db.readers.EvictDir(dst)
		levelOf := snapshotLevels(m.Files[rt.rank])
		ids, err := sstable.ListSSIDs(rt.cfg.Device, dst)
		if err != nil {
			ev.complete(err)
			return
		}
		var e manifest.Edit
		var next uint64
		for _, id := range ids {
			meta, err := sstable.ReadMeta(rt.cfg.Device, dst, id)
			if err != nil {
				ev.complete(fmt.Errorf("restored SSTable %d: %w", id, err))
				return
			}
			tm := tableMetaOf(meta)
			tm.Level = levelOf[id]
			e.Add = append(e.Add, tm)
			if id >= next {
				next = id + 1
			}
		}
		if len(e.Add) > 0 {
			if err := db.manifestApply(e); err != nil {
				ev.complete(fmt.Errorf("manifest commit of restored tables: %w", err))
				return
			}
		}
		db.sstMu.Lock()
		db.installVersionLocked(manifest.Version{Tables: e.Add, NextSSID: next})
		db.sstMu.Unlock()
		// All ranks must finish composing before any rank's event
		// completes: otherwise a restarted rank could issue remote gets
		// against an owner that has not adopted its SSTables yet.
		ev.complete(db.ckptComm.Barrier())
	}()
	return db, ev, nil
}

// restartRedistribute re-puts every snapshot pair through the normal put
// path so the hash function re-assigns owners for the new rank count. The
// work is partitioned by snapshot source rank; each rank merges its source
// ranks' SSTables in recency order — L0 newest-first, then the deeper
// levels ascending — so only each key's latest version is re-put.
func (rt *Runtime) restartRedistribute(path, name string, opt Options, m ckptManifest) (*DB, *Event, error) {
	if err := rt.cfg.Device.RemoveAll(fmt.Sprintf("%s/r%d", name, rt.rank)); err != nil {
		return nil, nil, err
	}
	sstable.EvictDeviceDir(rt.cfg.Device, fmt.Sprintf("%s/r%d", name, rt.rank))
	db, err := rt.Open(name, opt)
	if err != nil {
		return nil, nil, err
	}
	ev := newEvent()
	go func() {
		for src := rt.rank; src < m.Ranks; src += rt.size {
			if err := db.redistribute(rt.cfg.PFS, snapshotDir(path, m.Gen, src), snapshotRecency(m.Files[src])); err != nil {
				ev.complete(err)
				return
			}
		}
		// The re-puts are racing every other rank's; settle them.
		ev.complete(db.Barrier(LevelMemTable))
	}()
	return db, ev, nil
}

// ssidOfSnapshotFile parses the SSID out of a snapshot file name
// (sst-%06d.data / .idx / .bloom).
func ssidOfSnapshotFile(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "sst-") {
		return 0, false
	}
	dot := strings.LastIndex(name, ".")
	if dot < 0 {
		return 0, false
	}
	id, err := strconv.ParseUint(name[4:dot], 10, 64)
	return id, err == nil
}

// snapshotLevels maps each table of one rank's snapshot file list to its
// recorded level (a triple's three files agree).
func snapshotLevels(files []manifestFile) map[uint64]uint32 {
	levels := map[uint64]uint32{}
	for _, f := range files {
		if id, ok := ssidOfSnapshotFile(f.Name); ok {
			levels[id] = f.Level
		}
	}
	return levels
}

// redistribute re-puts each key's newest version from the snapshot tables
// ids — recency order — in dir. A tombstone in the snapshot only shadowed
// older tables of the same snapshot; the merge has already suppressed
// those, so it is dropped.
func (db *DB) redistribute(pfs *nvm.Device, dir string, ids []uint64) error {
	m, err := sstable.OpenMerge(pfs, dir, ids, nil, nil)
	if err != nil {
		return err
	}
	defer m.Close()
	for {
		e, ok, err := m.Next()
		if err != nil || !ok {
			return err
		}
		if e.Tombstone {
			continue
		}
		if err := db.Put(e.Key, e.Value); err != nil {
			return err
		}
	}
}

// snapshotRecency orders one rank's snapshot tables for a redistributing
// merge: the live-version recency order (newerTable) over the levels the
// snapshot recorded.
func snapshotRecency(files []manifestFile) []uint64 {
	var tables []manifest.TableMeta
	for id, level := range snapshotLevels(files) {
		tables = append(tables, manifest.TableMeta{SSID: id, Level: level})
	}
	slices.SortFunc(tables, newerTable)
	ids := make([]uint64, len(tables))
	for i, t := range tables {
		ids[i] = t.SSID
	}
	return ids
}

// Destroy removes the database and all its data from NVM
// (papyruskv_destroy). It is collective and closes the handle.
func (db *DB) Destroy() (*Event, error) {
	rank := db.rt.rank
	dev := db.rt.cfg.Device
	dir := db.dir(rank)
	if err := db.Close(); err != nil {
		return nil, err
	}
	ev := newEvent()
	go func() {
		err := dev.RemoveAll(dir)
		// Close already evicted this rank's handles; sweep again after
		// the removal in case a racing peer read repopulated an entry.
		sstable.EvictDeviceDir(dev, dir)
		ev.complete(err)
	}()
	return ev, nil
}
