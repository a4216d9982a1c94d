package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/manifest"
	"papyruskv/internal/nvm"
	"papyruskv/internal/scrub"
	"papyruskv/internal/sstable"
	"papyruskv/internal/wal"
)

// Background integrity scrub (the detect→repair→degrade loop).
//
// Corruption used to be found only reactively: a CRC check fired when a get
// or compaction happened to touch the bad block, so bit-rot in a cold
// SSTable sat latent until it poisoned a merge or a checkpoint. The
// scrubThread walks the manifest's live version L0→Ln every ScrubInterval
// and re-verifies each table's three files against the manifest-recorded
// CRCs and sizes, plus every WAL segment's frame chain and a read-back of
// the manifest log itself — all paced by a token-bucket byte budget
// (ScrubBytesPerSec) so a pass cannot perturb foreground tail latency.
//
// On a mismatch the ladder is:
//
//  1. Repair from the latest committed checkpoint generation, when the
//     snapshot's copy of the table carries exactly the fingerprints the
//     manifest records (a checkpoint taken before the table was written
//     cannot repair it). Copy back, swap a fresh handle into the read view
//     and evict the stale ReaderCache entry, re-verify, commit a manifest
//     edit as the durable repair record.
//  2. No valid source: commit the table's deletion, quarantine its files
//     (stamped, never clobbering earlier evidence), record the lost key
//     range in the ScrubReport, and degrade the rank through failOrDegrade
//     (ErrScrubLoss is degrade-eligible: everything else on the device is
//     verified and keeps serving reads).
//
// The scrubber defers to the foreground: a cycle runs only on a Healthy
// rank, aborts while a checkpoint holds its pin (the copy reads the same
// tables), and skips tables claimed by a running compaction. An open scan
// is no reason to skip: a repair writes new inodes its open data files never
// see, and a quarantined table's files move only once its last view retires.

// scrubThread runs one scrub cycle every ScrubInterval until Close.
func (db *DB) scrubThread() {
	defer db.wg.Done()
	t := time.NewTicker(db.opt.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-db.closing:
			return
		case <-t.C:
			_ = db.Scrub()
		}
	}
}

// Scrub runs one synchronous scrub cycle: verify every live table this rank
// owns (L0→Ln), then the WAL segments, then the manifest log. It returns
// the first error that ended the cycle early — an unrepaired corruption
// surfaces here as ErrScrubLoss even though the rank keeps serving reads —
// and nil for a clean pass or one skipped because the rank is not Healthy
// or a checkpoint is copying. Safe to call concurrently with the background
// thread; cycles serialize.
func (db *DB) Scrub() error {
	db.scrubMu.Lock()
	defer db.scrubMu.Unlock()
	if db.State() != StateHealthy {
		return nil
	}
	if db.checkpointPin.value() != 0 {
		return nil // a checkpoint is reading the same tables; yield
	}
	if err := db.scrubTables(); err != nil {
		return err
	}
	if err := db.scrubWAL(); err != nil {
		db.failOrDegrade(err)
		return err
	}
	if err := db.scrubManifest(); err != nil {
		db.failOrDegrade(err)
		return err
	}
	db.scrubRepMu.Lock()
	db.scrubRep.Cycles++
	db.scrubRepMu.Unlock()
	return nil
}

// ScrubReport returns a copy of the cumulative scrub outcome: cycle and
// verification counters, plus the key range of every table quarantined
// without a repair source.
func (db *DB) ScrubReport() scrub.Report {
	db.scrubRepMu.Lock()
	defer db.scrubRepMu.Unlock()
	return db.scrubRep.Clone()
}

// scrubTables verifies the live version table by table.
func (db *DB) scrubTables() error {
	db.sstMu.RLock()
	var tables []manifest.TableMeta
	for _, lvl := range db.levels {
		tables = append(tables, lvl...)
	}
	db.sstMu.RUnlock()

	dev := db.rt.cfg.Device
	dir := db.ownDir
	for _, t := range tables {
		select {
		case <-db.closing:
			return nil
		default:
		}
		if db.checkpointPin.value() != 0 {
			return nil // checkpoint started mid-cycle; finish next interval
		}
		if db.State() != StateHealthy {
			return nil
		}
		if db.scrubSkip(t) {
			continue
		}
		// The at-rest bit-rot injection point: unlike NVMReadBitFlip (which
		// corrupts one read's return value), a firing here flips a bit of
		// the stored bytes themselves, so every later read sees it — cold
		//-data media decay, the scrubber's reason to exist.
		db.scrubMaybeRot(dir, t)

		n, err := scrub.VerifyTable(dev, dir, t, db.scrubLim, db.closing)
		db.metrics.Scrub.Bytes.Add(uint64(n))
		db.scrubRepMu.Lock()
		db.scrubRep.BytesVerified += uint64(n)
		db.scrubRepMu.Unlock()
		switch {
		case err == nil:
			db.metrics.Scrub.TablesScrubbed.Add(1)
			db.scrubRepMu.Lock()
			db.scrubRep.TablesVerified++
			db.scrubRepMu.Unlock()
		case errors.Is(err, scrub.ErrStopped):
			return nil
		case !db.tableLive(t.SSID):
			// Compaction or a WAL retire deleted the table mid-verify; the
			// mismatch (or missing file) is a benign race, not corruption.
		default:
			db.metrics.Scrub.Corruptions.Add(1)
			db.scrubRepMu.Lock()
			db.scrubRep.Corruptions++
			db.scrubRepMu.Unlock()
			if rerr := db.scrubRepair(dir, t, err); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// scrubSkip reports whether table t must be left alone this cycle: claimed
// as input by a running compaction, which is about to replace it anyway.
func (db *DB) scrubSkip(t manifest.TableMeta) bool {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	return db.compactBusy[t.SSID] || (t.Level == 0 && db.compactL0Busy)
}

// tableLive reports whether ssid is still in the live version.
func (db *DB) tableLive(ssid uint64) bool {
	db.sstMu.RLock()
	defer db.sstMu.RUnlock()
	for _, lvl := range db.levels {
		for _, t := range lvl {
			if t.SSID == ssid {
				return true
			}
		}
	}
	return false
}

// scrubMaybeRot evaluates the ScrubBitRot injection point for table t and,
// on a firing, flips one bit of one of its files at rest.
func (db *DB) scrubMaybeRot(dir string, t manifest.TableMeta) {
	if db.inj == nil {
		return
	}
	site := faults.Site{Rank: db.rt.rank, Tag: faults.AnyTag, Where: sstable.DataName(dir, t.SSID)}
	dec := db.inj.Eval(faults.ScrubBitRot, site)
	if !dec.Fire {
		return
	}
	names := []string{
		sstable.DataName(dir, t.SSID),
		sstable.IndexName(dir, t.SSID),
		sstable.BloomName(dir, t.SSID),
	}
	name := names[dec.Rand()%3]
	dev := db.rt.cfg.Device
	data, err := dev.ReadFile(name)
	if err != nil || len(data) == 0 {
		return
	}
	dec.FlipBit(data)
	if err := dev.WriteFile(name, data); err != nil {
		return
	}
	// The rewrite replaced the inode; the view's handle and cached readers
	// hold the old (clean) one. Real rot decays the bytes an open fd reads
	// too, so the model must not let them mask it.
	db.readers.Evict(dir, t.SSID)
	db.reopenTable(t.SSID)
}

// scrubRepair runs the repair ladder for a corrupt table: restore from the
// latest committed checkpoint generation, or quarantine + degrade. cause is
// the verification failure. The returned error is non-nil only for the
// unrepaired case (ErrScrubLoss, already routed through failOrDegrade).
func (db *DB) scrubRepair(dir string, t manifest.TableMeta, cause error) error {
	if err := db.repairFromCheckpoint(dir, t); err == nil {
		db.metrics.Scrub.Repairs.Add(1)
		db.scrubRepMu.Lock()
		db.scrubRep.Repairs++
		db.scrubRepMu.Unlock()
		return nil
	} else if !errors.Is(err, errNoRepairSource) {
		cause = fmt.Errorf("%v (repair failed: %v)", cause, err)
	}
	return db.scrubQuarantine(dir, t, cause)
}

// errNoRepairSource marks a repair that never started: no checkpoint, or
// the snapshot's copy of the table does not match the manifest fingerprints.
var errNoRepairSource = errors.New("scrub: no valid checkpoint copy")

// repairFromCheckpoint restores table t's three files from the last
// committed checkpoint generation, re-verifies them, commits a manifest
// edit as the durable repair record, and drops the stale reader handles.
func (db *DB) repairFromCheckpoint(dir string, t manifest.TableMeta) error {
	pfs := db.rt.cfg.PFS
	if pfs == nil {
		return fmt.Errorf("%w: no parallel file system", errNoRepairSource)
	}
	// The rank manifest's checkpoint marker is "<path>/g<N>"; the PFS
	// MANIFEST at <path> names the actually-committed generation, which a
	// later checkpoint may have advanced past the marker.
	var marker string
	if db.man != nil {
		marker = db.man.Version().Checkpoint
	}
	cut := strings.LastIndex(marker, "/g")
	if cut <= 0 {
		return fmt.Errorf("%w: no checkpoint committed", errNoRepairSource)
	}
	path := marker[:cut]
	m, err := readManifest(pfs, path)
	if err != nil {
		return fmt.Errorf("%w: %v", errNoRepairSource, err)
	}
	rank := db.rt.rank
	if rank >= len(m.Files) {
		return fmt.Errorf("%w: snapshot has no files for rank %d", errNoRepairSource, rank)
	}
	// The snapshot's copy is a valid source only if it fingerprints exactly
	// the bytes the rank manifest promises: same sizes, same CRCs. A
	// checkpoint taken before this table existed (or before a compaction
	// rewrote it) simply does not carry it.
	want := map[string]struct {
		crc  uint32
		size int64
	}{
		fmt.Sprintf("sst-%06d.data", t.SSID):  {t.DataCRC, t.DataBytes},
		fmt.Sprintf("sst-%06d.idx", t.SSID):   {t.IndexCRC, -1},
		fmt.Sprintf("sst-%06d.bloom", t.SSID): {t.BloomCRC, -1},
	}
	src := snapshotDir(path, m.Gen, rank)
	found := 0
	for _, f := range m.Files[rank] {
		w, ok := want[f.Name]
		if !ok {
			continue
		}
		if f.CRC != w.crc || (w.size >= 0 && f.Size != w.size) {
			return fmt.Errorf("%w: snapshot copy of %s predates the live table", errNoRepairSource, f.Name)
		}
		found++
	}
	if found != len(want) {
		return fmt.Errorf("%w: snapshot g%d lacks table %06d", errNoRepairSource, m.Gen, t.SSID)
	}
	if db.inj != nil {
		site := faults.Site{Rank: rank, Tag: faults.AnyTag, Where: src}
		if db.inj.Eval(faults.ScrubRepairFail, site).Fire {
			return fmt.Errorf("%w: repair copy-back", faults.ErrInjected)
		}
	}
	for name, w := range want {
		size, crc, err := nvm.CopySum(db.rt.cfg.Device, dir+"/"+name, pfs, src+"/"+name)
		if err != nil {
			return fmt.Errorf("scrub: repair copy-back of %s: %w", name, err)
		}
		if crc != w.crc || (w.size >= 0 && size != w.size) {
			return fmt.Errorf("%w: scrub: snapshot copy of %s decayed in flight", ErrCorrupt, name)
		}
	}
	// The copies replaced the inodes; the view's handle and cached readers
	// hold the corrupt ones.
	db.readers.Evict(dir, t.SSID)
	db.reopenTable(t.SSID)
	if _, err := scrub.VerifyTable(db.rt.cfg.Device, dir, t, nil, db.closing); err != nil {
		return fmt.Errorf("scrub: repaired table fails re-verification: %w", err)
	}
	// Durable repair record: re-adding the unchanged meta is an idempotent
	// edit, and a manifest dump then shows when the table was restored.
	if err := db.manifestApply(manifest.Edit{Add: []manifest.TableMeta{t}}); err != nil {
		return fmt.Errorf("scrub: manifest repair record: %w", err)
	}
	return nil
}

// scrubQuarantine retires an unrepairable corrupt table: commit its
// deletion, drop it from the live version, move its files (stamped) into
// <dir>/quarantine as evidence, record the lost key range, and degrade the
// rank. Reads over the remaining verified tables keep serving — older
// versions of the lost range may even survive in deeper levels — but the
// newest versions this table held are gone, so writes stop until an
// operator (or Reclaim) decides the loss is acceptable.
func (db *DB) scrubQuarantine(dir string, t manifest.TableMeta, cause error) error {
	// A compaction may have claimed the table since the skip check; leave
	// it for the next cycle rather than delete its input under it.
	if db.scrubSkip(t) || !db.tableLive(t.SSID) {
		return nil
	}
	if err := db.manifestApply(manifest.Edit{Delete: []uint64{t.SSID}}); err != nil {
		db.fail(fmt.Errorf("scrub: manifest quarantine record: %w", err))
		return err
	}
	db.sstMu.Lock()
	for li, lvl := range db.levels {
		for i, lt := range lvl {
			if lt.SSID == t.SSID {
				db.levels[li] = append(lvl[:i:i], lvl[i+1:]...)
				break
			}
		}
	}
	// The files move once no get or iterator still reads them through an
	// older view.
	db.publishLocked(db.quarantineTable)
	db.sstMu.Unlock()
	db.metrics.QuarantinedTables.Add(1)
	db.metrics.Scrub.RepairFailures.Add(1)
	db.scrubRepMu.Lock()
	db.scrubRep.RepairFailures++
	db.scrubRep.LostRanges = append(db.scrubRep.LostRanges, scrub.LostRange{
		SSID:    t.SSID,
		Level:   t.Level,
		Entries: t.Entries,
		MinKey:  append([]byte(nil), t.MinKey...),
		MaxKey:  append([]byte(nil), t.MaxKey...),
		Cause:   cause.Error(),
	})
	db.scrubRepMu.Unlock()
	err := fmt.Errorf("%w: sst %06d L%d keys [%q, %q]: %v",
		ErrScrubLoss, t.SSID, t.Level, t.MinKey, t.MaxKey, cause)
	db.failOrDegrade(err)
	return err
}

// quarantineTable is an unrepairable table's fate: its files move, stamped,
// into <dir>/quarantine as evidence, and the device cache drops its reader.
// Best effort: the deletion is already committed.
func (db *DB) quarantineTable(ssid uint64) {
	dev := db.rt.cfg.Device
	for _, name := range []string{
		sstable.DataName(db.ownDir, ssid),
		sstable.IndexName(db.ownDir, ssid),
		sstable.BloomName(db.ownDir, ssid),
	} {
		base := name[strings.LastIndex(name, "/")+1:]
		if dev.Exists(name) {
			_ = dev.Rename(name, db.quarantineName(db.ownDir, base))
		}
	}
	db.readers.Evict(db.ownDir, ssid)
}

// scrubWAL re-reads every WAL segment and walks its frame chain. A torn
// tail — the live segment's in-progress append, or the remains of a crash —
// is fine; mid-log corruption is not: replay after the next crash would
// stop short of records this rank acked, so the damage surfaces now, typed,
// instead of as silent loss later.
func (db *DB) scrubWAL() error {
	dev := db.rt.cfg.Device
	dir := db.ownDir + "/wal"
	files, err := dev.List(dir)
	if err != nil {
		return nil // no WAL directory: logging is off
	}
	for _, f := range files {
		if !strings.HasSuffix(f, ".log") {
			continue
		}
		size, err := dev.FileSize(f)
		if err != nil {
			continue // retired mid-cycle
		}
		if !db.scrubLim.Wait(int(size), db.closing) {
			return nil
		}
		raw, err := dev.ReadFile(f)
		if err != nil {
			if !dev.Exists(f) {
				continue // retired mid-cycle
			}
			return fmt.Errorf("scrub: wal segment %s: %w", f, err)
		}
		db.metrics.Scrub.Bytes.Add(uint64(len(raw)))
		if _, _, err := wal.DecodeAll(raw); err != nil {
			return fmt.Errorf("scrub: wal segment %s: %w", f, err)
		}
	}
	return nil
}

// scrubManifest re-reads the manifest log and re-composes it. Concurrent
// appends can leave a torn last frame in the read — tolerated, exactly as
// Open tolerates a crash's torn tail; a frame that fails its checksum
// mid-log means the table lifecycle is no longer reconstructable.
func (db *DB) scrubManifest() error {
	dev := db.rt.cfg.Device
	log := manifest.LogName(db.ownDir)
	if !dev.Exists(log) {
		return nil
	}
	size, err := dev.FileSize(log)
	if err == nil && !db.scrubLim.Wait(int(size), db.closing) {
		return nil
	}
	raw, err := dev.ReadFile(log)
	if err != nil {
		return fmt.Errorf("scrub: manifest log: %w", err)
	}
	db.metrics.Scrub.Bytes.Add(uint64(len(raw)))
	if _, _, err := manifest.Compose(raw); err != nil {
		return fmt.Errorf("scrub: manifest log: %w", err)
	}
	return nil
}
