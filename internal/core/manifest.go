package core

import (
	"fmt"
	"strconv"
	"strings"

	"papyruskv/internal/manifest"
	"papyruskv/internal/sstable"
)

// This file threads the per-rank manifest log (internal/manifest) through
// the table lifecycle. The rules, enforced at every transition:
//
//   - A table exists only if its manifest lists it. Open, Restart, and
//     Recover compose the live set from the log; the directory scan
//     survives only as an orphan detector.
//   - The manifest edit commits BEFORE any old file is unlinked (compaction
//     inputs, retired WAL segments), so a crash at any instruction leaves
//     either the old version or the new one — never a mix that resurrects
//     deleted or overwritten values.
//   - Files the log does not list are orphans — the remains of a crash
//     mid-transition — and are quarantined (moved aside and counted under
//     quarantined_tables), never adopted, with no exception: an empty log
//     lists nothing.

// tableMetaOf converts an sstable.Meta into its manifest record.
func tableMetaOf(m sstable.Meta) manifest.TableMeta {
	return manifest.TableMeta{
		SSID:      m.SSID,
		DataBytes: m.DataBytes,
		Entries:   uint64(m.Count),
		DataCRC:   m.DataCRC,
		IndexCRC:  m.IndexCRC,
		BloomCRC:  m.BloomCRC,
		MinKey:    m.MinKey,
		MaxKey:    m.MaxKey,
	}
}

// manifestApply commits one edit to the rank's manifest. A nil manifest
// (its open failed and the rank is already failed/failing) refuses the
// transition: proceeding without the durable record would reopen the very
// crash windows the manifest exists to close.
func (db *DB) manifestApply(e manifest.Edit) error {
	if db.man == nil {
		return fmt.Errorf("manifest: not open: %w", manifest.ErrClosed)
	}
	return db.man.Apply(e)
}

// manifestOpen opens (or creates) this rank's manifest log, reconciles the
// directory against it, and installs the composed live set into db.levels /
// db.nextSSID with a fresh handle per table. validate additionally opens
// every listed table up front, re-checking its bloom filter and index CRCs
// — the Recover path, where on-NVM damage is the suspected cause — and
// publishes the handles already loaded.
//
// Reconciliation:
//   - tables the log does not list: orphans from a crash mid-transition;
//     quarantined under <dir>/quarantine and counted.
//   - tables the log lists but the device lacks (or whose data size
//     disagrees with the record): the image this rank acked durability for
//     is gone — fail with the typed corruption error.
func (db *DB) manifestOpen(validate bool) error {
	dev := db.rt.cfg.Device
	dir := db.ownDir

	man, err := manifest.Open(manifest.Config{
		Device: dev,
		Dir:    dir,
		Rank:   db.rt.rank,
		Inj:    db.inj,
		Stats:  &db.metrics.Manifest,
	})
	if err != nil {
		return err
	}

	v := man.Version()
	if err := db.quarantineOrphans(dir, v); err != nil {
		man.Close()
		return err
	}
	fresh, err := db.openVersion(v, validate)
	if err != nil {
		man.Close()
		return err
	}
	db.sstMu.Lock()
	db.installVersionLocked(v, fresh...)
	db.sstMu.Unlock()
	db.man = man
	return nil
}

// openVersion checks every table of v against the device and returns a
// fresh handle for each; with validate each handle's table is opened, its
// bloom filter and index CRC-checked. On error no table stays open.
func (db *DB) openVersion(v manifest.Version, validate bool) (fresh []*tableHandle, err error) {
	defer func() {
		if err != nil {
			for _, h := range fresh {
				h.close()
			}
		}
	}()
	dev := db.rt.cfg.Device
	for _, t := range v.Tables {
		size, err := dev.FileSize(sstable.DataName(db.ownDir, t.SSID))
		if err != nil {
			return fresh, fmt.Errorf("%w: manifest lists SSTable %d but its data file is unreadable: %v",
				manifest.ErrCorrupt, t.SSID, err)
		}
		if size != t.DataBytes {
			return fresh, fmt.Errorf("%w: SSTable %d data file is %d bytes, manifest recorded %d",
				manifest.ErrCorrupt, t.SSID, size, t.DataBytes)
		}
		h := db.newHandle(t.SSID, nil)
		fresh = append(fresh, h)
		if validate {
			if _, err := h.load(); err != nil {
				return fresh, fmt.Errorf("SSTable %d: %w", t.SSID, err)
			}
		}
	}
	return fresh, nil
}

// quarantineOrphans moves every sst-* file in dir whose SSID the version
// does not list into <dir>/quarantine. Orphans are the expected remains of
// a crash between writing a table and committing its manifest edit (the
// table was never acked durable) or between committing a compaction and
// unlinking its inputs (the data lives on in the merged output); adopting
// either would resurrect deleted or overwritten values. Partial triples —
// a crash mid-WriteTable — are quarantined the same way.
func (db *DB) quarantineOrphans(dir string, v manifest.Version) error {
	dev := db.rt.cfg.Device
	files, err := dev.List(dir)
	if err != nil {
		return err
	}
	moved := map[uint64]bool{}
	for _, f := range files {
		base := f[strings.LastIndex(f, "/")+1:]
		if f != dir+"/"+base || !strings.HasPrefix(base, "sst-") {
			continue // subdirectory entries (wal/, manifest/, quarantine/)
		}
		dot := strings.LastIndex(base, ".")
		if dot < 0 {
			continue
		}
		id, err := strconv.ParseUint(base[4:dot], 10, 64)
		if err != nil || v.Has(id) {
			continue
		}
		if err := dev.Rename(f, db.quarantineName(dir, base)); err != nil {
			return fmt.Errorf("quarantining orphan %s: %w", base, err)
		}
		if !moved[id] {
			moved[id] = true
			db.metrics.QuarantinedTables.Add(1)
			db.readers.Evict(dir, id)
		}
	}
	return nil
}

// quarantineName returns an unused destination under <dir>/quarantine for
// base. SSIDs recycle — a repaired table's quarantined predecessor, or a
// crash-reopen loop, can send a second file with the same name here — and
// quarantined files are evidence, so a collision must never clobber the
// earlier incident: later arrivals get a monotonic ".N" stamp.
func (db *DB) quarantineName(dir, base string) string {
	dev := db.rt.cfg.Device
	name := dir + "/quarantine/" + base
	for n := 1; dev.Exists(name); n++ {
		name = fmt.Sprintf("%s/quarantine/%s.%d", dir, base, n)
	}
	return name
}

// manifestClose releases the manifest handle at teardown.
func (db *DB) manifestClose() {
	if db.man != nil {
		_ = db.man.Close()
		db.man = nil
	}
}
