package manifest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"papyruskv/internal/faults"
	"papyruskv/internal/nvm"
)

func newDevice(t *testing.T) *nvm.Device {
	t.Helper()
	dev, err := nvm.Open(t.TempDir(), nvm.PerfModel{})
	if err != nil {
		t.Fatalf("open device: %v", err)
	}
	return dev
}

func open(t *testing.T, cfg Config) *Manifest {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("manifest open: %v", err)
	}
	return m
}

func apply(t *testing.T, m *Manifest, e Edit) {
	t.Helper()
	if err := m.Apply(e); err != nil {
		t.Fatalf("apply %+v: %v", e, err)
	}
}

func meta(ssid uint64) TableMeta {
	return TableMeta{SSID: ssid, DataBytes: int64(100 * ssid), Entries: ssid,
		MinKey: []byte("a"), MaxKey: []byte("z"), DataCRC: 1, IndexCRC: 2, BloomCRC: 3}
}

func TestManifestRoundTrip(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}, WALEpoch: 3})
	apply(t, m, Edit{Add: []TableMeta{meta(2)}})
	apply(t, m, Edit{Add: []TableMeta{meta(3)}, Delete: []uint64{1, 2}})
	apply(t, m, Edit{Checkpoint: "snap/run1"})
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m = open(t, cfg)
	v := m.Version()
	if len(v.Tables) != 1 || v.Tables[0].SSID != 3 {
		t.Fatalf("live set = %+v, want just sst 3", v.Tables)
	}
	got := v.Tables[0]
	want := meta(3)
	if got.DataBytes != want.DataBytes || got.Entries != want.Entries ||
		got.DataCRC != want.DataCRC || got.IndexCRC != want.IndexCRC || got.BloomCRC != want.BloomCRC ||
		string(got.MinKey) != "a" || string(got.MaxKey) != "z" {
		t.Fatalf("table meta did not round-trip: %+v", got)
	}
	if v.NextSSID != 4 {
		t.Fatalf("NextSSID = %d, want 4", v.NextSSID)
	}
	if v.WALEpoch != 3 {
		t.Fatalf("WALEpoch = %d, want 3", v.WALEpoch)
	}
	if v.Checkpoint != "snap/run1" {
		t.Fatalf("Checkpoint = %q, want snap/run1", v.Checkpoint)
	}
	m.Close()
}

// TestManifestNextSSIDSurvivesDelete is the SSID-reuse regression test: the
// allocator floor must not regress when the highest table is deleted, or a
// restart would hand out an SSID whose name collides with stale checkpoint
// manifests and (dir, ssid) reader-cache keys. The old directory-scan
// derivation (max(listed)+1) had exactly this bug.
func TestManifestNextSSIDSurvivesDelete(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}})
	apply(t, m, Edit{Add: []TableMeta{meta(2)}})
	apply(t, m, Edit{Delete: []uint64{2}})
	m.Close()

	m = open(t, cfg)
	defer m.Close()
	v := m.Version()
	if len(v.Tables) != 1 || v.Tables[0].SSID != 1 {
		t.Fatalf("live set = %+v, want just sst 1", v.Tables)
	}
	if v.NextSSID != 3 {
		t.Fatalf("NextSSID = %d after deleting the highest table, want 3 (no reuse)", v.NextSSID)
	}
}

func TestManifestTornTailTruncated(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}})
	apply(t, m, Edit{Add: []TableMeta{meta(2)}})
	m.Close()

	// Tear the last frame mid-payload, as a crash mid-append would.
	raw, err := dev.ReadFile(LogName(cfg.Dir))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if err := dev.WriteFile(LogName(cfg.Dir), raw[:len(raw)-5]); err != nil {
		t.Fatalf("rewrite log: %v", err)
	}

	m = open(t, cfg)
	v := m.Version()
	if len(v.Tables) != 1 || v.Tables[0].SSID != 1 {
		t.Fatalf("live set after torn tail = %+v, want just sst 1", v.Tables)
	}
	// The tail was truncated; appends continue cleanly from the last whole
	// frame.
	apply(t, m, Edit{Add: []TableMeta{meta(5)}})
	m.Close()
	m = open(t, cfg)
	defer m.Close()
	v = m.Version()
	if len(v.Tables) != 2 || v.Tables[1].SSID != 5 {
		t.Fatalf("live set after post-truncation append = %+v, want [1 5]", v.Tables)
	}
}

func TestManifestMidLogCorruption(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}})
	apply(t, m, Edit{Add: []TableMeta{meta(2)}})
	m.Close()

	raw, err := dev.ReadFile(LogName(cfg.Dir))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	raw[frameHeader+2] ^= 0xff // flip a byte inside the first frame's payload
	if err := dev.WriteFile(LogName(cfg.Dir), raw); err != nil {
		t.Fatalf("rewrite log: %v", err)
	}

	if _, err := Open(cfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

// TestManifestLegacyFrameRefused: there is one frame format. A log written in
// the level-less predecessor format (frame kinds 1 and 2) is a loud typed
// error at Open, not a silently re-interpreted version.
func TestManifestLegacyFrameRefused(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	if err := dev.WriteFile(LogName(cfg.Dir), legacyV1Frame()); err != nil {
		t.Fatalf("write log: %v", err)
	}
	if _, err := Open(cfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a V1 frame = %v, want ErrCorrupt", err)
	}
}

func TestManifestRotation(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0", RotateEvery: 4}
	m := open(t, cfg)
	for i := uint64(1); i <= 10; i++ {
		e := Edit{Add: []TableMeta{meta(i)}}
		if i > 1 {
			e.Delete = []uint64{i - 1}
		}
		apply(t, m, e)
	}
	st := m.st
	if st.Rotations.Load() == 0 {
		t.Fatal("no rotation after 10 edits with RotateEvery=4")
	}
	m.Close()

	// The rotated log must be smaller than 10 raw edits and still compose
	// the same version.
	m = open(t, cfg)
	defer m.Close()
	v := m.Version()
	if len(v.Tables) != 1 || v.Tables[0].SSID != 10 || v.NextSSID != 11 {
		t.Fatalf("post-rotation version = %+v, want just sst 10, next 11", v)
	}
}

func TestManifestTornAppendInjection(t *testing.T) {
	dev := newDevice(t)
	inj := faults.New(42)
	inj.Enable(faults.Rule{Point: faults.ManifestTornAppend, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 2})
	cfg := Config{Device: dev, Dir: "db/r0", Inj: inj}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}})
	err := m.Apply(Edit{Add: []TableMeta{meta(2)}})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn append = %v, want ErrInjected", err)
	}
	// The manifest is poisoned — the rank is modelled as dead here.
	if err := m.Apply(Edit{Add: []TableMeta{meta(3)}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after tear = %v, want ErrClosed", err)
	}
	m.Close()

	// Reopen: the torn frame is a tail; only the committed edit survives.
	m = open(t, Config{Device: dev, Dir: "db/r0"})
	defer m.Close()
	v := m.Version()
	if len(v.Tables) != 1 || v.Tables[0].SSID != 1 {
		t.Fatalf("live set after torn append = %+v, want just sst 1", v.Tables)
	}
}

func TestManifestRotateFailInjection(t *testing.T) {
	dev := newDevice(t)
	inj := faults.New(7)
	inj.Enable(faults.Rule{Point: faults.ManifestRotateFail, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 1})
	cfg := Config{Device: dev, Dir: "db/r0", Inj: inj, RotateEvery: 2}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}})
	apply(t, m, Edit{Add: []TableMeta{meta(2)}}) // triggers the failing rotation
	if m.st.RotateErrors.Load() != 1 {
		t.Fatalf("RotateErrors = %d, want 1", m.st.RotateErrors.Load())
	}
	// The failure is non-fatal: the old log is authoritative and appends
	// continue.
	apply(t, m, Edit{Add: []TableMeta{meta(3)}})
	m.Close()

	m = open(t, Config{Device: dev, Dir: "db/r0"})
	defer m.Close()
	if v := m.Version(); len(v.Tables) != 3 {
		t.Fatalf("live set after failed rotation = %+v, want 3 tables", v.Tables)
	}
}

func TestManifestStaleRotateTempIgnored(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}})
	m.Close()
	// A crash between writing log.new and the rename leaves the temp file
	// behind; reopen must ignore (and clear) it.
	if err := dev.WriteFile(newName(cfg.Dir), []byte("half a snapshot")); err != nil {
		t.Fatalf("plant stale temp: %v", err)
	}
	m = open(t, cfg)
	defer m.Close()
	if v := m.Version(); len(v.Tables) != 1 || v.Tables[0].SSID != 1 {
		t.Fatalf("version with stale temp present = %+v, want just sst 1", v.Tables)
	}
	if dev.Exists(newName(cfg.Dir)) {
		t.Fatal("stale log.new survived reopen")
	}
}

func TestManifestDump(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	apply(t, m, Edit{Add: []TableMeta{meta(1)}, WALEpoch: 2})
	apply(t, m, Edit{Add: []TableMeta{meta(2)}, Delete: []uint64{1}, Checkpoint: "snap/x"})
	m.Close()

	raw, err := dev.ReadFile(LogName(cfg.Dir))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	var buf bytes.Buffer
	if err := DumpLog(raw, &buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"add sst 000001", "delete sst 000001", "checkpoint \"snap/x\"",
		"wal-epoch 2", "version: 1 live tables, next-ssid 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output missing %q:\n%s", want, out)
		}
	}
}

// TestManifestDumpLeveled pins the per-level listing `pkvadmin manifest
// dump` relies on: a leveled edit prints its target level on the add line,
// and the composed version groups the live set into per-level runs with L1+
// sorted by MinKey rather than SSID.
func TestManifestDumpLeveled(t *testing.T) {
	dev := newDevice(t)
	cfg := Config{Device: dev, Dir: "db/r0"}
	m := open(t, cfg)
	l1a := meta(4)
	l1a.Level = 1
	l1a.MinKey, l1a.MaxKey = []byte("m"), []byte("r")
	l1b := meta(7)
	l1b.Level = 1
	l1b.MinKey, l1b.MaxKey = []byte("a"), []byte("f")
	apply(t, m, Edit{Add: []TableMeta{meta(9), l1a, l1b}})
	m.Close()

	raw, err := dev.ReadFile(LogName(cfg.Dir))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	var buf bytes.Buffer
	if err := DumpLog(raw, &buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"add sst 000009 L0", "add sst 000004 L1",
		"L0: 1 tables", "L1: 2 tables"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output missing %q:\n%s", want, out)
		}
	}
	// Within L1 the listing is MinKey-sorted: sst 7 [a..f] before sst 4 [m..r].
	if i, j := strings.Index(out, "sst 000007: "), strings.Index(out, "sst 000004: "); i < 0 || j < 0 || i > j {
		t.Fatalf("L1 run not MinKey-sorted (sst7 at %d, sst4 at %d):\n%s", i, j, out)
	}
}
