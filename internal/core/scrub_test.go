package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/manifest"
	"papyruskv/internal/mpi"
	"papyruskv/internal/scrub"
	"papyruskv/internal/sstable"
)

// scrubOpt returns options for deterministic scrub tests: no compaction (the
// live table set must stay exactly what the checkpoint copied), no local
// cache (every get goes down to the SSTable files, so corruption is never
// masked), no background scrub thread (cycles run only when the test calls
// Scrub), no byte budget, and no reclaim prober (a degraded rank heals only
// through the explicit Reclaim call).
func scrubOpt() Options {
	o := smallOpt()
	o.CompactionEvery = 0
	o.LocalCacheCapacity = 0
	o.ScrubInterval = -1
	o.ScrubBytesPerSec = -1
	o.ProbeInterval = -1
	return o
}

func scrubKey(i int) string { return fmt.Sprintf("sk-%04d", i) }

func scrubVal(i, vlen int) string {
	v := fmt.Sprintf("sv-%04d-", i)
	if len(v) < vlen {
		v += strings.Repeat("x", vlen-len(v))
	}
	return v
}

// scrubLoad puts keys [0, n) with vlen-byte values and flushes everything to
// SSTables, so the live version holds every pair.
func scrubLoad(t *testing.T, db *DB, n, vlen int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustPut(t, db, scrubKey(i), scrubVal(i, vlen))
	}
	if err := db.Barrier(LevelSSTable); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
}

// liveTables snapshots the rank's live version, L0 first.
func liveTables(db *DB) []manifest.TableMeta {
	db.sstMu.RLock()
	defer db.sstMu.RUnlock()
	var out []manifest.TableMeta
	for _, lvl := range db.levels {
		out = append(out, lvl...)
	}
	return out
}

// corruptAtRest flips one bit of the named component of a live table on the
// device — bit-rot the next read of those bytes must see — and swaps out the
// view's handle and the cached reader so a stale clean descriptor cannot
// mask it (real decay reaches an open fd's reads too; the harness must not
// be kinder than the hardware).
func corruptAtRest(t *testing.T, db *DB, tbl manifest.TableMeta, file string) {
	t.Helper()
	dir := db.dir(db.rt.rank)
	var name string
	switch file {
	case "data":
		name = sstable.DataName(dir, tbl.SSID)
	case "idx":
		name = sstable.IndexName(dir, tbl.SSID)
	case "bloom":
		name = sstable.BloomName(dir, tbl.SSID)
	default:
		t.Fatalf("unknown component %q", file)
	}
	dev := db.rt.cfg.Device
	data, err := dev.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	data[len(data)/2] ^= 0x04
	if err := dev.WriteFile(name, data); err != nil {
		t.Fatalf("rewrite %s: %v", name, err)
	}
	db.readers.Evict(dir, tbl.SSID)
	db.reopenTable(tbl.SSID)
}

// TestScrubRepairsBitFlips is the tentpole's acceptance path: an at-rest bit
// flip in each component of a cold live SSTable — data, index, bloom — is
// detected by a scrub cycle and repaired from the committed checkpoint
// generation, with zero acked-value loss and the rank still Healthy. Every
// assertion fails without the scrubber: the corrupt files would still
// contradict the manifest and the repair counters would stay zero.
func TestScrubRepairsBitFlips(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scrubfix", scrubOpt())
		if err != nil {
			return err
		}
		const n = 120
		scrubLoad(t, db, n, 100)
		ev, err := db.Checkpoint("scrub-ckpt")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}

		tables := liveTables(db)
		if len(tables) < 3 {
			t.Fatalf("need >= 3 live tables, got %d", len(tables))
		}
		victims := []struct {
			tbl  manifest.TableMeta
			file string
		}{
			{tables[0], "data"},
			{tables[1], "idx"},
			{tables[2], "bloom"},
		}
		dev := db.rt.cfg.Device
		dir := db.dir(rt.Rank())
		for _, v := range victims {
			corruptAtRest(t, db, v.tbl, v.file)
			if _, err := scrub.VerifyTable(dev, dir, v.tbl, nil, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("pre-scrub verify of sst %06d (%s flipped) = %v, want ErrCorrupt", v.tbl.SSID, v.file, err)
			}
		}

		if err := db.Scrub(); err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		m := db.Metrics()
		if got := m.Scrub.Corruptions.Load(); got != 3 {
			t.Errorf("scrub_corruptions = %d, want 3", got)
		}
		if got := m.Scrub.Repairs.Load(); got != 3 {
			t.Errorf("repairs = %d, want 3", got)
		}
		if got := m.Scrub.RepairFailures.Load(); got != 0 {
			t.Errorf("repair_failures = %d, want 0", got)
		}
		if st := db.State(); st != StateHealthy {
			t.Errorf("state after repair = %v, want Healthy", st)
		}
		for _, v := range victims {
			if _, err := scrub.VerifyTable(dev, dir, v.tbl, nil, nil); err != nil {
				t.Errorf("post-repair verify of sst %06d: %v", v.tbl.SSID, err)
			}
		}
		// Zero acked-value loss, and no foreground read ever sees ErrCorrupt.
		for i := 0; i < n; i++ {
			if err := wantGet(db, scrubKey(i), scrubVal(i, 100)); err != nil {
				t.Errorf("after repair: %v", err)
			}
		}
		rep := db.ScrubReport()
		if rep.Cycles != 1 || rep.Repairs != 3 || rep.Corruptions != 3 || len(rep.LostRanges) != 0 {
			t.Errorf("report = %+v, want 1 cycle, 3 corruptions, 3 repairs, no losses", rep)
		}
		// A second cycle over the repaired version is clean.
		if err := db.Scrub(); err != nil {
			t.Fatalf("second Scrub: %v", err)
		}
		if got := m.Scrub.Corruptions.Load(); got != 3 {
			t.Errorf("second cycle found new corruption: %d", got)
		}
		return db.Close()
	})
}

// TestScrubQuarantinesWithoutCheckpoint drives the no-repair-source path: the
// corrupt table is quarantined (manifest delete committed, files preserved as
// evidence), its key range lands in the ScrubReport, the rank degrades to
// read-only through ErrScrubLoss — and every key outside the lost table keeps
// serving, never returning ErrCorrupt.
func TestScrubQuarantinesWithoutCheckpoint(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scrubloss", scrubOpt())
		if err != nil {
			return err
		}
		const n = 120
		scrubLoad(t, db, n, 100)

		tables := liveTables(db)
		if len(tables) < 2 {
			t.Fatalf("need >= 2 live tables, got %d", len(tables))
		}
		lost := tables[0]
		corruptAtRest(t, db, lost, "data")

		err = db.Scrub()
		if !errors.Is(err, ErrScrubLoss) {
			t.Fatalf("Scrub err = %v, want ErrScrubLoss", err)
		}
		if st := db.State(); st != StateDegraded {
			t.Errorf("state = %v, want Degraded", st)
		}
		if herr := db.Health(); !errors.Is(herr, ErrReadOnly) || !errors.Is(herr, ErrScrubLoss) {
			t.Errorf("Health = %v, want ErrReadOnly wrapping ErrScrubLoss", herr)
		}
		if perr := db.Put([]byte("post-loss"), []byte("x")); !errors.Is(perr, ErrReadOnly) {
			t.Errorf("degraded Put err = %v, want ErrReadOnly", perr)
		}

		rep := db.ScrubReport()
		if rep.RepairFailures != 1 || len(rep.LostRanges) != 1 {
			t.Fatalf("report = %+v, want exactly one lost range", rep)
		}
		lr := rep.LostRanges[0]
		if lr.SSID != lost.SSID || !bytes.Equal(lr.MinKey, lost.MinKey) || !bytes.Equal(lr.MaxKey, lost.MaxKey) {
			t.Errorf("lost range %+v does not match table %+v", lr, lost)
		}
		if lr.Entries != lost.Entries {
			t.Errorf("lost entries = %d, want %d", lr.Entries, lost.Entries)
		}
		m := db.Metrics()
		if m.QuarantinedTables.Load() != 1 || m.Scrub.RepairFailures.Load() != 1 {
			t.Errorf("quarantined=%d repair_failures=%d, want 1/1",
				m.QuarantinedTables.Load(), m.Scrub.RepairFailures.Load())
		}
		// The evidence survives under quarantine/, stamped with its base name.
		dev := db.rt.cfg.Device
		dir := db.dir(rt.Rank())
		for _, suffix := range []string{"data", "idx", "bloom"} {
			q := fmt.Sprintf("%s/quarantine/sst-%06d.%s", dir, lost.SSID, suffix)
			if !dev.Exists(q) {
				t.Errorf("quarantined file %s missing", q)
			}
		}

		// Reads over the verified remainder: every key either serves its
		// value or reports clean loss (ErrNotFound) — never ErrCorrupt —
		// and exactly the lost table's entries are gone.
		missing := 0
		for i := 0; i < n; i++ {
			k := scrubKey(i)
			got, gerr := db.Get([]byte(k))
			switch {
			case gerr == nil:
				if string(got) != scrubVal(i, 100) {
					t.Errorf("Get(%s) wrong value", k)
				}
			case errors.Is(gerr, ErrNotFound):
				missing++
				if bytes.Compare([]byte(k), lr.MinKey) < 0 || bytes.Compare([]byte(k), lr.MaxKey) > 0 {
					t.Errorf("key %s lost outside the reported range [%q, %q]", k, lr.MinKey, lr.MaxKey)
				}
			default:
				t.Errorf("Get(%s) err = %v after quarantine", k, gerr)
			}
		}
		if missing != int(lost.Entries) {
			t.Errorf("%d keys missing, want exactly the quarantined table's %d", missing, lost.Entries)
		}

		// The operator accepts the loss: Reclaim heals, writes resume.
		if err := db.Reclaim(); err != nil {
			t.Fatalf("Reclaim: %v", err)
		}
		waitState(t, db, StateHealthy, 5*time.Second)
		mustPut(t, db, "post-heal", "y")
		if err := db.Scrub(); err != nil {
			t.Errorf("post-heal Scrub: %v", err)
		}
		return db.Close()
	})
}

// TestScrubRepairFailInjection arms the scrub.repair-fail point: a valid
// checkpoint copy exists, but the copy-back fails, so the ladder must fall
// through to quarantine + degrade and account the injected cause.
func TestScrubRepairFailInjection(t *testing.T) {
	inj := faults.New(0xD00F)
	inj.Enable(faults.Rule{
		Point: faults.ScrubRepairFail, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 1,
	})
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scrubrfail", scrubOpt())
		if err != nil {
			return err
		}
		scrubLoad(t, db, 80, 100)
		ev, err := db.Checkpoint("rfail-ckpt")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}

		tables := liveTables(db)
		corruptAtRest(t, db, tables[0], "data")
		if err := db.Scrub(); !errors.Is(err, ErrScrubLoss) {
			t.Fatalf("Scrub err = %v, want ErrScrubLoss despite the checkpoint", err)
		}
		if got := inj.Fired(faults.ScrubRepairFail); got != 1 {
			t.Errorf("repair-fail firings = %d, want 1", got)
		}
		if st := db.State(); st != StateDegraded {
			t.Errorf("state = %v, want Degraded", st)
		}
		rep := db.ScrubReport()
		if rep.Repairs != 0 || rep.RepairFailures != 1 || len(rep.LostRanges) != 1 {
			t.Fatalf("report = %+v, want one failed repair, no successes", rep)
		}
		if !strings.Contains(rep.LostRanges[0].Cause, "injected") {
			t.Errorf("lost-range cause %q does not name the injected copy-back failure", rep.LostRanges[0].Cause)
		}

		// The injection was Count-bounded: after healing, the next incident
		// repairs fine from the same checkpoint.
		if err := db.Reclaim(); err != nil {
			t.Fatalf("Reclaim: %v", err)
		}
		waitState(t, db, StateHealthy, 5*time.Second)
		corruptAtRest(t, db, tables[1], "data")
		if err := db.Scrub(); err != nil {
			t.Fatalf("post-heal Scrub: %v", err)
		}
		if got := db.Metrics().Scrub.Repairs.Load(); got != 1 {
			t.Errorf("repairs = %d, want 1 once the injection cleared", got)
		}
		return db.Close()
	})
}

// TestScrubBitRotInjectionPoint exercises the scrub.bit-rot point end to end:
// the injector decays one table at rest mid-cycle, and the same cycle must
// detect and repair it.
func TestScrubBitRotInjectionPoint(t *testing.T) {
	inj := faults.New(0xB17F11)
	inj.Enable(faults.Rule{
		Point: faults.ScrubBitRot, Rank: faults.AnyRank, Tag: faults.AnyTag, Count: 1,
	})
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scrubrot", scrubOpt())
		if err != nil {
			return err
		}
		const n = 80
		scrubLoad(t, db, n, 100)
		ev, err := db.Checkpoint("rot-ckpt")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}

		if err := db.Scrub(); err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		if got := inj.Fired(faults.ScrubBitRot); got != 1 {
			t.Fatalf("bit-rot firings = %d, want 1", got)
		}
		m := db.Metrics()
		if m.Scrub.Corruptions.Load() != 1 || m.Scrub.Repairs.Load() != 1 {
			t.Errorf("corruptions=%d repairs=%d, want 1/1",
				m.Scrub.Corruptions.Load(), m.Scrub.Repairs.Load())
		}
		if st := db.State(); st != StateHealthy {
			t.Errorf("state = %v, want Healthy", st)
		}
		for i := 0; i < n; i++ {
			if err := wantGet(db, scrubKey(i), scrubVal(i, 100)); err != nil {
				t.Errorf("after injected rot: %v", err)
			}
		}
		return db.Close()
	})
}

// TestScrubRepairsUnderOpenScan: an open iterator is no reason for the
// scrubber to look away. Bloom rot on a table the iterator reads is found
// and dealt with in the same cycle, and the iterator still walks its whole
// snapshot: a repair writes new files its open data handles never see, and
// a table quarantined without a repair source leaves the version at once
// but keeps its files in place until the iterator closes, when they move
// into quarantine/.
func TestScrubRepairsUnderOpenScan(t *testing.T) {
	const n = 80
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{{"repair", true}, {"quarantine", false}} {
		t.Run(tc.name, func(t *testing.T) {
			runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
				db, err := rt.Open("scrubscan", scrubOpt())
				if err != nil {
					return err
				}
				scrubLoad(t, db, n, 100)
				if tc.checkpoint {
					ev, err := db.Checkpoint("scan-ckpt")
					if err == nil {
						err = ev.Wait()
					}
					if err != nil {
						return err
					}
				}

				it, err := db.NewIterator(nil, nil)
				if err != nil {
					return err
				}
				// The iterator never reads bloom files, so the rot cannot
				// reach it whichever way the scrub goes.
				rotten := liveTables(db)[0]
				corruptAtRest(t, db, rotten, "bloom")
				err = db.Scrub()
				m := db.Metrics()
				if tc.checkpoint {
					if err != nil {
						t.Errorf("Scrub under an open scan: %v", err)
					}
					if m.Scrub.Corruptions.Load() != 1 || m.Scrub.Repairs.Load() != 1 {
						t.Errorf("corruptions=%d repairs=%d, want 1/1 in the same cycle",
							m.Scrub.Corruptions.Load(), m.Scrub.Repairs.Load())
					}
					if st := db.State(); st != StateHealthy {
						t.Errorf("state = %v, want Healthy", st)
					}
				} else {
					if !errors.Is(err, ErrScrubLoss) {
						t.Errorf("Scrub err = %v, want ErrScrubLoss", err)
					}
					if db.tableLive(rotten.SSID) {
						t.Errorf("quarantined table %d is still in the version", rotten.SSID)
					}
					wantTableFiles(t, db, []uint64{rotten.SSID}, 3, "iterator open")
				}

				seen := 0
				for it.Next() {
					if string(it.Key()) != scrubKey(seen) || string(it.Value()) != scrubVal(seen, 100) {
						t.Errorf("scan entry %d = %q mismatched", seen, it.Key())
					}
					seen++
				}
				if err := it.Err(); err != nil {
					t.Errorf("iterator err: %v", err)
				}
				if seen != n {
					t.Errorf("scan saw %d of %d entries", seen, n)
				}
				if err := it.Close(); err != nil {
					t.Errorf("iterator close: %v", err)
				}
				if !tc.checkpoint {
					wantTableFiles(t, db, []uint64{rotten.SSID}, 0, "iterator closed")
					dev := db.rt.cfg.Device
					for _, suffix := range []string{"data", "idx", "bloom"} {
						q := fmt.Sprintf("%s/quarantine/sst-%06d.%s", db.ownDir, rotten.SSID, suffix)
						if !dev.Exists(q) {
							t.Errorf("quarantined file %s missing after the iterator closed", q)
						}
					}
				}
				if _, pins, doomed := db.viewStats(); pins != 0 || doomed != 0 {
					t.Errorf("after close: %d view pins, %d doomed tables pending; want none", pins, doomed)
				}
				if !tc.checkpoint {
					if err := db.Reclaim(); err != nil { // accept the loss, so Close can flush
						t.Errorf("Reclaim: %v", err)
					}
					waitState(t, db, StateHealthy, 5*time.Second)
				}
				return db.Close()
			})
		})
	}
}

// TestScrubRateLimit: a cycle over B bytes with a budget of R bytes/sec must
// take at least about (B - burst)/R — the token bucket holds one second of
// burst — so a background pass cannot monopolise device bandwidth.
func TestScrubRateLimit(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		const rate = 64 << 10
		o := scrubOpt()
		o.MemTableCapacity = 16 << 10
		o.ScrubBytesPerSec = rate
		db, err := rt.Open("scrubrate", o)
		if err != nil {
			return err
		}
		scrubLoad(t, db, 400, 512)

		m := db.Metrics()
		start := time.Now()
		if err := db.Scrub(); err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		elapsed := time.Since(start)
		read := m.Scrub.Bytes.Load()
		if read < 3*rate {
			t.Fatalf("cycle read only %d bytes; the test needs > 3 seconds of budget to measure pacing", read)
		}
		// Tokens banked before the cycle are capped at one second of budget;
		// halve the bound to keep slow CI out of the flake zone.
		minWait := time.Duration(float64(read-rate) / float64(rate) * float64(time.Second) / 2)
		if elapsed < minWait {
			t.Errorf("cycle over %d bytes at %d B/s took %v, want >= %v", read, int64(rate), elapsed, minWait)
		}
		return db.Close()
	})
}

// TestScrubQuarantineNameCollision is the regression test for the quarantine
// stamp: repeated incidents quarantining the same base name must preserve
// every piece of evidence instead of clobbering the earlier one.
func TestScrubQuarantineNameCollision(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scrubqcol", scrubOpt())
		if err != nil {
			return err
		}
		dev := db.rt.cfg.Device
		dir := db.dir(rt.Rank())
		const base = "sst-000777.data"
		payloads := []string{"incident-0", "incident-1", "incident-2"}
		var names []string
		for i, p := range payloads {
			src := fmt.Sprintf("%s/pending-%d", dir, i)
			if err := dev.WriteFile(src, []byte(p)); err != nil {
				return err
			}
			qn := db.quarantineName(dir, base)
			if err := dev.Rename(src, qn); err != nil {
				return err
			}
			names = append(names, qn)
		}
		want := []string{
			dir + "/quarantine/" + base,
			dir + "/quarantine/" + base + ".1",
			dir + "/quarantine/" + base + ".2",
		}
		for i, w := range want {
			if names[i] != w {
				t.Errorf("quarantine name %d = %q, want %q", i, names[i], w)
			}
			got, err := dev.ReadFile(names[i])
			if err != nil || string(got) != payloads[i] {
				t.Errorf("evidence %d = %q, %v; want %q preserved", i, got, err, payloads[i])
			}
		}
		return db.Close()
	})
}

// TestSoakScrub is the `make scrub` soak: rounds of load → checkpoint → scrub
// with periodic at-rest bit-rot injected, puts racing the cycles. With a
// checkpoint covering every live table, the invariant is zero acked-value
// loss: every repair succeeds and the rank never leaves Healthy.
func TestSoakScrub(t *testing.T) {
	inj := faults.New(0x50AC)
	inj.Enable(faults.Rule{
		Point: faults.ScrubBitRot, Rank: faults.AnyRank, Tag: faults.AnyTag,
		Count: 2, Every: 3, Fires: 8,
	})
	o := scrubOpt()
	o.MemTableCapacity = 64 << 10 // racing puts stay in the MemTable mid-cycle
	const rounds, perRound = 6, 40
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("scrubsoak", o)
		if err != nil {
			return err
		}
		acked := 0
		for r := 0; r < rounds; r++ {
			for i := 0; i < perRound; i++ {
				mustPut(t, db, scrubKey(acked), scrubVal(acked, 100))
				acked++
			}
			if err := db.Barrier(LevelSSTable); err != nil {
				return err
			}
			ev, err := db.Checkpoint("soak-ckpt")
			if err != nil {
				return err
			}
			if err := ev.Wait(); err != nil {
				return err
			}
			// Foreground load races the cycle; these puts are acked before
			// the round ends and flushed (then checkpointed) next round.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < perRound; i++ {
					mustPut(t, db, scrubKey(acked+i), scrubVal(acked+i, 100))
				}
			}()
			if err := db.Scrub(); err != nil {
				t.Fatalf("round %d Scrub: %v", r, err)
			}
			<-done
			acked += perRound
		}

		if st := db.State(); st != StateHealthy {
			t.Errorf("state = %v, want Healthy through the whole soak", st)
		}
		rep := db.ScrubReport()
		fired := inj.Fired(faults.ScrubBitRot)
		if fired == 0 {
			t.Fatal("the soak injected no bit-rot; the schedule is broken")
		}
		if rep.Repairs != fired || rep.RepairFailures != 0 {
			t.Errorf("repairs=%d repair_failures=%d, want %d/0 (one repair per injected rot)",
				rep.Repairs, rep.RepairFailures, fired)
		}
		for i := 0; i < acked; i++ {
			if err := wantGet(db, scrubKey(i), scrubVal(i, 100)); err != nil {
				t.Errorf("acked value lost: %v", err)
			}
		}
		return db.Close()
	})
}
