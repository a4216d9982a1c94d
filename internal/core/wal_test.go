package core

import (
	"errors"
	"fmt"
	"io/fs"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/wal"
)

// walOpt is faultOpt with a MemTable too large to roll: every put stays
// unflushed, so only the write-ahead log stands between an acknowledged put
// and a rank kill.
func walOpt(mode WALMode) Options {
	o := faultOpt()
	o.MemTableCapacity = 1 << 20
	o.WAL = mode
	return o
}

// walBytes sums the on-device sizes of db's WAL segments.
func walBytes(t *testing.T, dev *nvm.Device, dir string) int64 {
	t.Helper()
	names, err := dev.List(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		sz, err := dev.FileSize(n)
		if err != nil {
			// A segment listed a moment ago may be garbage-collected by the
			// flush thread before the stat — the very deletion the bound
			// relies on. Gone means zero bytes.
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			t.Fatal(err)
		}
		total += sz
	}
	return total
}

// TestWALKillBeforeFlushRecoversAckedPuts is the PR's acceptance scenario:
// a rank is killed after acknowledging puts but before any flush, the
// world closes, and a reopen of the same database serves every acked key —
// the victim's from WAL replay alone, since its flush was skipped. Run
// under -race. Without the WAL (see TestWALDisabledLosesUnflushed for the
// deliberate counterfactual) the victim's keys would be gone.
func TestWALKillBeforeFlushRecoversAckedPuts(t *testing.T) {
	const victim = 1
	inj := faults.New(0x4a11)
	opt := walOpt(WALSync)
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walkill", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, rt.Rank(), 20)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		if rt.Rank() == victim {
			inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: victim, Count: 1, Fires: 1})
			if err := db.Put([]byte("unacked"), []byte("x")); !errors.Is(err, ErrRankFailed) {
				t.Errorf("trigger Put err = %v, want ErrRankFailed", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Collective Close: the victim skips its flush (its MemTable dies
		// with it) and abandons its WAL buffer — but in WALSync mode every
		// acknowledged put is already on the device.
		closeErr := db.Close()
		if rt.Rank() == victim {
			if !errors.Is(closeErr, ErrRankFailed) {
				t.Errorf("victim Close err = %v, want ErrRankFailed", closeErr)
			}
			inj.Disable(faults.CoreKill)
		} else if closeErr != nil {
			t.Errorf("healthy rank Close: %v", closeErr)
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		db2, err := rt.Open("walkill", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if err := db2.Health(); err != nil {
			t.Errorf("rank %d unhealthy after reopen: %v", rt.Rank(), err)
		}
		for _, k := range keys {
			if err := wantGet(db2, string(k), string(val(k))); err != nil {
				t.Errorf("rank %d lost an acked put: %v", rt.Rank(), err)
			}
		}
		if rt.Rank() == victim {
			if n := db2.Metrics().WAL.RecordsRecovered.Load(); n < 20 {
				t.Errorf("victim replayed %d WAL records, want >= 20 (its keys can only have come from the log)", n)
			}
		}
		return db2.Close()
	})
	if inj.Fired(faults.CoreKill) != 1 {
		t.Fatalf("CoreKill fired %d times, want 1 — injection log:\n%v", inj.Fired(faults.CoreKill), inj.Log())
	}
}

// TestWALRemoteStreamSurvivesKill: relaxed-mode puts acknowledged by the
// writer but not yet migrated to their owner live only in the writer's
// remote WAL stream. A kill and reopen replays them into the remote
// MemTable, and the next Fence delivers them — the durability promise
// covers staged pairs, not just locally-owned ones.
func TestWALRemoteStreamSurvivesKill(t *testing.T) {
	const writer = 1
	inj := faults.New(0x4a12)
	opt := walOpt(WALSync)
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walremote", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 10) // owned by rank 0, put by rank 1
		if rt.Rank() == writer {
			for _, k := range keys {
				mustPut(t, db, string(k), string(val(k)))
			}
			inj.Enable(faults.Rule{Point: faults.CoreKill, Rank: writer, Count: 1, Fires: 1})
			if err := db.Put([]byte("trigger"), []byte("x")); !errors.Is(err, ErrRankFailed) {
				t.Errorf("trigger Put err = %v, want ErrRankFailed", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		closeErr := db.Close()
		if rt.Rank() == writer {
			if !errors.Is(closeErr, ErrRankFailed) {
				t.Errorf("writer Close err = %v, want ErrRankFailed", closeErr)
			}
			inj.Disable(faults.CoreKill)
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		db2, err := rt.Open("walremote", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if rt.Rank() == writer {
			// The replayed pairs sit in the remote MemTable; Fence pushes
			// them to their owner like any staged put.
			if err := db2.Fence(); err != nil {
				t.Errorf("Fence of replayed remote pairs: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			for _, k := range keys {
				if err := wantGet(db2, string(k), string(val(k))); err != nil {
					t.Errorf("staged pair lost across the kill: %v", err)
				}
			}
		}
		return db2.Close()
	})
}

// TestWALTornTailRecoversPrefix: a torn append (the device lies: reports
// success but persists only a prefix, as a crash mid-append does) costs
// exactly the puts from the tear onward. The prefix — every put whose
// frames reached the device whole — survives reopen.
func TestWALTornTailRecoversPrefix(t *testing.T) {
	const tearAt = 5 // 1-based put index whose commit tears
	inj := faults.New(0x7042).Enable(faults.Rule{
		Point: faults.WALTornAppend, Rank: faults.AnyRank, Count: tearAt, Fires: 1,
	})
	opt := walOpt(WALSync)
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("waltorn", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 10)
		for _, k := range keys {
			// Every put is acknowledged — the tear is silent, like the
			// write a crashed rank never got to the device.
			mustPut(t, db, string(k), string(val(k)))
		}
		// Model the crash: fail the rank so Close skips the flush that
		// would otherwise rescue the MemTable into an SSTable.
		db.Fail(errors.New("simulated crash"))
		if err := db.Close(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Close err = %v, want ErrRankFailed", err)
		}

		db2, err := rt.Open("waltorn", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		for i, k := range keys {
			if i < tearAt-1 {
				if err := wantGet(db2, string(k), string(val(k))); err != nil {
					t.Errorf("pre-tear put %d lost: %v", i, err)
				}
			} else if err := wantMissing(db2, string(k)); err != nil {
				t.Errorf("post-tear put %d: %v (nothing past the tear reached the device)", i, err)
			}
		}
		if n := db2.Metrics().WAL.RecordsRecovered.Load(); n != tearAt-1 {
			t.Errorf("RecordsRecovered = %d, want %d", n, tearAt-1)
		}
		return db2.Close()
	})
	if inj.Fired(faults.WALTornAppend) != 1 {
		t.Fatalf("torn append fired %d times, want 1", inj.Fired(faults.WALTornAppend))
	}
}

// TestWALAsyncBoundedLoss: in WALAsync mode a crash loses at most the puts
// since the last group commit — no more, and crucially nothing that a
// group commit already persisted.
func TestWALAsyncBoundedLoss(t *testing.T) {
	opt := walOpt(WALAsync)
	opt.WALFlushInterval = 3600e9 // the ticker never fires; commits are explicit
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walasync", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 20)
		committed, window := keys[:10], keys[10:]
		for _, k := range committed {
			mustPut(t, db, string(k), string(val(k)))
		}
		// The group-commit boundary: everything above is now on the device.
		if err := db.wal.Load().local.GroupCommit(); err != nil {
			return err
		}
		for _, k := range window {
			mustPut(t, db, string(k), string(val(k)))
		}
		db.Fail(errors.New("simulated crash"))
		if err := db.Close(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Close err = %v, want ErrRankFailed", err)
		}

		db2, err := rt.Open("walasync", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		for _, k := range committed {
			if err := wantGet(db2, string(k), string(val(k))); err != nil {
				t.Errorf("group-committed put lost: %v", err)
			}
		}
		for _, k := range window {
			if err := wantMissing(db2, string(k)); err != nil {
				t.Errorf("put inside the loss window: %v", err)
			}
		}
		return db2.Close()
	})
}

// TestPutDoesNotWaitForGroupCommit: while a group commit is inside a slow
// device write, a local put appends into the log's other buffer instead of
// waiting for it under db.mu, so neither that put nor a MemTable-hit get
// racing it stalls behind the write.
func TestPutDoesNotWaitForGroupCommit(t *testing.T) {
	opt := walOpt(WALAsync)
	opt.WALFlushInterval = 3600e9 // the ticker never fires; the commit is explicit
	slow := nvm.PerfModel{WriteLatency: 50 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 1, nvmModel: slow}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walstall", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 2)
		hit, put := keys[0], keys[1]
		mustPut(t, db, string(hit), string(val(hit)))
		done := make(chan error, 1)
		go func() { done <- db.wal.Load().local.GroupCommit() }()
		// The group commit is 10 ms into its 50 ms write when the put and
		// the get start, and must still be in it when they end.
		time.Sleep(10 * time.Millisecond)
		putTook := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			mustPut(t, db, string(put), string(val(put)))
			putTook <- time.Since(start)
		}()
		time.Sleep(time.Millisecond) // let the put reach db.mu first
		start := time.Now()
		if err := wantGet(db, string(hit), string(val(hit))); err != nil {
			return err
		}
		getTook := time.Since(start)
		if d := <-putTook; d >= 5*time.Millisecond {
			t.Errorf("put took %v behind an in-flight group commit", d)
		}
		if getTook >= 5*time.Millisecond {
			t.Errorf("MemTable-hit get took %v behind an in-flight group commit", getTook)
		}
		select {
		case <-done:
			return errors.New("the group commit finished before the put and get: nothing overlapped")
		default:
		}
		if err := <-done; err != nil {
			return err
		}
		if err := wantGet(db, string(put), string(val(put))); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestWALDisabledLosesUnflushed is the deliberate counterfactual for the
// acceptance scenario: with the log off, the same kill-before-flush loses
// every unflushed put. It pins down both what WALDisabled means and what
// the WAL is for.
func TestWALDisabledLosesUnflushed(t *testing.T) {
	opt := walOpt(WALDisabled)
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("waloff", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 10)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		db.Fail(errors.New("simulated crash"))
		if err := db.Close(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Close err = %v, want ErrRankFailed", err)
		}
		db2, err := rt.Open("waloff", opt)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		for _, k := range keys {
			if err := wantMissing(db2, string(k)); err != nil {
				t.Errorf("%v (with the WAL disabled, unflushed puts must be gone)", err)
			}
		}
		return db2.Close()
	})
}

// TestWALCheckpointRestartClearsSegments: a Restart restores the
// checkpoint image and nothing else — WAL segments holding post-checkpoint
// records are cleared, not replayed, so the restored state is exactly the
// snapshot.
func TestWALCheckpointRestartClearsSegments(t *testing.T) {
	opt := walOpt(WALSync)
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walckpt", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 20)
		snapshotted, after := keys[:10], keys[10:]
		for _, k := range snapshotted {
			mustPut(t, db, string(k), string(val(k)))
		}
		ev, err := db.Checkpoint("walsnap")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		for _, k := range after {
			mustPut(t, db, string(k), string(val(k)))
		}
		// Crash with post-checkpoint records live in the WAL segments.
		db.Fail(errors.New("simulated crash"))
		if err := db.Close(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Close err = %v, want ErrRankFailed", err)
		}

		db2, ev2, err := rt.Restart("walsnap", "walckpt", opt, false)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if err := ev2.Wait(); err != nil {
			return fmt.Errorf("restart transfer: %w", err)
		}
		for _, k := range snapshotted {
			if err := wantGet(db2, string(k), string(val(k))); err != nil {
				t.Errorf("checkpointed key lost: %v", err)
			}
		}
		for _, k := range after {
			if err := wantMissing(db2, string(k)); err != nil {
				t.Errorf("%v (a restart restores the snapshot, not the stale WAL)", err)
			}
		}
		return db2.Close()
	})
}

// TestWALBytesBounded: segments are deleted as their MemTables' flushes
// commit, so steady-state on-device WAL bytes stay bounded by the MemTable
// budget — the log cannot grow with the write volume.
func TestWALBytesBounded(t *testing.T) {
	opt := faultOpt() // 2KB MemTable: plenty of rolls
	opt.WAL = WALSync
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walbound", opt)
		if err != nil {
			return err
		}
		dev := rt.cfg.Device
		dir := db.dir(0)
		// Generous bound: the active segment plus every sealed-but-unflushed
		// segment admission control lets pile up (StallSoftDepth), with
		// framing overhead headroom.
		bound := int64(opt.withDefaults().StallSoftDepth+1) * int64(opt.MemTableCapacity) * 4
		var maxSeen int64
		for _, k := range ownKeys(db, 0, 400) {
			mustPut(t, db, string(k), string(val(k)))
			if b := walBytes(t, dev, dir); b > maxSeen {
				maxSeen = b
			}
		}
		if maxSeen == 0 {
			t.Error("WAL bytes never rose: the log is not being written")
		}
		if maxSeen > bound {
			t.Errorf("WAL grew to %d bytes, bound %d — segments are not being garbage-collected", maxSeen, bound)
		}
		// Quiesced, everything flushed: only (empty) active segments remain.
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if b := walBytes(t, dev, dir); b > int64(opt.MemTableCapacity) {
			t.Errorf("WAL still holds %d bytes after full flush, want < one MemTable", b)
		}
		for _, k := range ownKeys(db, 0, 400) {
			if err := wantGet(db, string(k), string(val(k))); err != nil {
				t.Errorf("%v", err)
				break
			}
		}
		return db.Close()
	})
}

// TestWALSyncErrorFailsDomain: a failed WAL fsync means the rank can no
// longer keep its durability promise; the put that needed it reports
// ErrRankFailed with the injected root cause, and the domain stays failed.
func TestWALSyncErrorFailsDomain(t *testing.T) {
	inj := faults.New(0x5e77).Enable(faults.Rule{
		Point: faults.WALSyncError, Rank: faults.AnyRank, Count: 1, Fires: 1,
	})
	opt := walOpt(WALSync)
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walsyncerr", opt)
		if err != nil {
			return err
		}
		k := ownKeys(db, 0, 1)[0]
		err = db.Put(k, val(k))
		if !errors.Is(err, ErrRankFailed) || !errors.Is(err, faults.ErrInjected) {
			t.Errorf("Put err = %v, want ErrRankFailed wrapping the injected sync error", err)
		}
		if err := db.Health(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Health = %v, want ErrRankFailed", err)
		}
		if err := db.Close(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Close err = %v, want ErrRankFailed", err)
		}
		return nil
	})
	if inj.Fired(faults.WALSyncError) != 1 {
		t.Fatalf("sync error fired %d times, want 1", inj.Fired(faults.WALSyncError))
	}
}

// TestWALDeviceFullRootCause: ENOSPC on a WAL write is resource exhaustion,
// not damage — the rank degrades to read-only instead of failing. The put
// reports typed ErrReadOnly carrying nvm.ErrNoSpace as the root cause, and
// once the device accepts writes again Reclaim heals the rank back to
// Healthy, writes flow, and Close is clean.
func TestWALDeviceFullRootCause(t *testing.T) {
	inj := faults.New(0xe205).Enable(faults.Rule{
		Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Where: "wal/", Count: 1, Fires: 1,
	})
	opt := walOpt(WALSync)
	opt.ProbeInterval = -1 // reclaim only via the explicit call, deterministically
	runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walfull", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 2)
		err = db.Put(keys[0], val(keys[0]))
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("Put err = %v, want ErrReadOnly", err)
		}
		if !errors.Is(err, nvm.ErrNoSpace) {
			t.Errorf("Put err = %v does not carry the typed ErrNoSpace root cause", err)
		}
		if err := db.Health(); !errors.Is(err, ErrReadOnly) || !errors.Is(err, nvm.ErrNoSpace) {
			t.Errorf("Health = %v, want ErrReadOnly with the full device as root cause", err)
		}
		if st := db.State(); st != StateDegraded {
			t.Errorf("State = %v, want %v", st, StateDegraded)
		}
		// The injected ENOSPC cleared after one firing — as if space was
		// freed — so the application's reclaim hook heals the rank.
		if err := db.Reclaim(); err != nil {
			return fmt.Errorf("Reclaim: %w", err)
		}
		if st := db.State(); st != StateHealthy {
			t.Errorf("State after reclaim = %v, want %v", st, StateHealthy)
		}
		if err := db.Put(keys[1], val(keys[1])); err != nil {
			return fmt.Errorf("Put after reclaim: %w", err)
		}
		got, err := db.Get(keys[1])
		if err != nil || string(got) != string(val(keys[1])) {
			t.Errorf("Get after reclaim = %q, %v", got, err)
		}
		return db.Close()
	})
	if inj.Fired(faults.NVMWriteNoSpace) != 1 {
		t.Fatalf("ENOSPC fired %d times, want 1", inj.Fired(faults.NVMWriteNoSpace))
	}
}

// TestWALCorruptSegmentFailsDomain: mid-log corruption found at Open —
// a complete frame whose checksum is wrong — cannot be served from. The
// collective Open still succeeds (the world stays aligned) but the owning
// rank's domain is failed with the typed wal.ErrCorrupt root cause.
func TestWALCorruptSegmentFailsDomain(t *testing.T) {
	opt := walOpt(WALSync)
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("walcorrupt", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 5)
		for _, k := range keys {
			mustPut(t, db, string(k), string(val(k)))
		}
		db.Fail(errors.New("simulated crash")) // keep the segments on device
		if err := db.Close(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Close err = %v, want ErrRankFailed", err)
		}

		// Flip one byte inside the first complete frame of the surviving
		// local segment.
		dev := rt.cfg.Device
		names, err := dev.List(db.dir(0) + "/wal")
		if err != nil {
			return err
		}
		var seg string
		for _, n := range names {
			if sz, _ := dev.FileSize(n); sz > 0 {
				seg = n
				break
			}
		}
		if seg == "" {
			t.Fatalf("no non-empty WAL segment survived the crash: %v", names)
		}
		data, err := dev.ReadFile(seg)
		if err != nil {
			return err
		}
		data[10] ^= 0x04 // in the first frame's payload: CRC now fails
		if err := dev.WriteFile(seg, data); err != nil {
			return err
		}

		db2, err := rt.Open("walcorrupt", opt)
		if err != nil {
			return fmt.Errorf("collective Open must survive one rank's corrupt log: %w", err)
		}
		herr := db2.Health()
		if !errors.Is(herr, ErrRankFailed) || !errors.Is(herr, wal.ErrCorrupt) {
			t.Errorf("Health = %v, want ErrRankFailed wrapping wal.ErrCorrupt", herr)
		}
		if err := db2.Put(keys[0], val(keys[0])); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Put on corrupt-log rank err = %v, want ErrRankFailed", err)
		}
		db2.Close()
		return nil
	})
}

// TestRollDoesNotWaitForGroupCommit is TestPutDoesNotWaitForGroupCommit's
// twin for MemTable rolls: a WAL rotation only cuts the log's block chain,
// so a put that seals the MemTable, a migration batch that seals the
// owner's table mid-batch, and a MemTable-hit get each finish while the
// group commit is inside a 50 ms device write.
func TestRollDoesNotWaitForGroupCommit(t *testing.T) {
	opt := walOpt(WALAsync)
	opt.MemTableCapacity = 4 << 10
	opt.WALFlushInterval = 3600e9 // the ticker never fires; the commit is explicit
	slow := nvm.PerfModel{WriteLatency: 50 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 1, nvmModel: slow}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("rollstall", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 10)
		hit, roll, batch := keys[0], keys[1], keys[2:]
		mustPut(t, db, string(hit), string(val(hit)))
		big := func(k []byte) []byte { return append(val(k), make([]byte, 1<<10)...) }
		entries := make([]memtable.Entry, len(batch))
		for i, k := range batch {
			entries[i] = memtable.Entry{Key: k, Value: big(k)}
		}
		msg := mpi.Message{Source: 0, Data: seqFrame(1<<40, db.incarnation.Load(), entries)}
		rolls := db.metrics.Flushes.Load()

		done := make(chan error, 1)
		go func() { done <- db.wal.Load().local.GroupCommit() }()
		// The group commit is 10 ms into its 50 ms write when the roll,
		// the get and the batch start, and must still be in it when they
		// end.
		time.Sleep(10 * time.Millisecond)
		putTook := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			// One value as large as the MemTable: its insert seals it.
			mustPut(t, db, string(roll), string(append(val(roll), make([]byte, opt.MemTableCapacity)...)))
			putTook <- time.Since(start)
		}()
		time.Sleep(time.Millisecond) // let the put reach db.mu first
		start := time.Now()
		if err := wantGet(db, string(hit), string(val(hit))); err != nil {
			return err
		}
		getTook := time.Since(start)
		if d := <-putTook; d >= 5*time.Millisecond {
			t.Errorf("put that sealed the MemTable took %v behind an in-flight group commit", d)
		}
		if getTook >= 5*time.Millisecond {
			t.Errorf("MemTable-hit get took %v behind an in-flight group commit", getTook)
		}
		start = time.Now()
		db.handleBatch(msg, true)
		if d := time.Since(start); d >= 5*time.Millisecond {
			t.Errorf("migration batch that sealed the MemTable took %v behind an in-flight group commit", d)
		}
		select {
		case <-done:
			return errors.New("the group commit finished before the roll, get and batch: nothing overlapped")
		default:
		}
		if err := <-done; err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if n := db.metrics.Flushes.Load() - rolls; n < 2 {
			t.Errorf("%d flushes, want the put's roll and at least one mid-batch roll", n)
		}
		for _, k := range batch {
			if err := wantGet(db, string(k), string(big(k))); err != nil {
				t.Error(err)
			}
		}
		return db.Close()
	})
}

// TestWALWriteNoSpaceAtCutDegrades: an ENOSPC while a deferred cut's
// blocks are written — by the commit of the put that sealed the segment,
// or by Remove writing a still-buffered segment through before it unlinks
// it — degrades the rank to read-only; it does not fail it. Reclaim heals
// it, and every acked pair survives a reopen.
func TestWALWriteNoSpaceAtCutDegrades(t *testing.T) {
	for _, mode := range []WALMode{WALSync, WALAsync} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			inj := faults.New(0xc07)
			opt := walOpt(mode)
			opt.MemTableCapacity = 4 << 10
			opt.WALFlushInterval = 3600e9 // WALAsync: only Remove writes the cut through
			opt.ProbeInterval = -1        // reclaim only via the explicit call
			runCluster(t, clusterSpec{ranks: 1, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
				db, err := rt.Open("walcutfull", opt)
				if err != nil {
					return err
				}
				keys := ownKeys(db, 0, 4)
				mustPut(t, db, string(keys[0]), string(val(keys[0])))
				inj.Enable(faults.Rule{Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Where: "wal/local-", Count: 1, Fires: 1})
				// One value as large as the MemTable: its insert seals it.
				sealing := append(val(keys[1]), make([]byte, opt.MemTableCapacity)...)
				err = db.Put(keys[1], sealing)
				if mode == WALSync && !errors.Is(err, ErrReadOnly) {
					t.Errorf("sealing put under WALSync = %v, want ErrReadOnly", err)
				}
				if mode == WALAsync && err != nil {
					t.Errorf("sealing put under WALAsync = %v, want nil", err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for db.State() == StateHealthy && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if st := db.State(); st != StateDegraded {
					return fmt.Errorf("State = %v after an ENOSPC at the cut, want %v", st, StateDegraded)
				}
				if err := db.Health(); !errors.Is(err, nvm.ErrNoSpace) {
					t.Errorf("Health = %v, want the full device as root cause", err)
				}
				if err := db.Reclaim(); err != nil {
					return fmt.Errorf("Reclaim: %w", err)
				}
				mustPut(t, db, string(keys[2]), string(val(keys[2])))
				if err := db.Barrier(LevelSSTable); err != nil {
					return err
				}
				mustPut(t, db, string(keys[3]), string(val(keys[3])))
				if err := db.Close(); err != nil {
					return err
				}
				db, err = rt.Open("walcutfull", opt)
				if err != nil {
					return err
				}
				for i, k := range keys {
					want := string(val(k))
					if i == 1 {
						want = string(sealing)
					}
					if err := wantGet(db, string(k), want); err != nil {
						t.Error(err)
					}
				}
				return db.Close()
			})
			if inj.Fired(faults.NVMWriteNoSpace) != 1 {
				t.Fatalf("ENOSPC fired %d times, want 1", inj.Fired(faults.NVMWriteNoSpace))
			}
		})
	}
}
