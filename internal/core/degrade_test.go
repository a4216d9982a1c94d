package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
)

// waitState polls until db reaches the wanted ladder state.
func waitState(t *testing.T, db *DB, want HealthState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for db.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("state = %v, want %v (health: %v)", db.State(), want, db.Health())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDegradeENOSPCReadOnlyThenReclaim is the tentpole acceptance scenario:
// a rank whose device returns ENOSPC mid-flush degrades to read-only — it
// keeps answering local and remote gets with zero errors while returning
// typed ErrReadOnly for puts (local ones, and its peers' migrations across
// the wire, which park behind the circuit breaker) — then resumes accepting
// writes after Reclaim, and the peers' parked batches are redelivered.
func TestDegradeENOSPCReadOnlyThenReclaim(t *testing.T) {
	const victim = 0
	inj := faults.New(0xde96ade)
	opt := recoverOpt()
	runCluster(t, clusterSpec{ranks: 3, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		o := opt
		if rt.Rank() == victim {
			// The victim heals only through the explicit Reclaim call, so
			// the degraded window is test-controlled, not prober-timed.
			o.ProbeInterval = -1
		}
		db, err := rt.Open("degradedb", o)
		if err != nil {
			return err
		}
		vkeys := ownKeys(db, victim, 45)
		own := ownKeys(db, rt.Rank(), 20) // == vkeys[:20] on the victim
		migr := vkeys[20:40]              // victim-owned, staged by the peers
		extra := vkeys[40:]               // victim-owned, put after the heal

		// Phase 1: every rank loads its own keys while healthy, then the
		// victim's SSTable writes start returning ENOSPC. ClearAfter makes
		// the exhaustion transient: the first write attempt fails, and the
		// post-reclaim retry finds the space back.
		for _, k := range own {
			mustPut(t, db, string(k), string(val(k)))
		}
		if rt.Rank() == victim {
			inj.Enable(faults.Rule{
				Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Tag: faults.AnyTag,
				Where: fmt.Sprintf("r%d/sst-", victim), Count: 1, Fires: 1 << 20, ClearAfter: 1,
			})
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 2: the collective flush drives the victim into the ENOSPC.
		// Its Barrier reports the degradation; the healthy ranks' returns
		// nil — a peer's full device is not their failure.
		berr := db.Barrier(LevelSSTable)
		if rt.Rank() == victim {
			if !errors.Is(berr, ErrReadOnly) || !errors.Is(berr, nvm.ErrNoSpace) {
				t.Errorf("victim Barrier err = %v, want ErrReadOnly wrapping ErrNoSpace", berr)
			}
			if got := db.State(); got != StateDegraded {
				t.Errorf("victim state = %v, want degraded", got)
			}
			if err := db.Put(extra[0], val(extra[0])); !errors.Is(err, ErrReadOnly) {
				t.Errorf("degraded Put err = %v, want ErrReadOnly", err)
			}
			for _, k := range own {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("degraded local get: %v", err)
				}
			}
			m := db.Metrics()
			if m.DegradedTransitions.Load() != 1 || m.Degraded.Load() != 1 {
				t.Errorf("degraded_transitions=%d degraded=%d, want 1/1",
					m.DegradedTransitions.Load(), m.Degraded.Load())
			}
			if db.immDepth(false) == 0 {
				t.Error("the unflushed table did not stay on the degraded rank's immutable list")
			}
		} else if berr != nil {
			t.Errorf("rank %d Barrier err = %v, want nil", rt.Rank(), berr)
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 3: the peers read the degraded rank remotely — its data is
		// intact and it must serve — then stage writes it owns. Fence
		// reports them parked with the typed refusal as the cause.
		if rt.Rank() != victim {
			for _, k := range vkeys[:20] {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("remote get from degraded rank: %v", err)
				}
			}
			share := migr[:10]
			if rt.Rank() == 2 {
				share = migr[10:]
			}
			for _, k := range share {
				mustPut(t, db, string(k), string(val(k)))
			}
			if err := db.Fence(); !errors.Is(err, ErrReadOnly) {
				t.Errorf("Fence err = %v, want parked report wrapping ErrReadOnly", err)
			}
			if db.Metrics().ParkedBatches.Load() == 0 {
				t.Error("no batch parked for the degraded owner")
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 4: the application reclaims space (the transient fault has
		// cleared); the rank heals, flushes the table that waited in place,
		// and accepts writes again.
		if rt.Rank() == victim {
			if err := db.Reclaim(); err != nil {
				t.Errorf("Reclaim: %v", err)
			}
			waitState(t, db, StateHealthy, 5*time.Second)
			for _, k := range extra {
				mustPut(t, db, string(k), string(val(k)))
			}
			m := db.Metrics()
			if m.Reclaims.Load() != 1 || m.Degraded.Load() != 0 {
				t.Errorf("reclaims=%d degraded=%d, want 1/0", m.Reclaims.Load(), m.Degraded.Load())
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Phase 5: the peers' probes get statusOK now, circuits close, parked
		// batches redeliver in order, and a Fence finally runs clean.
		if rt.Rank() != victim {
			waitFenceClean(t, db, 10*time.Second)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			t.Errorf("post-heal Barrier: %v", err)
		}
		for r := 0; r < 3; r++ {
			for _, k := range ownKeys(db, r, 20) {
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("rank %d: %v", rt.Rank(), err)
				}
			}
		}
		for _, k := range append(append([][]byte{}, migr...), extra...) {
			if err := wantGet(db, string(k), string(val(k))); err != nil {
				t.Errorf("rank %d: %v", rt.Rank(), err)
			}
		}
		if lost := db.Metrics().PairsLost.Load(); lost != 0 {
			t.Errorf("pairs_lost = %d, want 0", lost)
		}
		return db.Close()
	})
}

// TestDegradeStallTimeout drives the flush backlog past StallSoftDepth on a
// deliberately slow device and asserts the admission-control contract: a
// put stalls, is shed with typed ErrWriteStalled once the stall budget
// expires, and never blocks longer than twice StallTimeout. The stall and
// shed metrics must move.
func TestDegradeStallTimeout(t *testing.T) {
	const stallTimeout = 150 * time.Millisecond
	slow := nvm.PerfModel{Name: "slow", WriteLatency: 60 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 1, nvmModel: slow}, func(rt *Runtime, c *mpi.Comm) error {
		o := faultOpt()
		o.MemTableCapacity = 256
		o.StallSoftDepth = 2 // hard threshold 8
		o.StallTimeout = stallTimeout
		o.WAL = WALDisabled // keep the flush path the only device writer
		o.ProbeInterval = -1
		db, err := rt.Open("stalldb", o)
		if err != nil {
			return err
		}
		var shed error
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < 2000 && time.Now().Before(deadline); i++ {
			k := []byte(fmt.Sprintf("stall-%05d", i))
			start := time.Now()
			err := db.Put(k, val(k))
			if elapsed := time.Since(start); elapsed > 2*stallTimeout {
				t.Errorf("Put blocked %v, want <= %v", elapsed, 2*stallTimeout)
			}
			if err != nil {
				if !errors.Is(err, ErrWriteStalled) {
					t.Fatalf("Put err = %v, want ErrWriteStalled", err)
				}
				shed = err
				break
			}
		}
		if shed == nil {
			t.Fatal("backlog never shed a put with ErrWriteStalled")
		}
		m := db.Metrics()
		if m.Stalls.Load() == 0 || m.StallNanos.Load() == 0 || m.PutsShed.Load() == 0 {
			t.Errorf("stalls=%d stall_ns=%d puts_shed=%d, want all > 0",
				m.Stalls.Load(), m.StallNanos.Load(), m.PutsShed.Load())
		}
		return db.Close()
	})
}

// TestDegradeGetCtxCancel: a caller blocked on an unreachable owner is
// unblocked by its own context — cancellation and deadline both — long
// before the retry ladder would give up, and the breaker does not punish
// the peer for the caller's choice.
func TestDegradeGetCtxCancel(t *testing.T) {
	inj := faults.New(0xc47c31)
	opt := faultOpt()
	opt.RetryTimeout = time.Second
	opt.ProbeInterval = -1
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("ctxdb", opt)
		if err != nil {
			return err
		}
		k := ownKeys(db, 0, 1)[0]
		if rt.Rank() == 0 {
			mustPut(t, db, string(k), string(val(k)))
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 1 {
			// Every remote-get request vanishes on the wire; the owner
			// stays healthy and reachable for everything else.
			inj.Enable(faults.Rule{
				Point: faults.NetDrop, Rank: faults.AnyRank, Tag: tagGet,
				Count: 1, Fires: 1 << 20,
			})

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(50 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := db.GetCtx(ctx, k)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("GetCtx err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > opt.RetryTimeout {
				t.Errorf("cancelled GetCtx took %v, want well under the %v retry timeout", elapsed, opt.RetryTimeout)
			}

			dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			_, err = db.GetCtx(dctx, k)
			dcancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("GetCtx err = %v, want context.DeadlineExceeded", err)
			}

			inj.Disable(faults.NetDrop)
			if err := wantGet(db, string(k), string(val(k))); err != nil {
				t.Errorf("after disabling the drop: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestOverloadSoak is the `make overload` target: sustained put pressure on
// three ranks while rank 0's device flips in and out of ENOSPC (a periodic
// transient fault the reclaim prober keeps healing). Acknowledged puts must
// survive, reads must never fail, refused writes must carry their typed
// errors, and after the churn stops the cluster must converge: everyone
// healthy, every parked batch redelivered, nothing lost.
func TestOverloadSoak(t *testing.T) {
	const victim = 0
	inj := faults.New(0x50a4)
	// Fires on the 2nd matching SSTable write and every 7th after it, so
	// the victim's flushes alternate between failing (degrading it) and
	// succeeding (after its prober reclaims).
	inj.Enable(faults.Rule{
		Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Tag: faults.AnyTag,
		Where: fmt.Sprintf("r%d/sst-", victim), Count: 2, Every: 7, Fires: 1 << 20,
	})
	opt := faultOpt()
	opt.ProbeInterval = 2 * time.Millisecond
	opt.StallTimeout = 50 * time.Millisecond
	runCluster(t, clusterSpec{ranks: 3, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("soakdb", opt)
		if err != nil {
			return err
		}
		var ackedLocal, ackedRemote [][]byte
		deadline := time.Now().Add(1200 * time.Millisecond)
		for i := 0; i < 2500 && time.Now().Before(deadline); i++ {
			k := []byte(fmt.Sprintf("soak-%d-%06d", rt.Rank(), i))
			switch err := db.Put(k, val(k)); {
			case err == nil:
				if db.Owner(k) == rt.Rank() {
					ackedLocal = append(ackedLocal, k)
				} else {
					ackedRemote = append(ackedRemote, k)
				}
			case errors.Is(err, ErrReadOnly), errors.Is(err, ErrWriteStalled):
				// The ladder refusing writes under pressure is the point.
			default:
				t.Errorf("rank %d Put(%s): %v", rt.Rank(), k, err)
			}
			// Reads must keep serving through every degraded window.
			if len(ackedLocal) > 0 && i%64 == 0 {
				k := ackedLocal[i%len(ackedLocal)]
				if err := wantGet(db, string(k), string(val(k))); err != nil {
					t.Errorf("rank %d read under pressure: %v", rt.Rank(), err)
				}
			}
		}
		if rt.Rank() == victim {
			inj.Disable(faults.NVMWriteNoSpace)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Convergence: the victim's prober reclaims for the last time, the
		// peers' probes close their circuits and redeliver, and a full
		// flush barrier runs clean on every rank.
		waitState(t, db, StateHealthy, 10*time.Second)
		waitFenceClean(t, db, 20*time.Second)
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			t.Errorf("rank %d convergence Barrier: %v", rt.Rank(), err)
		}
		for _, k := range append(append([][]byte{}, ackedLocal...), ackedRemote...) {
			if err := wantGet(db, string(k), string(val(k))); err != nil {
				t.Errorf("rank %d acked put lost: %v", rt.Rank(), err)
			}
		}
		m := db.Metrics()
		if lost := m.PairsLost.Load(); lost != 0 {
			t.Errorf("rank %d pairs_lost = %d, want 0", rt.Rank(), lost)
		}
		if rt.Rank() == victim {
			if m.DegradedTransitions.Load() == 0 || m.Reclaims.Load() == 0 {
				t.Errorf("victim never churned: degraded_transitions=%d reclaims=%d",
					m.DegradedTransitions.Load(), m.Reclaims.Load())
			}
			t.Logf("victim churn: %d degradations, %d reclaims, %d stalls, %d puts shed",
				m.DegradedTransitions.Load(), m.Reclaims.Load(), m.Stalls.Load(), m.PutsShed.Load())
		}
		return db.Close()
	})
}

// TestDegradeFlushOrder: flushes must retire in seal order across a
// degradation. Three MemTables seal back-to-back while the first one's flush
// is stuck in a slow device write that ends in ENOSPC, so all three wait on
// the Degraded rank's immutable list. The regression this guards: a design
// that re-queued waiting tables in any order but the seal order let the
// newer table flush first and the older one take the higher SSID — reads and
// compaction then preferred the older table's value for any overlapping key,
// permanently. It fails if the flush thread picks any table but the oldest.
func TestDegradeFlushOrder(t *testing.T) {
	const hot = "hot-key"
	inj := faults.New(0x5ea105)
	slow := nvm.PerfModel{Name: "slow", WriteLatency: 120 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 1, nvmModel: slow, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		o := faultOpt()
		o.MemTableCapacity = 256 // every put below seals a table
		o.StallSoftDepth = 64    // keep admission control out of the way
		o.WAL = WALDisabled      // keep the flush path the only device writer
		o.ProbeInterval = -1     // heal only through the explicit Reclaim
		db, err := rt.Open("orderdb", o)
		if err != nil {
			return err
		}
		// The first flush attempt fails with ENOSPC — after the slow
		// write's model latency, which is the window the later seals land
		// in. Disabled again before Reclaim so the resumed flushes land.
		inj.Enable(faults.Rule{
			Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Tag: faults.AnyTag,
			Where: "r0/sst-", Count: 1, Fires: 1 << 20,
		})
		pad := func(c byte) string { return strings.Repeat(string(c), 300) }
		// Table A: hot = a. Seals and its flush starts failing slowly.
		mustPut(t, db, hot, pad('a'))
		// Table B: filler, sealed behind A.
		mustPut(t, db, "filler", pad('b'))
		// Table C: hot = c, sealed last: it must also flush last.
		mustPut(t, db, hot, pad('c'))

		waitState(t, db, StateDegraded, 10*time.Second)
		// All three tables wait in place: A (failed flush), B and C (never
		// started on the Degraded rank).
		if got := db.immDepth(false); got != 3 {
			t.Fatalf("immDepth = %d on the degraded rank, want 3", got)
		}
		inj.Disable(faults.NVMWriteNoSpace)
		if err := db.Reclaim(); err != nil {
			t.Fatalf("Reclaim: %v", err)
		}
		// The barrier drains the waiting backlog into SSTables.
		if err := db.Barrier(LevelSSTable); err != nil {
			t.Fatalf("Barrier: %v", err)
		}
		if err := wantGet(db, hot, pad('c')); err != nil {
			t.Errorf("after the in-order flush: %v", err)
		}
		return db.Close()
	})
}

// TestHandlerBackpressureShedsRemoteWrites: an owner whose flush backlog is
// past the hard admission threshold — the line where it already sheds its
// own puts — refuses incoming remote writes with the typed stall status
// instead of buffering them without bound, while its reads keep serving and
// the sender's circuit stays closed (the owner is alive, just overloaded).
// Once the backlog drains, writes flow again. The backlog is real: the
// owner's device is slow, every remote put seals a table, and the sender
// outruns the flush thread.
func TestHandlerBackpressureShedsRemoteWrites(t *testing.T) {
	opt := faultOpt()
	opt.Consistency = Sequential
	opt.WAL = WALDisabled
	opt.MemTableCapacity = 256 // every put below seals a table
	opt.StallSoftDepth = 1     // hard threshold 4
	slow := nvm.PerfModel{Name: "slow", WriteLatency: 20 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 2, nvmModel: slow}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("backpressure", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 65)
		absent, keys := keys[64], keys[:64]
		pad := []byte(strings.Repeat("p", 300))
		if rt.Rank() == 1 {
			// Sequential puts to the slow owner pile sealed tables up to the
			// hard threshold; the next one is shed, typed...
			acked := 0
			var shed error
			for _, k := range keys {
				if shed = db.Put(k, pad); shed != nil {
					break
				}
				acked++
			}
			if !errors.Is(shed, ErrWriteStalled) {
				t.Fatalf("putSync to backlogged owner err = %v after %d acked puts, want ErrWriteStalled", shed, acked)
			}
			if hard := 4 * opt.StallSoftDepth; acked < hard {
				t.Errorf("owner shed after %d acked puts, below its hard threshold %d", acked, hard)
			}
			// ...the refusal does not trip the circuit...
			if err := db.peerErr(0); err != nil {
				t.Errorf("circuit tripped by stall refusal: %v", err)
			}
			// ...and reads keep being served through the overload.
			if err := wantGet(db, string(keys[0]), string(pad)); err != nil {
				t.Errorf("remote read during owner backlog: %v", err)
			}
			if err := wantMissing(db, string(absent)); err != nil {
				t.Errorf("remote read during owner backlog: %v", err)
			}
			// The flush thread drains the backlog at device speed, and the
			// writer is let in again.
			deadline := time.Now().Add(20 * time.Second)
			for {
				err := db.Put(absent, pad)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrWriteStalled) || time.Now().After(deadline) {
					t.Fatalf("put after the backlog should have drained: %v", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := wantGet(db, string(absent), string(pad)); err != nil {
				t.Errorf("after backlog drained: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == 0 {
			if got := db.Metrics().PutsShed.Load(); got == 0 {
				t.Error("owner recorded no shed puts")
			}
		}
		return db.Close()
	})
}
