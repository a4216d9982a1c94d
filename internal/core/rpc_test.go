package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
)

// rpcOpt is smallOpt tuned for the RPC-layer tests: compaction off (no
// background reads competing with the scenario's traffic) and a retry
// deadline short enough that a stolen reply surfaces as a counted retry
// within the test's runtime instead of hiding behind the generous default.
func rpcOpt() Options {
	o := smallOpt()
	o.CompactionEvery = 0
	o.RetryTimeout = 400 * time.Millisecond
	return o
}

// remoteKey returns a key owned by owner, unique per (client, round).
func remoteKey(db *DB, owner, client, round int) string {
	for salt := 0; ; salt++ {
		k := fmt.Sprintf("c%d-r%d-s%d", client, round, salt)
		if db.Owner([]byte(k)) == owner {
			return k
		}
	}
}

// waitCounter polls a metric until it reaches want; the sender's frames are
// already in the receiver's mailbox, but the handler and router process them
// asynchronously.
func waitCounter(t *testing.T, what string, load func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 5s, want >= %d", what, load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRPCConcurrentClientsKeepTheirReplies is the regression test for the
// reply-stealing bug: before the response router, each waiting caller did a
// filtered receive on the shared response communicator and threw away any
// reply whose seq was not its own, so concurrent callers talking to the same
// owner consumed each other's acks and get responses, burnt their retry
// budgets on requests that had already been answered, and finally peerFail'd
// a perfectly healthy rank. With the (tag, seq) demultiplexer, eight client
// goroutines hammering one owner must complete with zero retries of any kind
// and both ranks healthy.
func TestRPCConcurrentClientsKeepTheirReplies(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := rpcOpt()
		opt.Consistency = Sequential // every put/delete is a synchronous RPC
		db, err := rt.Open("rpcstress", opt)
		if err != nil {
			return err
		}
		if rt.Rank() == 1 {
			const clients, rounds = 8, 40
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						k := remoteKey(db, 0, g, i)
						v := fmt.Sprintf("v-%d-%d", g, i)
						if err := db.Put([]byte(k), []byte(v)); err != nil {
							errs[g] = fmt.Errorf("put %s: %w", k, err)
							return
						}
						if err := wantGet(db, k, v); err != nil {
							errs[g] = err
							return
						}
						if err := db.Delete([]byte(k)); err != nil {
							errs[g] = fmt.Errorf("delete %s: %w", k, err)
							return
						}
						if err := wantMissing(db, k); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			m := db.Metrics()
			if n := m.GetRetries.Load(); n != 0 {
				t.Errorf("GetRetries = %d, want 0: concurrent clients stole each other's get responses", n)
			}
			if n := m.PutSyncRetries.Load(); n != 0 {
				t.Errorf("PutSyncRetries = %d, want 0: concurrent clients stole each other's acks", n)
			}
			if err := db.peerErr(0); err != nil {
				t.Errorf("healthy owner was marked failed: %v", err)
			}
		}
		if err := db.Health(); err != nil {
			t.Errorf("rank %d unhealthy after the stress run: %v", rt.Rank(), err)
		}
		return db.Close()
	})
}

// TestRPCSlowGetsDoNotBlockPutAcks pins the head-of-line guarantee of the
// handler worker pool: remote gets grinding through a slow NVM SSTable
// search occupy get-serving workers while synchronous puts from another rank
// flow through the write shards, so the put acks come back well inside the
// retry timeout. With the old single handler thread every queued slow get
// stood in front of the put, and the ack regularly missed the deadline.
func TestRPCSlowGetsDoNotBlockPutAcks(t *testing.T) {
	// One owner-side get reads the one SSTable block its key can be in: one
	// device read, so 100ms/read makes a get a ~100ms operation. Eight clients over four workers keep each get comfortably
	// inside the 400ms deadline, while the same load serialised behind a
	// single handler thread queues whole seconds of gets in front of every
	// put ack. Writes stay free so WAL appends and flushes do not distort
	// the scenario.
	slow := nvm.PerfModel{Name: "slownvm", ReadLatency: 100 * time.Millisecond, TimeScale: 1}
	runCluster(t, clusterSpec{ranks: 3, nvmModel: slow}, func(rt *Runtime, c *mpi.Comm) error {
		opt := rpcOpt()
		opt.Consistency = Sequential
		opt.LocalCacheCapacity = 0 // owner-side gets must hit the slow device every time
		// ~2s of queued gets stand in front of each ack on the old single
		// handler thread, so this deadline still separates the behaviours —
		// while staying slack enough that race-detector and scheduler
		// overhead on a small CI box cannot fail a healthy run.
		opt.RetryTimeout = 2 * time.Second
		db, err := rt.Open("rpchol", opt)
		if err != nil {
			return err
		}
		keys := ownKeys(db, 0, 16)
		if rt.Rank() == 0 {
			for _, k := range keys {
				mustPut(t, db, string(k), string(val(k)))
			}
		}
		// Flush rank 0's pairs to its SSTable so remote gets pay the
		// modelled device read, and line all ranks up to start together.
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		switch rt.Rank() {
		case 2:
			// Saturate the owner with slow gets. Each rank runs its own
			// storage group here, so the owner serves the values itself
			// (full SSTable search) instead of delegating via shared NVM.
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						k := keys[(g*8+i)%len(keys)]
						if err := wantGet(db, string(k), string(val(k))); err != nil {
							t.Error(err)
						}
					}
				}(g)
			}
			wg.Wait()
		case 1:
			// Let the get queue build up, then demand timely acks.
			time.Sleep(100 * time.Millisecond)
			for i := 0; i < 20; i++ {
				mustPut(t, db, remoteKey(db, 0, 99, i), "v")
			}
			if n := db.Metrics().PutSyncRetries.Load(); n != 0 {
				t.Errorf("PutSyncRetries = %d, want 0: slow remote gets head-of-line-blocked the put acks", n)
			}
		}
		if err := db.Health(); err != nil {
			t.Errorf("rank %d unhealthy: %v", rt.Rank(), err)
		}
		return db.Close()
	})
}

// TestRPCBadPeerFramesDoNotFailReceiver feeds a rank four classes of
// malformed traffic straight off the wire. The receiver must treat every one
// as the *sender's* defect: count it (bad_requests), nack it when a seq is
// addressable, and stay healthy — one buggy peer must not be able to kill a
// correct rank's failure domain.
func TestRPCBadPeerFramesDoNotFailReceiver(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := rpcOpt()
		opt.Consistency = Sequential
		db, err := rt.Open("rpcbad", opt)
		if err != nil {
			return err
		}
		if rt.Rank() == 1 {
			bad := []struct {
				tag  int
				data []byte
			}{
				{tagMigBatch, []byte{1, 2, 3}}, // too short to carry a seq
				{tagGet, []byte{9}},            // undecodable get request
				{42, appendSeq(nil, 1, 1)},     // unknown request tag
				{tagPutOne, append(appendSeq(nil, db.sendSeq.Add(1), 1), 1, 0, 0, 0)}, // seq ok, body undecodable
			}
			for _, b := range bad {
				if err := db.reqComm.Send(0, b.tag, b.data); err != nil {
					return err
				}
			}
			// The undecodable put body is nacked; nothing registered its
			// seq here, so the nack must land in this rank's router as an
			// unclaimed reply, not in anyone's pending call.
			waitCounter(t, "rank 1 replies_unclaimed", db.metrics.RepliesUnclaimed.Load, 1)
		} else {
			waitCounter(t, "rank 0 bad_requests", db.metrics.BadRequests.Load, 4)
			if err := db.Health(); err != nil {
				t.Errorf("a peer's malformed frames failed the receiver's own domain: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// The receiver still serves well-formed traffic afterwards.
		if rt.Rank() == 1 {
			k := remoteKey(db, 0, 0, 0)
			mustPut(t, db, k, "still-alive")
			if err := wantGet(db, k, "still-alive"); err != nil {
				t.Error(err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestRPCUnclaimedRepliesDropped sends replies nobody asked for — a stale
// get response and a frame too short to carry a seq — and checks the router
// counts and drops both centrally while live calls keep routing normally.
func TestRPCUnclaimedRepliesDropped(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := rpcOpt()
		opt.Consistency = Sequential
		db, err := rt.Open("rpcunclaimed", opt)
		if err != nil {
			return err
		}
		if rt.Rank() == 1 {
			stale := encodeReply(0xdeadbeef, statusAbsent, nil)
			if err := db.replyComm.Send(0, tagGetResp, stale); err != nil {
				return err
			}
			if err := db.replyComm.Send(0, tagPutAck, []byte{1}); err != nil {
				return err
			}
		} else {
			waitCounter(t, "rank 0 replies_unclaimed", db.metrics.RepliesUnclaimed.Load, 2)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// The same router that dropped the garbage still routes live calls.
		if rt.Rank() == 0 {
			k := remoteKey(db, 1, 1, 1)
			mustPut(t, db, k, "routed")
			if err := wantGet(db, k, "routed"); err != nil {
				t.Error(err)
			}
			if err := db.Health(); err != nil {
				t.Errorf("unclaimed replies failed the receiving rank: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestRPCGetRetryKeepsItsSeq drops the owner's first get reply: the caller's
// ladder resends the identical request under the same seq, and the owner's
// answer to the retry completes the get — one seq, one counted retry.
func TestRPCGetRetryKeepsItsSeq(t *testing.T) {
	const owner, caller = 0, 1
	inj := faults.New(0x6e75)
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("rpcgetretry", rpcOpt())
		if err != nil {
			return err
		}
		k := remoteKey(db, owner, 0, 0)
		if rt.Rank() == owner {
			mustPut(t, db, k, "v")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == caller {
			inj.Enable(faults.Rule{Point: faults.NetDrop, Rank: owner, Tag: tagGetResp, Count: 1, Fires: 1})
			before := db.sendSeq.Load()
			if err := wantGet(db, k, "v"); err != nil {
				t.Error(err)
			}
			if n := db.sendSeq.Load() - before; n != 1 {
				t.Errorf("the get drew %d seqs, want 1: a retry must resend under the same seq", n)
			}
			if n := db.Metrics().GetRetries.Load(); n != 1 {
				t.Errorf("GetRetries = %d, want 1", n)
			}
			if n := inj.Fired(faults.NetDrop); n != 1 {
				t.Errorf("NetDrop fired %d times, want 1", n)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}

// TestRPCScanReplaysDroppedPage drops one scan page reply mid-stream: the
// caller's ladder re-asks for the same page, the owner replays its retained
// copy instead of advancing, and the scan yields exactly the pairs an
// unfaulted scan does. The replay is not a new page, so the owner's
// ScanPages counts the faulted scan's pages once.
func TestRPCScanReplaysDroppedPage(t *testing.T) {
	const owner, caller = 0, 1
	inj := faults.New(0x5ca9)
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		opt := rpcOpt()
		opt.ScanPageBytes = 256 // several pages per stream
		db, err := rt.Open("rpcscanreplay", opt)
		if err != nil {
			return err
		}
		for _, k := range ownKeys(db, rt.Rank(), 60) {
			mustPut(t, db, string(k), string(val(k)))
		}
		var want []string
		var pages []uint64
		for round := 0; round < 2; round++ {
			pages = append(pages, db.Metrics().ScanPages.Load())
			if err := c.Barrier(); err != nil {
				return err
			}
			if rt.Rank() == caller {
				if round == 1 {
					// The second page reply: the stream is open and mid-way.
					inj.Enable(faults.Rule{Point: faults.NetDrop, Rank: owner, Tag: tagScanResp, Count: 2, Fires: 1})
				}
				var got []string
				err := db.Scan(context.Background(), nil, nil, func(k, v []byte) error {
					got = append(got, string(k)+"="+string(v))
					return nil
				})
				if err != nil {
					t.Errorf("round %d Scan: %v", round, err)
				}
				if round == 0 {
					want = got
				} else if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("faulted scan yielded %d pairs that differ from the clean scan's %d", len(got), len(want))
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		pages = append(pages, db.Metrics().ScanPages.Load())
		switch rt.Rank() {
		case caller:
			if n := inj.Fired(faults.NetDrop); n != 1 {
				t.Errorf("NetDrop fired %d times, want 1", n)
			}
			if n := db.Metrics().ScanRetries.Load(); n != 1 {
				t.Errorf("ScanRetries = %d, want 1", n)
			}
		case owner:
			if clean, faulted := pages[1]-pages[0], pages[2]-pages[1]; clean < 3 || faulted != clean {
				t.Errorf("owner produced %d pages for the clean scan and %d for the faulted one: the replay must not count", clean, faulted)
			}
		}
		return db.Close()
	})
}

// TestRPCStatusTableRoundTrip: an owner-side error, answered under
// statusFor's status and rebuilt by replyError, still satisfies errors.Is
// for its sentinel on the caller's side of the wire and keeps the owner's
// text. A Failed rank's error answers rankFailed whatever its cause wraps.
func TestRPCStatusTableRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		err, want error
		text      string
	}{
		{fmt.Errorf("%w: device full", ErrReadOnly), ErrReadOnly, "device full"},
		{fmt.Errorf("%w: 40 immutable tables", ErrWriteStalled), ErrWriteStalled, "40 immutable tables"},
		{fmt.Errorf("read sst-7: %w", ErrCorrupt), ErrCorrupt, "read sst-7"},
		{fmt.Errorf("%w: %w", ErrRankFailed, ErrCorrupt), ErrRankFailed, ErrCorrupt.Error()},
		{fmt.Errorf("wal append: %w", nvm.ErrNoSpace), ErrReadOnly, "wal append"},
	} {
		_, status, body, err := splitReply(errorReply(7, tc.err))
		if err != nil {
			t.Fatal(err)
		}
		got := replyError(3, status, body)
		if !errors.Is(got, tc.want) {
			t.Errorf("%v crossed the wire as %v, want errors.Is %v", tc.err, got, tc.want)
		}
		if !strings.Contains(got.Error(), "rank 3") || !strings.Contains(got.Error(), tc.text) {
			t.Errorf("%v crossed the wire as %q: the rank or the owner's text was lost", tc.err, got)
		}
	}
	got := replyError(3, statusFor(errors.New("boom")), []byte("boom"))
	if !strings.Contains(got.Error(), "boom") || errors.Is(got, ErrRankFailed) || errors.Is(got, ErrReadOnly) {
		t.Errorf("an untyped error crossed the wire as %v", got)
	}
}

// TestRPCGetTripsCircuitOnFailedOwner pins the one trip rule for gets: an
// owner answering that its domain is down trips the caller's circuit just as
// an exhausted ladder does, so the next get fails fast with no round trip —
// still typed ErrRankFailed — until the owner recovers and a probe closes
// the circuit.
func TestRPCGetTripsCircuitOnFailedOwner(t *testing.T) {
	const victim, caller = 0, 1
	inj := faults.New(0x7219)
	runCluster(t, clusterSpec{ranks: 2, faults: inj}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("rpctrip", recoverOpt())
		if err != nil {
			return err
		}
		k := string(ownKeys(db, victim, 1)[0])
		if rt.Rank() == victim {
			mustPut(t, db, k, "v")
			killRank(t, db, inj, victim)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == caller {
			_, err := db.Get([]byte(k))
			if !errors.Is(err, ErrRankFailed) || strings.Contains(err.Error(), "circuit open") {
				t.Errorf("get from a failed owner = %v, want its typed answer", err)
			}
			_, err = db.Get([]byte(k))
			if !errors.Is(err, ErrRankFailed) || !strings.Contains(err.Error(), "circuit open") {
				t.Errorf("get behind the tripped circuit = %v, want a typed fail-fast", err)
			}
			if n := db.Metrics().GetRetries.Load(); n != 0 {
				t.Errorf("GetRetries = %d, want 0: a typed answer must not burn the ladder", n)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == victim {
			if err := db.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rt.Rank() == caller {
			deadline := time.Now().Add(20 * time.Second)
			for err := wantGet(db, k, "v"); err != nil; err = wantGet(db, k, "v") {
				if time.Now().After(deadline) {
					t.Fatalf("gets never flowed again after the owner recovered: %v", err)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if n := db.Metrics().CircuitsClosed.Load(); n < 1 {
				t.Errorf("CircuitsClosed = %d, want >= 1", n)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return db.Close()
	})
}
