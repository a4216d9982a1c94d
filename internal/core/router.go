package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"papyruskv/internal/mpi"
)

// RPC response demultiplexer. Before this router existed, every caller
// awaiting a reply did its own filtered receive on the response communicator
// — recvGetResp matched (peer, tagGetResp) and recvAck matched (peer, ackTag)
// — and *discarded* any reply whose seq was not its own. Under
// MPI_THREAD_MULTIPLE (§2.3) two application threads talking to the same
// peer would therefore steal and drop each other's replies: the victim burnt
// its retry budget re-sending a request that had long been answered, then
// peerFail'd a perfectly healthy rank. The router makes the reply path
// multi-caller safe: exactly one goroutine per database drains the reply
// communicator and routes each message by (tag, seq) to the channel the
// caller registered in the pending-call table before sending. Replies nobody
// is waiting for — answers to attempts that already timed out, or duplicate
// acks from a duplicated request — are counted (RepliesUnclaimed) and
// dropped centrally instead of being consumed out from under a live caller.

// callKey identifies one in-flight reliable request: the reply tag the
// caller expects and the sequence number stamped into the request. Sequence
// numbers are unique per database (one sendSeq counter feeds every request
// type), so the tag is strictly redundant — it is kept in the key so a
// reply can never be delivered across request types even if the seq spaces
// were ever split per type.
type callKey struct {
	tag int
	seq uint64
}

// pendingCalls is the router's registration table. Callers register before
// sending and deregister when their wait ends (success, timeout, or error);
// the router holds the lock only for the map lookup and a non-blocking send
// into the caller's buffered channel, so a slow caller can never back up
// the router.
type pendingCalls struct {
	mu     sync.Mutex
	calls  map[callKey]chan mpi.Message
	closed bool
}

// register creates the reply channel for (tag, seq). It fails once the
// router has shut down — a caller racing Close must error out, not block
// forever on a channel nobody will ever fill.
func (p *pendingCalls) register(tag int, seq uint64) (chan mpi.Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrInvalidDB
	}
	if p.calls == nil {
		p.calls = make(map[callKey]chan mpi.Message)
	}
	// Capacity 1: the router's delivery never blocks, and a retried request
	// (same seq) that provokes duplicate acks keeps at most one buffered.
	ch := make(chan mpi.Message, 1)
	p.calls[callKey{tag, seq}] = ch
	return ch, nil
}

// deregister removes (tag, seq) from the table. A reply the router routed
// after the caller stopped listening sits harmlessly in the orphaned
// buffered channel and is garbage-collected with it.
func (p *pendingCalls) deregister(tag int, seq uint64) {
	p.mu.Lock()
	delete(p.calls, callKey{tag, seq})
	p.mu.Unlock()
}

// route delivers m to the caller registered for (tag, seq), if any.
// delivered=false means nobody was waiting (a stale or duplicate reply).
func (p *pendingCalls) route(tag int, seq uint64, m mpi.Message) (delivered bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, ok := p.calls[callKey{tag, seq}]
	if !ok {
		return false
	}
	select {
	case ch <- m:
		return true
	default:
		// The channel already holds an undrained reply for this call — a
		// duplicated ack to a retried request. Dropping it loses nothing:
		// the buffered reply is byte-identical (the dedup window replays
		// the original ack).
		return false
	}
}

// close marks the table dead; later registrations fail with ErrInvalidDB.
func (p *pendingCalls) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// routerThread is the database's response router: the only goroutine that
// receives on replyComm. It exits on the self-addressed shutdown message
// (Close) or when the world aborts, closing routerDone either way so
// callers blocked in awaitReply wake immediately instead of riding out
// their full per-attempt timeout.
func (db *DB) routerThread() {
	defer db.wg.Done()
	defer db.calls.close()
	defer close(db.routerDone)
	for {
		m, err := db.replyComm.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return // world aborted
		}
		if m.Tag == tagShutdown {
			return
		}
		seq, ok := peekReplySeq(m.Data)
		if !ok {
			// A reply too short to carry its seq cannot be attributed to
			// any caller; it is dropped like any other unclaimed reply.
			db.metrics.RepliesUnclaimed.Add(1)
			continue
		}
		if !db.calls.route(m.Tag, seq, m) {
			db.metrics.RepliesUnclaimed.Add(1)
		}
	}
}

// awaitReply waits for the reply registered under ch, one attempt of call's
// ladder: it resolves to the routed reply, mpi.ErrTimeout after the
// per-attempt deadline, a context error when the caller's deadline expires
// or it cancels, or a shutdown error the moment the database begins closing
// or the router dies — the reply path's half of "retry loops must never
// stall Close". Internal callers with no deadline pass
// context.Background(), whose Done channel is nil and never selected.
func (db *DB) awaitReply(ctx context.Context, ch <-chan mpi.Message) (mpi.Message, error) {
	timer := time.NewTimer(db.opt.RetryTimeout)
	defer timer.Stop()
	select {
	case m := <-ch:
		return m, nil
	case <-timer.C:
		return mpi.Message{}, mpi.ErrTimeout
	case <-ctx.Done():
		return mpi.Message{}, fmt.Errorf("papyruskv: %w", ctx.Err())
	case <-db.closing:
		return mpi.Message{}, ErrInvalidDB
	case <-db.routerDone:
		return mpi.Message{}, db.shutdownErr()
	}
}

// shutdownErr distinguishes why the router is gone: a deliberate Close
// (ErrInvalidDB, the same error every post-close operation returns) or a
// world abort.
func (db *DB) shutdownErr() error {
	select {
	case <-db.closing:
		return ErrInvalidDB
	default:
		return mpi.ErrAborted
	}
}

// sleepBackoff sleeps the jittered current backoff and advances call's
// ladder (doubled, capped at retryBackoffCap — the dialRetry discipline),
// unless the caller's context ends or the database starts shutting down
// first, in which case it returns that error immediately: a retry ladder
// must never stall Close for its whole remaining budget.
func (db *DB) sleepBackoff(ctx context.Context, backoff *time.Duration) error {
	d := jitterBackoff(*backoff)
	*backoff = nextBackoff(*backoff, retryBackoffCap)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("papyruskv: %w", ctx.Err())
	case <-db.closing:
		return ErrInvalidDB
	case <-db.routerDone:
		return db.shutdownErr()
	}
}

// nextBackoff doubles cur, clamped to ceil. Unbounded doubling made a deep
// retry ladder sleep for whole minutes against a peer that was merely slow.
func nextBackoff(cur, ceil time.Duration) time.Duration {
	if cur >= ceil/2 {
		return ceil
	}
	return cur * 2
}

// jitterBackoff spreads d over [d/2, d] (full jitter, as in mpi.dialRetry):
// retriers that all timed out on the same stalled peer must not re-fire in
// lockstep.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
