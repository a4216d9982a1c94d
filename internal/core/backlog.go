package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"papyruskv/internal/memtable"
)

// The sealed-table lists, write admission control, and the one wait
// primitive both need.
//
// A sealed MemTable has exactly one home: its immutable list (immLocal or
// immRemote, oldest first, under db.mu). The list IS the queue of §2.4 — the
// flush thread always writes immLocal[0], the dispatcher always sends the
// oldest table it has not sent yet — so flush order is seal order because it
// is list order, whatever failed, degraded or healed in between. Sealing is
// "append and wake": it cannot block and cannot fail. A table whose work
// cannot run (the rank is Degraded or Failed) stays where it is —
// get-visible and WAL-backed — until heal wakes the thread or Recover drops
// the lists for the WAL replay.
//
// Backpressure is admission control at the top of the put path: above
// Options.StallSoftDepth immutable tables, puts stall in short jittered
// sleeps bounded by Options.StallTimeout; at the hard threshold, four times
// the soft one, or when the stall budget expires, they fail fast with typed
// ErrWriteStalled. No put ever blocks longer than StallTimeout plus one
// stall period.

// await blocks until try reports true. try runs once up front and again
// after every wakeAll — every seal, retire, thread going idle, health
// transition and Close — and may act on its verdict in the same critical
// section: the threads claim their table there, Recover drops the lists
// there.
//
// The broadcast is a channel that wakeAll closes and replaces. Loading it
// BEFORE running try is what makes the wait lossless: a change landing after
// try looked closes the very channel this call then blocks on.
func (db *DB) await(try func() bool) {
	for {
		ch := *db.wake.Load()
		if try() {
			return
		}
		<-ch
	}
}

// wakeAll makes every await re-run its try. It takes no lock — an atomic
// swap and a close — so it may be called under db.mu and db.failMu alike
// and adds no edge to the lock order.
func (db *DB) wakeAll() {
	ch := make(chan struct{})
	close(*db.wake.Swap(&ch))
}

// idle clears a background thread's busy flag (flushBusy or migrBusy, both
// guarded by db.mu) once it has let go of its table.
func (db *DB) idle(busy *bool) {
	db.mu.Lock()
	*busy = false
	db.mu.Unlock()
	db.wakeAll()
}

// retireTable takes a sealed table whose contents are safe elsewhere — in an
// SSTable, or applied by their owners — off its get-visible list and deletes
// the WAL segment that shadowed it, which keeps on-device WAL bytes bounded
// by the MemTable budget. The vacated slot is cleared (slices.Delete) so the
// list's backing array does not pin the table.
func (db *DB) retireTable(list *[]*memtable.Table, t *memtable.Table) {
	db.mu.Lock()
	if i := slices.Index(*list, t); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
	ref, logged := db.walSegs[t]
	delete(db.walSegs, t)
	db.mu.Unlock()
	db.wakeAll()
	if !logged {
		return
	}
	// Remove may first write the segment's still-buffered blocks through:
	// a full device there degrades the rank, like any WAL write.
	if err := ref.log.Remove(ref.name); err != nil {
		db.failOrDegrade(fmt.Errorf("wal segment gc: %w", err))
	}
}

// immDepth reports the immutable-table backlog the put path contributes to:
// local tables awaiting flush, or remote tables awaiting migration.
func (db *DB) immDepth(remote bool) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if remote {
		return len(db.immRemote)
	}
	return len(db.immLocal)
}

// stallPeriod is one admission-control sleep quantum, jittered so stalled
// writers do not re-probe the backlog in lockstep.
func (db *DB) stallPeriod() time.Duration {
	d := db.opt.StallTimeout / 8
	if d < 200*time.Microsecond {
		d = 200 * time.Microsecond
	}
	if d > 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return jitterBackoff(d)
}

// sleepStall sleeps one stall period, waking early when the caller's
// context ends or the database begins closing.
func (db *DB) sleepStall(ctx context.Context) error {
	timer := time.NewTimer(db.stallPeriod())
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("papyruskv: %w", ctx.Err())
	case <-db.closing:
		return ErrInvalidDB
	}
}

// admitWrite is the put path's admission control. Below the soft threshold
// it admits immediately; at or above the hard threshold it sheds the put
// with ErrWriteStalled at once; in between it stalls in bounded jittered
// sleeps until the backlog drains below soft or the stall budget expires.
func (db *DB) admitWrite(ctx context.Context, remote bool) error {
	soft := db.opt.StallSoftDepth
	if soft < 0 {
		return nil // admission control disabled
	}
	hard := db.stallHardDepth()
	depth := db.immDepth(remote)
	if depth < soft {
		return nil
	}
	if depth >= hard {
		db.metrics.PutsShed.Add(1)
		return fmt.Errorf("%w: %d immutable tables at hard threshold %d", ErrWriteStalled, depth, hard)
	}
	db.metrics.Stalls.Add(1)
	start := time.Now()
	defer func() { db.metrics.StallNanos.Add(uint64(time.Since(start))) }()
	deadline := start.Add(db.opt.StallTimeout)
	for {
		if err := db.sleepStall(ctx); err != nil {
			return err
		}
		depth = db.immDepth(remote)
		if depth < soft {
			return nil
		}
		// The rank may have degraded or failed mid-stall; its typed cause
		// beats an opaque stall timeout.
		if err := db.Health(); err != nil {
			return err
		}
		if depth >= hard || !time.Now().Before(deadline) {
			db.metrics.PutsShed.Add(1)
			return fmt.Errorf("%w: backlog still %d tables after %v (soft %d, hard %d)",
				ErrWriteStalled, depth, db.opt.StallTimeout, soft, hard)
		}
	}
}

// isClosing reports whether Close has begun teardown.
func (db *DB) isClosing() bool {
	select {
	case <-db.closing:
		return true
	default:
		return false
	}
}

// writeRefusal is why this rank refuses an incoming write right now, or nil:
// its health (Failed, or Degraded to read-only), or a local flush backlog at
// or past the hard admission threshold — the point where its own puts are
// already being shed. The message handler refuses incoming batches at the
// same line, so N-1 remote senders cannot grow a slow owner's immutable list
// without bound while its own writers are blocked.
func (db *DB) writeRefusal() error {
	if err := db.Health(); err != nil {
		return err
	}
	if db.opt.StallSoftDepth < 0 {
		return nil // admission control disabled
	}
	if depth, hard := db.immDepth(false), db.stallHardDepth(); depth >= hard {
		return fmt.Errorf("%w: %d immutable tables at hard threshold %d", ErrWriteStalled, depth, hard)
	}
	return nil
}

// stallHardDepth is the fail-fast admission threshold: a put finding the
// backlog this deep is shed at once, spending no stall budget — waiting one
// StallTimeout cannot plausibly drain it.
func (db *DB) stallHardDepth() int { return 4 * db.opt.StallSoftDepth }
