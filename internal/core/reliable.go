package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
)

// The one remote call path. Every cross-rank request — migration batches,
// their parked redelivery, synchronous puts, remote gets, scan pages and the
// circuit breaker's pings — goes out through call and comes back as one
// reply frame (wire.go) under one status table.

// Reply statuses. ok, absent and share are answers; statusFailed and every
// status after it is an error whose body carries the owner's error text.
const (
	statusOK     byte = iota
	statusAbsent      // a get found no live value (not present, or deleted)
	// statusShare: the pair is not in the owner's memory, but the caller
	// shares the owner's NVM; the body lists the SSTables to search (§2.7).
	statusShare
	statusFailed // untyped: the owner's error text is all there is
	// statusReadOnly: the owner is Degraded (or its device filled mid-write)
	// and refused the write. Like statusStalled, a refused write is never
	// entered into the owner's dedup window, so the same batch redelivered
	// after the owner heals applies fresh.
	statusReadOnly
	// statusStalled: the owner is Healthy but its flush backlog is past the
	// hard admission threshold — the line at which it sheds its own puts —
	// so it refused to buffer the incoming write.
	statusStalled
	statusCorrupt    // the owner's read hit a checksum failure
	statusRankFailed // the owner's failure domain is down
)

// statusTable maps each typed error status to the sentinel it stands for, in
// statusFor's precedence order: a Failed rank's error may wrap anything, so
// ErrRankFailed is tested first. A full device refuses writes exactly like a
// Degraded rank. The owner's sentinel identity is lost on the wire as text;
// the status restores it, so errors.Is holds on both sides.
var statusTable = []struct {
	status   byte
	sentinel error
}{
	{statusRankFailed, ErrRankFailed},
	{statusReadOnly, ErrReadOnly},
	{statusReadOnly, nvm.ErrNoSpace},
	{statusStalled, ErrWriteStalled},
	{statusCorrupt, ErrCorrupt},
}

// statusFor is the owner side of the table: the status an error answers.
func statusFor(err error) byte {
	for _, e := range statusTable {
		if errors.Is(err, e.sentinel) {
			return e.status
		}
	}
	return statusFailed
}

// errorReply answers a request with err under its status.
func errorReply(seq uint64, err error) []byte {
	return encodeReply(seq, statusFor(err), []byte(err.Error()))
}

// replyError is the caller side of the table: it rebuilds the typed error an
// error status from rank dest stands for.
func replyError(dest int, status byte, body []byte) error {
	for _, e := range statusTable {
		if e.status == status {
			// The owner's text already begins with the sentinel's message;
			// trim it so re-wrapping does not print the prefix twice.
			msg := strings.TrimPrefix(string(body), e.sentinel.Error()+": ")
			return fmt.Errorf("papyruskv: rank %d rejected request: %w: %s", dest, e.sentinel, msg)
		}
	}
	if status == statusFailed {
		return fmt.Errorf("papyruskv: rank %d rejected request: %s", dest, body)
	}
	return fmt.Errorf("papyruskv: rank %d sent unknown reply status %d", dest, status)
}

// The retry ladder: retryAttempts sends per call, the first inter-attempt
// delay retryBackoff, doubling with full jitter up to retryBackoffCap (the
// dial backoff of the distributed message layer). The per-attempt deadline
// is Options.RetryTimeout.
const (
	retryAttempts   = 5
	retryBackoff    = 2 * time.Millisecond
	retryBackoffCap = 500 * time.Millisecond
)

// call sends msg — a request already framed with seq — to dest's message
// handler under reqTag and waits for the reply under respTag. It returns the
// reply's status and body; an error status comes back as replyError's typed
// error, and a ladder that ran out of attempts as an error wrapping
// mpi.ErrTimeout.
//
// The call is registered with the response router once, and every attempt
// resends the identical bytes under the same seq — safe on every tag: writes
// are deduplicated at the owner by (incarnation, seq), gets are pure reads,
// and scan requests name their page, which the owner replays. A reply to an
// earlier attempt that arrives late is as good as the one the retry asked
// for: it is buffered for the current wait, or dropped centrally by the
// router once the call has returned.
//
// Each attempt beyond the first is charged to retries. A nil counter makes
// the call a single attempt: the prober's ping, whose retry is the next tick.
func (db *DB) call(ctx context.Context, dest, reqTag, respTag int, seq uint64, msg []byte, retries *atomic.Uint64) (byte, []byte, error) {
	ch, err := db.calls.register(respTag, seq)
	if err != nil {
		return 0, nil, err
	}
	defer db.calls.deregister(respTag, seq)
	attempts := retryAttempts
	if retries == nil {
		attempts = 1
	}
	backoff := retryBackoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			retries.Add(1)
			if err := db.sleepBackoff(ctx, &backoff); err != nil {
				return 0, nil, err
			}
		}
		if err := db.reqComm.Send(dest, reqTag, msg); err != nil {
			return 0, nil, err
		}
		m, err := db.awaitReply(ctx, ch)
		if errors.Is(err, mpi.ErrTimeout) {
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		_, status, body, err := splitReply(m.Data)
		if err != nil {
			return 0, nil, err
		}
		if status >= statusFailed {
			return status, body, replyError(dest, status, body)
		}
		return status, body, nil
	}
	return 0, nil, fmt.Errorf("papyruskv: rank %d did not answer after %d attempts: %w",
		dest, attempts, mpi.ErrTimeout)
}

// request is call for the foreground operations — gets, scan pages and
// synchronous puts. It fails fast behind dest's open circuit instead of
// burning a ladder (the wrap keeps errors.Is on the root cause working), and
// trips the circuit when dest cannot serve: the ladder ran out, or dest
// answered that its failure domain is down. A refusal (read-only, stalled),
// a read error and the caller's own context say nothing about dest's
// liveness, and never trip it. Migration and redelivery call call directly:
// they park behind the circuit instead.
func (db *DB) request(ctx context.Context, dest, reqTag, respTag int, seq uint64, msg []byte, retries *atomic.Uint64) (byte, []byte, error) {
	if err := db.peerErr(dest); err != nil {
		return 0, nil, fmt.Errorf("papyruskv: rank %d unreachable (circuit open): %w", dest, err)
	}
	status, body, err := db.call(ctx, dest, reqTag, respTag, seq, msg, retries)
	if errors.Is(err, mpi.ErrTimeout) || errors.Is(err, ErrRankFailed) {
		db.peerFail(dest, err)
	}
	return status, body, err
}
