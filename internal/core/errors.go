// Package core implements the PapyrusKV runtime: the distributed LSM-tree
// key-value store of Kim, Lee & Vetter, "PapyrusKV: A High-Performance
// Parallel Key-Value Store for Distributed NVM Architectures" (SC'17).
//
// One Runtime exists per rank of an SPMD program. A database (DB) is opened
// collectively and consists, per rank, of a local MemTable, immutable local
// MemTables queued for flushing, a remote MemTable, immutable remote
// MemTables queued for migration, a local and a remote cache, and a set of
// SSTables on the rank's NVM device (Figures 2 and 3). Background goroutines
// play the roles of the paper's compaction thread (flushing immutable local
// MemTables into SSTables, periodic compaction, checkpoint file movement),
// message dispatcher (migrating batched remote puts to their owner ranks),
// and message handler (serving remote put/get requests on a private
// communicator).
package core

import (
	"errors"

	"papyruskv/internal/manifest"
	"papyruskv/internal/sstable"
)

// Error codes mirroring the paper's PAPYRUSKV_* return codes.
var (
	// ErrNotFound corresponds to PAPYRUSKV_NOT_FOUND: no live value
	// exists for the key (including a key shadowed by a tombstone).
	ErrNotFound = errors.New("papyruskv: not found")
	// ErrInvalidDB corresponds to PAPYRUSKV_INVALID_DB: the handle is
	// closed or otherwise unusable.
	ErrInvalidDB = errors.New("papyruskv: invalid db")
	// ErrProtected is returned for writes to a PAPYRUSKV_RDONLY database.
	ErrProtected = errors.New("papyruskv: db is write-protected")
	// ErrInvalidArgument reports malformed parameters.
	ErrInvalidArgument = errors.New("papyruskv: invalid argument")
	// ErrNoSnapshot reports a restart from a path with no usable snapshot.
	ErrNoSnapshot = errors.New("papyruskv: no snapshot at path")
	// ErrRankFailed reports that this rank's database is in the failed
	// state: a background flush, compaction, or migration hit an
	// unrecoverable error, or fault injection killed the rank. The root
	// cause is wrapped; Health returns the same error. Other ranks keep
	// serving — only operations involving the failed rank see it.
	ErrRankFailed = errors.New("papyruskv: rank failed")
	// ErrReadOnly reports that this rank's database is degraded to
	// read-only: a resource-exhaustion error (typically a full NVM device,
	// nvm.ErrNoSpace) stopped it persisting new writes, but everything
	// already stored is intact and keeps serving. Puts and incoming
	// migrations are refused with this sentinel — carried across the wire,
	// so a remote writer sees the same typed error the local application
	// does — until space is reclaimed (Reclaim, or the background reclaim
	// probe) and the rank returns to Healthy. The root cause is wrapped.
	ErrReadOnly = errors.New("papyruskv: rank degraded to read-only")
	// ErrWriteStalled reports that a put was shed by write admission
	// control: the flush/migration backlog sat above the soft threshold
	// past StallTimeout, or reached four times that threshold outright. The
	// pair was not applied; the caller may retry after backing off.
	ErrWriteStalled = errors.New("papyruskv: write stalled by backlog")
	// ErrScrubLoss reports that the background scrubber found a corrupt
	// SSTable and no valid checkpoint copy existed to repair it from: the
	// table was quarantined, its key range recorded in the ScrubReport,
	// and the rank degraded to read-only — the intact remainder keeps
	// serving instead of the whole rank failing. The corruption detail is
	// wrapped.
	ErrScrubLoss = errors.New("papyruskv: scrub detected unrepairable corruption")
)

// ErrCorrupt reports data that failed checksum or structural validation —
// an SSTable record, index, or bloom filter, or a snapshot whose files
// contradict its manifest. It is sstable.ErrCorrupt re-exported so callers
// match one sentinel for every corruption site.
var ErrCorrupt = sstable.ErrCorrupt

// ErrManifestCorrupt reports mid-log corruption in a rank's table-lifecycle
// manifest, or on-NVM state that contradicts it (a listed table missing or
// resized): the live table set can no longer be reconstructed, so the rank
// fails rather than guessing. A torn tail — the expected remains of a crash
// mid-append — is truncated silently, never this error. It surfaces as the
// root cause inside Health()'s ErrRankFailed.
var ErrManifestCorrupt = manifest.ErrCorrupt
