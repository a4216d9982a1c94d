package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"papyruskv/internal/faults"
	"papyruskv/internal/nvm"
	"papyruskv/internal/stats"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Seq:       uint64(i + 1),
			Epoch:     1,
			Tombstone: i%5 == 4,
			Key:       []byte(fmt.Sprintf("key-%03d", i)),
			Value:     []byte(fmt.Sprintf("value-%03d", i)),
		}
		if recs[i].Tombstone {
			recs[i].Value = nil
		}
	}
	return recs
}

func encodeAll(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Epoch != b[i].Epoch || a[i].Tombstone != b[i].Tombstone ||
			!bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	recs := testRecords(20)
	buf := encodeAll(recs)
	got, clean, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if clean != len(buf) {
		t.Fatalf("clean = %d, want %d", clean, len(buf))
	}
	if !sameRecords(recs, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if n := EncodedSize(recs[0]); n != frameHeader+payloadFixed+len(recs[0].Key)+len(recs[0].Value) {
		t.Fatalf("EncodedSize = %d", n)
	}
}

func TestCodecEmptyKeyValue(t *testing.T) {
	recs := []Record{{Seq: 1, Epoch: 1, Key: []byte{0}, Value: nil}}
	got, clean, err := DecodeAll(encodeAll(recs))
	if err != nil || clean != EncodedSize(recs[0]) || len(got) != 1 {
		t.Fatalf("got %v clean=%d err=%v", got, clean, err)
	}
}

// TestCodecTornTail: every strict prefix of a valid log decodes without
// error to the records whose frames are whole — the crash-mid-append
// contract replay relies on.
func TestCodecTornTail(t *testing.T) {
	recs := testRecords(4)
	buf := encodeAll(recs)
	// Frame boundaries.
	var bounds []int
	off := 0
	for _, r := range recs {
		off += EncodedSize(r)
		bounds = append(bounds, off)
	}
	for cut := 0; cut < len(buf); cut++ {
		got, clean, err := DecodeAll(buf[:cut])
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v (a torn tail is never corruption)", cut, err)
		}
		wantWhole := 0
		for _, b := range bounds {
			if cut >= b {
				wantWhole++
			}
		}
		if len(got) != wantWhole {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, len(got), wantWhole)
		}
		if clean != 0 && clean != bounds[len(got)-1] {
			t.Fatalf("cut %d: clean = %d, want frame boundary %d", cut, clean, bounds[len(got)-1])
		}
	}
}

// TestCodecMidLogCorruption: a flipped byte in a complete frame is
// ErrCorrupt, and the clean prefix stops at the damaged frame.
func TestCodecMidLogCorruption(t *testing.T) {
	recs := testRecords(3)
	buf := encodeAll(recs)
	first := EncodedSize(recs[0])
	for _, pos := range []int{0, 4, frameHeader, first - 1} {
		bad := append([]byte(nil), buf...)
		bad[pos] ^= 0x10
		got, clean, err := DecodeAll(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
		if len(got) != 0 || clean != 0 {
			t.Fatalf("flip at %d: got %d records, clean %d; corruption in frame 0 must stop the log there", pos, len(got), clean)
		}
	}
	// Damage in the second frame still salvages the first.
	bad := append([]byte(nil), buf...)
	bad[first+frameHeader+2] ^= 0x01
	got, clean, err := DecodeAll(bad)
	if !errors.Is(err, ErrCorrupt) || len(got) != 1 || clean != first {
		t.Fatalf("second-frame damage: got %d records, clean %d, err %v", len(got), clean, err)
	}
}

func testDevice(t *testing.T) *nvm.Device {
	t.Helper()
	d, err := nvm.Open(t.TempDir(), nvm.PerfModel{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testConfig(d *nvm.Device) Config {
	return Config{Device: d, Dir: "db/r0", Stream: "local", Rank: 0, Stats: &stats.WAL{}}
}

// TestLogCommitRecover: records committed before a (simulated) kill are all
// returned by the next Recover, the old segments are garbage-collected
// after the re-log, and the counters add up.
func TestLogCommitRecover(t *testing.T) {
	dev := testDevice(t)
	cfg := testConfig(dev)
	l, recs, err := Recover(cfg)
	if err != nil {
		t.Fatalf("initial Recover: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	want := testRecords(10)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Abandon() // simulated kill: no clean close

	l2, got, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover after kill: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) || got[i].Seq != want[i].Seq {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
	if n := cfg.Stats.RecordsRecovered.Load(); n != 10 {
		t.Fatalf("RecordsRecovered = %d, want 10", n)
	}
	// The old epoch's segments were deleted after the re-log; only the
	// fresh epoch's active segment remains.
	names, err := dev.List("db/r0/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("segments on device after recovery = %v, want just the new active one", names)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third recovery replays the re-logged records identically.
	_, got3, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != 10 {
		t.Fatalf("third recovery: %d records, want 10", len(got3))
	}
}

// TestLogRotateAndRemove: rotation seals the segment appends go to under a
// name the caller can delete after its MemTable flush commits, bounding WAL
// bytes; the next segment continues the same epoch. Rotate itself only cuts
// the append chain — no device call, so the sealed segment is still empty —
// and the segment is complete on the device after the next Commit,
// GroupCommit or Close, or before Remove unlinks it.
func TestLogRotateAndRemove(t *testing.T) {
	for _, via := range []string{"Commit", "GroupCommit", "Close", "Remove"} {
		t.Run(via, func(t *testing.T) {
			dev := testDevice(t)
			cfg := testConfig(dev)
			l, _, err := Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := testRecords(5)
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			before := dev.Stats()
			sealed, err := l.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if after := dev.Stats(); after != before {
				t.Fatalf("Rotate touched the device: stats %+v -> %+v", before, after)
			}
			if sz, err := dev.FileSize(sealed); err != nil || sz != 0 {
				t.Fatalf("sealed segment %q holds %d bytes (err %v) before any commit", sealed, sz, err)
			}
			if err := l.Append(Record{Seq: 99, Key: []byte("after"), Value: []byte("rotation")}); err != nil {
				t.Fatal(err)
			}
			switch via {
			case "Commit":
				err = l.Commit()
			case "GroupCommit":
				err = l.GroupCommit()
			case "Close":
				err = l.Close()
			case "Remove":
				// The write-through covers the sealed segment's blocks and
				// no more: the record appended after the cut stays buffered.
				written := dev.Stats().BytesWritten
				err = l.Remove(sealed)
				if got, want := dev.Stats().BytesWritten-written, uint64(len(encodeAll(recs))); err == nil && got != want {
					t.Fatalf("Remove wrote %d bytes through, want the sealed segment's %d", got, want)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if via != "Remove" {
				data, err := dev.ReadFile(sealed)
				if err != nil {
					t.Fatal(err)
				}
				if got, _, err := DecodeAll(data); err != nil || !sameRecords(got, recs) {
					t.Fatalf("sealed segment after %s holds %v (err %v), want %v", via, seqs(got), err, seqs(recs))
				}
				if err := l.Remove(sealed); err != nil {
					t.Fatal(err)
				}
			}
			if dev.Exists(sealed) {
				t.Fatal("sealed segment still on device after Remove")
			}
			// Data in the removed segment is gone; data after rotation
			// survives, and the removed segment is never re-created.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if dev.Exists(sealed) {
				t.Fatal("a write after Remove re-created the sealed segment")
			}
			_, got, err := Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || string(got[0].Key) != "after" {
				t.Fatalf("recovered %+v, want only the post-rotation record", got)
			}
		})
	}
}

// TestRemoveRacesAppendsInSharedBlock: past a cut, appends go on filling
// the sealed segment's block. While Remove writes that segment's records
// through on a slow device, appends into the rest of the block land
// without waiting, and neither side sees the other's bytes: the removed
// segment is gone and replay holds exactly the records after the cut.
func TestRemoveRacesAppendsInSharedBlock(t *testing.T) {
	dev, err := nvm.Open(t.TempDir(), nvm.PerfModel{WriteLatency: 20 * time.Millisecond, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dev)
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	for _, r := range recs[:5] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// The first record past the cut opens the next segment's chunk in the
	// same block, so Remove writes part of a block the appends still fill.
	if err := l.Append(recs[5]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Remove(sealed) }()
	time.Sleep(5 * time.Millisecond) // inside Remove's 20 ms write
	for _, r := range recs[6:] {
		start := time.Now()
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= 5*time.Millisecond {
			t.Fatalf("append took %v behind Remove's write-through", d)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := l.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	if dev.Exists(sealed) {
		t.Fatal("removed segment is back on the device")
	}
	if got := recoverAll(t, l, cfg); !sameSeqs(got, recs[5:]) {
		t.Fatalf("recovered %v, want the records after the cut %v", seqs(got), seqs(recs[5:]))
	}
}

// TestRecoverTruncatesTornSegment: a segment ending mid-frame (the on-disk
// remains of a crash during an append) yields its whole-frame prefix and
// counts as truncated, not as an error.
func TestRecoverTruncatesTornSegment(t *testing.T) {
	dev := testDevice(t)
	cfg := testConfig(dev)
	recs := testRecords(3)
	buf := encodeAll(recs)
	torn := buf[:len(buf)-EncodedSize(recs[2])+5] // third frame cut mid-header/payload
	a, err := dev.OpenAppend(segName(cfg.Dir, cfg.Stream, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(torn); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover of torn segment: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want the 2 whole ones", len(got))
	}
	if cfg.Stats.SegmentsTruncated.Load() != 1 {
		t.Fatalf("SegmentsTruncated = %d, want 1", cfg.Stats.SegmentsTruncated.Load())
	}
	l.Close()
}

// TestRecoverMidLogCorruption: a flipped byte inside a complete frame is
// typed ErrCorrupt — the log cannot be trusted, unlike a torn tail.
func TestRecoverMidLogCorruption(t *testing.T) {
	dev := testDevice(t)
	cfg := testConfig(dev)
	buf := encodeAll(testRecords(3))
	buf[frameHeader+3] ^= 0x80 // inside the first frame's payload
	a, err := dev.OpenAppend(segName(cfg.Dir, cfg.Stream, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(cfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover err = %v, want ErrCorrupt", err)
	}
}

// TestTornAppendPoisonsLog: once WALTornAppend fires, the firing batch
// reaches the device only as a prefix and later batches not at all — while
// every append still reports success. Replay sees exactly the pre-tear
// prefix.
func TestTornAppendPoisonsLog(t *testing.T) {
	dev := testDevice(t)
	inj := faults.New(0x70a4).Enable(faults.Rule{
		Point: faults.WALTornAppend, Rank: faults.AnyRank, Count: 3, Fires: 1,
	})
	cfg := testConfig(dev)
	cfg.Inj = inj
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(6)
	for i, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("commit %d: %v (a torn append must look like success)", i, err)
		}
	}
	l.Abandon()
	if inj.Fired(faults.WALTornAppend) != 1 {
		t.Fatalf("torn-append fired %d times, want 1", inj.Fired(faults.WALTornAppend))
	}
	cfg.Inj = nil
	_, got, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover after torn append: %v", err)
	}
	// Batches 1 and 2 committed whole; batch 3 is torn to a strict prefix
	// of one frame (= zero whole records); batches 4..6 never reached the
	// device.
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want exactly the 2 pre-tear commits", len(got))
	}
}

// TestSyncErrorInjection: WALSyncError turns Commit into a typed injected
// failure the caller can fail its rank with.
func TestSyncErrorInjection(t *testing.T) {
	dev := testDevice(t)
	inj := faults.New(0x5e).Enable(faults.Rule{
		Point: faults.WALSyncError, Rank: faults.AnyRank, Count: 1, Fires: 1,
	})
	cfg := testConfig(dev)
	cfg.Inj = inj
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Commit err = %v, want ErrInjected", err)
	}
	l.Abandon()
}

// TestStreamsAreIndependent: local and remote segments share the wal
// directory without interfering; each stream recovers only its own.
func TestStreamsAreIndependent(t *testing.T) {
	dev := testDevice(t)
	lcfg := testConfig(dev)
	rcfg := lcfg
	rcfg.Stream = "remote"
	ll, _, err := Recover(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	rl, _, err := Recover(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ll.Append(Record{Seq: 1, Key: []byte("mine"), Value: []byte("l")})
	rl.Append(Record{Seq: 2, Key: []byte("theirs"), Value: []byte("r")})
	ll.Close()
	rl.Close()
	_, lgot, err := Recover(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rgot, err := Recover(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lgot) != 1 || string(lgot[0].Key) != "mine" {
		t.Fatalf("local stream recovered %+v", lgot)
	}
	if len(rgot) != 1 || string(rgot[0].Key) != "theirs" {
		t.Fatalf("remote stream recovered %+v", rgot)
	}
}

// TestGroupCommitStats: group commits count batches and fsyncs; empty
// ticks do no device work.
func TestGroupCommitStats(t *testing.T) {
	dev := testDevice(t)
	cfg := testConfig(dev)
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(4) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	if err := l.GroupCommit(); err != nil { // empty tick
		t.Fatal(err)
	}
	if n := cfg.Stats.GroupCommits.Load(); n != 1 {
		t.Fatalf("GroupCommits = %d, want 1 (empty ticks must not count)", n)
	}
	if n := cfg.Stats.Fsyncs.Load(); n != 1 {
		t.Fatalf("Fsyncs = %d, want 1", n)
	}
	if n := cfg.Stats.RecordsAppended.Load(); n != 4 {
		t.Fatalf("RecordsAppended = %d, want 4", n)
	}
	l.Close()
}

// TestGroupCommitAcrossCutSyncsBothSegments: a GroupCommit whose chain
// crosses a cut writes into two segments and must leave both durable — one
// fsync per segment, the sealed one's at the cut. Remove's write-through
// skips the fsync of the segment it is about to unlink: its records are
// safe elsewhere.
func TestGroupCommitAcrossCutSyncsBothSegments(t *testing.T) {
	dev := testDevice(t)
	cfg := testConfig(dev)
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := testRecords(3)
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := l.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Stats.Fsyncs.Load(); n != 2 {
		t.Fatalf("GroupCommit across a cut: Fsyncs = %d, want 2 (one per segment)", n)
	}
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(sealed); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Stats.Fsyncs.Load(); n != 2 {
		t.Fatalf("Remove's write-through: Fsyncs = %d, want 2 (the unlinked segment is not synced)", n)
	}
}

// recoverAll abandons l and returns every record the next Recover replays.
func recoverAll(t *testing.T, l *Log, cfg Config) []Record {
	t.Helper()
	l.Abandon()
	cfg.Inj = nil
	l2, got, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	l2.Abandon()
	return got
}

// TestAppendDoesNotWaitForGroupCommit: while a group commit is inside a
// slow device write, appends land in a new block without waiting for it, and the next commit writes them after the in-flight batch, so replay
// sees every record in append order.
func TestAppendDoesNotWaitForGroupCommit(t *testing.T) {
	dev, err := nvm.Open(t.TempDir(), nvm.PerfModel{WriteLatency: 50 * time.Millisecond, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dev)
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(8)
	for _, r := range recs[:4] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- l.GroupCommit() }()
	// The group commit is 10 ms into its 50 ms device write when the
	// appends start, and must still be in it when they end.
	time.Sleep(10 * time.Millisecond)
	for i, r := range recs[4:] {
		start := time.Now()
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= 5*time.Millisecond {
			t.Fatalf("append %d took %v behind an in-flight group commit", i, d)
		}
	}
	select {
	case <-done:
		t.Fatal("the group commit finished before the appends: nothing overlapped")
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := l.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	if got := recoverAll(t, l, cfg); !sameSeqs(got, recs) {
		t.Fatalf("recovered %v, want all 8 records in append order", seqs(got))
	}
}

// TestConcurrentCommitsShareSync: sync-mode commits racing one another
// share fsyncs. While one commit writes, the other writers' appends land in
// new blocks and their commits queue on the I/O lock; the first to
// get it writes them all, and the rest find their records already synced.
// Sixteen writers committing five records each settle into two
// alternating groups of eight per fsync, ten in all; a log that blocked
// appends behind the write needs twice as many or more.
func TestConcurrentCommitsShareSync(t *testing.T) {
	dev, err := nvm.Open(t.TempDir(), nvm.PerfModel{WriteLatency: 5 * time.Millisecond, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dev)
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 16, 5
	recs := testRecords(writers * rounds)
	start := make(chan struct{})
	errs := make(chan error, len(recs))
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(mine []Record) {
			defer wg.Done()
			<-start
			for _, r := range mine {
				if err := l.Append(r); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(recs[g*rounds : (g+1)*rounds])
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := cfg.Stats.Fsyncs.Load(); n > uint64(len(recs)/5) {
		t.Fatalf("Fsyncs = %d for %d concurrent commits, want <= %d", n, len(recs), len(recs)/5)
	}
	got := recoverAll(t, l, cfg)
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
}

// TestGroupCommitBufferBounded: a burst many blocks long is written and
// its blocks recycled, but the log retains at most freeBlocks of them, and
// nothing of the burst stays on the chain.
func TestGroupCommitBufferBounded(t *testing.T) {
	dev := testDevice(t)
	cfg := testConfig(dev)
	l, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64<<10)
	burst := 4 * freeBlocks * blockSize / len(val)
	for i := 0; i < burst; i++ {
		if err := l.Append(Record{Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%03d", i)), Value: val}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := l.GroupCommit(); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	chained := len(l.chain)
	l.mu.Unlock()
	if free := l.blocks.Len(); free > freeBlocks || free == 0 || chained != 0 {
		t.Fatalf("after the burst: %d free blocks, %d chained; want 1..%d free and none chained", free, chained, freeBlocks)
	}
	if got := recoverAll(t, l, cfg); len(got) != burst {
		t.Fatalf("recovered %d records, want %d", len(got), burst)
	}
}

func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

func sameSeqs(a, b []Record) bool {
	return fmt.Sprint(seqs(a)) == fmt.Sprint(seqs(b))
}
