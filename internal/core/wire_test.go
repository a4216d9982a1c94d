package core

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"papyruskv/internal/memtable"
	"papyruskv/internal/stats"
)

func TestGetRequestRoundTrip(t *testing.T) {
	f := func(key []byte, group int16, seq uint64) bool {
		in := getRequest{Seq: seq, Key: key, Group: int(group)}
		out, err := decodeGetRequest(encodeGetRequest(in))
		if err != nil {
			return false
		}
		return out.Seq == in.Seq && bytes.Equal(out.Key, in.Key) && out.Group == in.Group
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGetRequestDecodeErrors(t *testing.T) {
	if _, err := decodeGetRequest(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := decodeGetRequest(make([]byte, 13)); err == nil {
		t.Fatal("short decoded")
	}
	// klen says 100 but no key bytes follow (klen sits after the 8-byte seq).
	bad := make([]byte, 20)
	bad[8] = 100
	if _, err := decodeGetRequest(bad); err == nil {
		t.Fatal("truncated key decoded")
	}
	// A key followed by stray bytes is not a frame the encoder writes.
	long := append(encodeGetRequest(getRequest{Seq: 1, Key: []byte("k")}), 0)
	if _, err := decodeGetRequest(long); err == nil {
		t.Fatal("trailing bytes decoded")
	}
}

// TestGetResponseRoundTrip: a get reply is the one reply frame, whose body
// is the value (statusOK) or the candidate SSIDs (statusShare).
func TestGetResponseRoundTrip(t *testing.T) {
	f := func(seq uint64, value []byte, ssids []uint64) bool {
		gotSeq, status, body, err := splitReply(encodeReply(seq, statusOK, value))
		if err != nil || gotSeq != seq || status != statusOK || !bytes.Equal(body, value) {
			return false
		}
		gotSeq, status, body, err = splitReply(encodeReply(seq, statusShare, encodeSSIDs(ssids)))
		if err != nil || gotSeq != seq || status != statusShare {
			return false
		}
		ids, err := decodeSSIDs(body)
		if err != nil || len(ids) != len(ssids) {
			return false
		}
		for i := range ssids {
			if ids[i] != ssids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAckRoundTrip: an ack is the same frame — an empty body on success, the
// owner's error text under an error status.
func TestAckRoundTrip(t *testing.T) {
	f := func(seq uint64, failed bool, msg string) bool {
		status, body := statusOK, []byte(nil)
		if failed {
			status, body = statusFailed, []byte(msg)
		}
		gotSeq, gotStatus, gotBody, err := splitReply(encodeReply(seq, status, body))
		return err == nil && gotSeq == seq && gotStatus == status && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := splitReply(nil); err == nil {
		t.Fatal("nil reply split")
	}
	if _, _, _, err := splitReply(make([]byte, 8)); err == nil {
		t.Fatal("statusless reply split")
	}
}

func TestPrependSplitSeq(t *testing.T) {
	seq, inc, body, err := splitSeq(append(appendSeq(nil, 42, 7), "payload"...))
	if err != nil || seq != 42 || inc != 7 || string(body) != "payload" {
		t.Fatalf("splitSeq = %d %d %q %v", seq, inc, body, err)
	}
	if _, _, _, err := splitSeq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame split")
	}
	// An old-style 8-byte seq-only frame is short too: the incarnation
	// field is part of the header, not optional.
	if _, _, _, err := splitSeq(make([]byte, 8)); err == nil {
		t.Fatal("incarnationless frame split")
	}
}

// TestSeqFrameAllocatesOnce: a migration frame's header and its batch of N
// entries are encoded into one allocation, and it splits back into exactly
// that seq, incarnation and batch.
func TestSeqFrameAllocatesOnce(t *testing.T) {
	entries := make([]memtable.Entry, 64)
	for i := range entries {
		entries[i] = memtable.Entry{Key: []byte{byte(i), 'k'}, Value: bytes.Repeat([]byte{byte(i)}, i), Tombstone: i%9 == 0}
	}
	var frame []byte
	if allocs := testing.AllocsPerRun(100, func() { frame = seqFrame(42, 7, entries) }); allocs != 1 {
		t.Errorf("a frame of %d entries takes %v allocations, want 1", len(entries), allocs)
	}
	seq, inc, body, err := splitSeq(frame)
	if err != nil || seq != 42 || inc != 7 {
		t.Fatalf("splitSeq = %d %d %v", seq, inc, err)
	}
	if !bytes.Equal(body, memtable.EncodeEntries(entries)) {
		t.Fatal("the frame's batch differs from EncodeEntries")
	}
}

func TestPingRoundTrip(t *testing.T) {
	seq, inc, err := decodePing(encodePing(99, 3))
	if err != nil || seq != 99 || inc != 3 {
		t.Fatalf("decodePing = %d %d %v", seq, inc, err)
	}
	if _, _, err := decodePing([]byte{1, 2}); err == nil {
		t.Fatal("short ping decoded")
	}
	if _, _, err := decodePing(make([]byte, 13)); err == nil {
		t.Fatal("oversized ping decoded")
	}
	// The ping's reply is the one reply frame, led by the seq so the
	// response router can demultiplex it without decoding the body.
	reply := encodeReply(1234, statusOK, []byte{12, 0, 0, 0})
	if got, ok := peekReplySeq(reply); !ok || got != 1234 {
		t.Fatalf("peekReplySeq on ping reply = %d %v", got, ok)
	}
	if _, status, body, err := splitReply(reply); err != nil || status != statusOK || len(body) != 4 || body[0] != 12 {
		t.Fatalf("splitReply on ping reply = %d %v %v", status, body, err)
	}
}

func TestGetResponseDecodeErrors(t *testing.T) {
	if _, _, _, err := splitReply([]byte{0, 50, 0, 0, 0}); err == nil {
		t.Fatal("headerless reply split")
	}
	share := encodeSSIDs([]uint64{1, 2, 3})
	if _, err := decodeSSIDs(share[:len(share)-1]); err == nil {
		t.Fatal("truncated ssids decoded")
	}
	if ids, err := decodeSSIDs(nil); err != nil || len(ids) != 0 {
		t.Fatalf("empty SSID list = %v %v", ids, err)
	}
}

func TestMetricsSnapshotComplete(t *testing.T) {
	var m Metrics
	m.PutsLocal.Add(3)
	m.SharedSSTReads.Add(7)
	m.WAL.RecordsAppended.Add(11)
	snap := m.Snapshot()
	if snap["puts_local"] != 3 || snap["shared_sst_reads"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["wal_records_appended"] != 11 {
		t.Fatalf("snapshot is missing the WAL counters: %v", snap)
	}
	// The exact key set: 44 core counters, 7 wal_, 5 manifest_ and 5
	// scrub. bench/ reads its per-layer figures by these names.
	want := []string{
		"bad_requests", "circuits_closed", "circuits_opened",
		"compaction_bytes_written", "compactions",
		"degraded", "degraded_transitions", "dups_dropped", "flushes", "get_retries",
		"gets_local", "gets_remote", "iterators_open", "local_cache_hits",
		"manifest_edits", "manifest_edits_recovered", "manifest_rotate_errors",
		"manifest_rotations", "manifest_tails_truncated", "memtable_hits",
		"migrated_pairs", "migration_retries", "migrations", "pairs_lost",
		"park_overflows", "parked_batches", "probes_sent", "put_sync_retries",
		"puts_local", "puts_remote", "puts_shed", "puts_sync", "quarantined_tables",
		"reclaims", "recoveries", "redelivered_batches", "remote_cache_hits",
		"repair_failures", "repairs", "replies_unclaimed", "scan_pages",
		"scan_pairs", "scan_retries", "scan_unlinks_deferred", "scans",
		"scans_expired", "scrub_bytes", "scrub_corruptions", "shared_sst_reads",
		"sstable_hits", "sstable_probes", "stall_ns_total", "stalls",
		"tables_scrubbed", "wal_bytes_appended", "wal_fsyncs", "wal_group_commits",
		"wal_records_appended", "wal_records_recovered", "wal_segments_recovered",
		"wal_segments_truncated",
	}
	if got := slices.Sorted(maps.Keys(snap)); !slices.Equal(got, want) {
		t.Fatalf("snapshot keys = %q\nwant %q", got, want)
	}
	// An open database points Readers at its device's reader-cache
	// counters, which add their four keys.
	m.Readers = &stats.ReaderCache{}
	m.Readers.NegHits.Add(2)
	snap = m.Snapshot()
	want = append(want, "reader_cache_evictions", "reader_cache_hits",
		"reader_cache_misses", "reader_cache_neg_hits")
	slices.Sort(want)
	if got := slices.Sorted(maps.Keys(snap)); !slices.Equal(got, want) || snap["reader_cache_neg_hits"] != 2 {
		t.Fatalf("snapshot with reader-cache counters = %v", snap)
	}
	// The per-rank loss breakdown appears only for owners that lost pairs.
	m.addPairsLost(3, 5)
	snap = m.Snapshot()
	if snap["pairs_lost"] != 5 || snap["pairs_lost_rank_3"] != 5 {
		t.Fatalf("per-rank loss breakdown missing: %v", snap)
	}
}

func TestOptionStringers(t *testing.T) {
	if Relaxed.String() != "relaxed" || Sequential.String() != "sequential" {
		t.Fatal("Consistency.String broken")
	}
	if RDWR.String() != "rdwr" || WRONLY.String() != "wronly" || RDONLY.String() != "rdonly" {
		t.Fatal("Protection.String broken")
	}
}

func TestDefaultOptionsFilled(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MemTableCapacity <= 0 || o.StallSoftDepth <= 0 || o.Hash == nil {
		t.Fatalf("withDefaults left zero fields: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{MemTableCapacity: 42, StallSoftDepth: 7}.withDefaults()
	if o2.MemTableCapacity != 42 || o2.StallSoftDepth != 7 {
		t.Fatalf("withDefaults clobbered explicit values: %+v", o2)
	}
}
