package core

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestGetRequestRoundTrip(t *testing.T) {
	f := func(key []byte, group int16, seqMode bool, seq uint64) bool {
		in := getRequest{Seq: seq, Key: key, Group: int(group), SeqMode: seqMode}
		out, err := decodeGetRequest(encodeGetRequest(in))
		if err != nil {
			return false
		}
		return out.Seq == in.Seq && bytes.Equal(out.Key, in.Key) &&
			out.Group == in.Group && out.SeqMode == in.SeqMode
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
	bad := make([]byte, 21)
	bad[8] = 100
	if _, err := decodeGetRequest(bad); err == nil {
		t.Fatal("truncated key decoded")
	}
}

func TestGetResponseRoundTrip(t *testing.T) {
	f := func(status uint8, value []byte, ssids []uint64, seq uint64, errMsg string) bool {
		in := getResponse{Seq: seq, Status: int(status % 7), Value: value, SSIDs: ssids, Err: errMsg}
		out, err := decodeGetResponse(encodeGetResponse(in))
		if err != nil {
			return false
		}
		if out.Seq != in.Seq || out.Status != in.Status ||
			!bytes.Equal(out.Value, in.Value) || out.Err != in.Err {
			return false
		}
		if len(out.SSIDs) != len(in.SSIDs) {
			return false
		}
		for i := range in.SSIDs {
			if out.SSIDs[i] != in.SSIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	f := func(seq uint64, failed bool, msg string) bool {
		in := ackRecord{status: ackOK}
		if failed {
			in = ackRecord{status: ackFailed, msg: msg}
		}
		gotSeq, out, err := decodeAck(encodeAck(seq, in))
		if err != nil {
			return false
		}
		return gotSeq == seq && out.status == in.status && out.msg == in.msg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeAck(nil); err == nil {
		t.Fatal("nil ack decoded")
	}
	if _, _, err := decodeAck(make([]byte, 8)); err == nil {
		t.Fatal("statusless ack decoded")
	}
}

func TestPrependSplitSeq(t *testing.T) {
	seq, inc, body, err := splitSeq(prependSeq(42, 7, []byte("payload")))
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
	aseq, status, ainc, err := decodePingAck(encodePingAck(7, ackFailed, 12))
	if err != nil || aseq != 7 || status != ackFailed || ainc != 12 {
		t.Fatalf("decodePingAck = %d %d %d %v", aseq, status, ainc, err)
	}
	if _, _, _, err := decodePingAck(make([]byte, 12)); err == nil {
		t.Fatal("short ping ack decoded")
	}
	// The ack must lead with the seq so the response router can
	// demultiplex it without decoding the body.
	if got, ok := peekReplySeq(encodePingAck(1234, ackOK, 1)); !ok || got != 1234 {
		t.Fatalf("peekReplySeq on ping ack = %d %v", got, ok)
	}
}

func TestGetResponseDecodeErrors(t *testing.T) {
	if _, err := decodeGetResponse(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := decodeGetResponse([]byte{0, 50, 0, 0, 0}); err == nil {
		t.Fatal("truncated value decoded")
	}
	// valid status+empty value, then truncated ssid table
	ok := encodeGetResponse(getResponse{Status: getSearchShare, SSIDs: []uint64{1, 2, 3}})
	if _, err := decodeGetResponse(ok[:len(ok)-8]); err == nil {
		t.Fatal("truncated ssids decoded")
	}
	if _, err := decodeGetResponse(ok[:6]); err == nil {
		t.Fatal("missing ssid count decoded")
	}
}

func TestPutOneRoundTrip(t *testing.T) {
	f := func(key, value []byte, tomb bool) bool {
		in := putOne{Key: key, Value: value, Tombstone: tomb}
		out, err := decodePutOne(encodePutOne(in))
		if err != nil {
			return false
		}
		return bytes.Equal(out.Key, in.Key) && bytes.Equal(out.Value, in.Value) && out.Tombstone == in.Tombstone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPutOneDecodeErrors(t *testing.T) {
	if _, err := decodePutOne(nil); err == nil {
		t.Fatal("nil decoded")
	}
	// A batch of 2 entries is not a valid putOne.
	two := append([]byte{2, 0, 0, 0},
		1, 0, 0, 0, 0, 0, 0, 0, 0, 'a',
		1, 0, 0, 0, 0, 0, 0, 0, 0, 'b')
	if _, err := decodePutOne(two); err == nil {
		t.Fatal("two-entry batch decoded as putOne")
	}
}

func TestCounterWait(t *testing.T) {
	c := newCounter()
	c.add(2)
	done := make(chan struct{})
	go func() {
		c.wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("wait returned with count 2")
	case <-time.After(10 * time.Millisecond):
	}
	c.done()
	select {
	case <-done:
		t.Fatal("wait returned with count 1")
	case <-time.After(10 * time.Millisecond):
	}
	c.done()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("wait did not return at zero")
	}
	if c.value() != 0 {
		t.Fatalf("value = %d", c.value())
	}
	c.wait() // at zero: returns immediately
}

func TestCounterConcurrent(t *testing.T) {
	c := newCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.add(1)
				c.done()
			}
		}()
	}
	wg.Wait()
	c.wait()
	if c.value() != 0 {
		t.Fatalf("value = %d", c.value())
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
	if len(snap) != 62 {
		t.Fatalf("snapshot has %d fields; update Snapshot when adding metrics", len(snap))
	}
	if _, ok := snap["pairs_lost"]; !ok {
		t.Fatalf("snapshot is missing the recovery counters: %v", snap)
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
