package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the replay decoder and checks the
// contract Open's recovery depends on: any input either truncates cleanly
// (torn tail) or reports typed corruption — never a panic, and never a
// bogus record. The committed corpus under testdata/fuzz/FuzzWALDecode
// seeds the interesting shapes: whole logs, torn tails at every boundary
// kind, a flipped checksum, an oversized length, unknown flag bits, and
// frames whose internal lengths disagree with a valid checksum.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, Record{Seq: 1, Epoch: 1, Key: []byte("k"), Value: []byte("v")}))
	two := AppendRecord(nil, Record{Seq: 1, Epoch: 1, Key: []byte("key"), Value: []byte("value")})
	two = AppendRecord(two, Record{Seq: 2, Epoch: 1, Tombstone: true, Key: []byte("gone")})
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn payload
	f.Add(two[:3])          // torn header
	bad := append([]byte(nil), two...)
	bad[0] ^= 0xff // checksum
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := DecodeAll(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean = %d out of range [0, %d]", clean, len(data))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v is not typed ErrCorrupt", err)
		}
		// The decoded records must re-encode byte-identically to the clean
		// prefix: every record DecodeAll vouches for is one AppendRecord
		// actually wrote, so replay can never invent an entry.
		var re []byte
		for _, r := range recs {
			re = AppendRecord(re, r)
		}
		if !bytes.Equal(re, data[:clean]) {
			t.Fatalf("decoded records re-encode to %d bytes != clean prefix of %d", len(re), clean)
		}
		// Aliasing: records must be copies, detached from the input.
		for i := range data {
			data[i] = 0xaa
		}
		var re2 []byte
		for _, r := range recs {
			re2 = AppendRecord(re2, r)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("decoded records alias the input buffer")
		}
	})
}

// FuzzLogOps drives a log through a sequence of operations decoded from the
// input, one byte each (the first byte is skipped: it once picked the
// log's sync mode, and the committed corpus keeps it), and checks
// it against an in-memory model of its segments:
//
//	b%7 == 0  Append a record of (b>>3)*16 value bytes (b == 7: a tombstone)
//	b%7 == 1  Append a record longer than a block (at most two per input)
//	b%7 == 2  Rotate
//	b%7 == 3  Commit
//	b%7 == 4  GroupCommit
//	b%7 == 5  Remove the oldest sealed segment not yet removed
//	b%7 == 6  Close, then Recover
//
// After every Commit, GroupCommit and Close each sealed segment still on
// the device holds exactly the records appended between its cuts; a removed
// segment never reappears; and Recover returns every record of the
// segments not removed, in append order.
func FuzzLogOps(f *testing.F) {
	f.Add([]byte{1, 56, 14, 2, 56, 3, 5, 0, 6, 14})
	f.Add([]byte{0, 14, 1, 2, 5, 4, 56, 2, 6})
	f.Add([]byte{0, 2, 2, 7, 5, 5, 4, 6})
	f.Add([]byte{1, 14, 2, 56, 2, 5, 5, 3, 6, 14, 2, 4, 5, 6})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dev := testDevice(t)
		cfg := testConfig(dev)
		l, _, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type segment struct {
			name    string
			recs    []Record
			removed bool
		}
		var sealed []*segment // in rotation order
		var open []Record     // the records appended since the last cut
		var seq uint64
		bigs := 0
		// checkSealed checks the removed segments, and, when every cut is
		// written, the sealed segments' contents.
		checkSealed := func(after string, written bool) {
			for _, s := range sealed {
				if s.removed {
					if dev.Exists(s.name) {
						t.Fatalf("after %s: removed segment %s is back on the device", after, s.name)
					}
					continue
				}
				// A cut that follows no append waits for the next write to
				// open its segment: until then the empty segment has no file.
				if !written || len(s.recs) == 0 && !dev.Exists(s.name) {
					continue
				}
				data, err := dev.ReadFile(s.name)
				if err != nil {
					t.Fatalf("after %s: sealed segment %s: %v", after, s.name, err)
				}
				got, clean, err := DecodeAll(data)
				if err != nil || clean != len(data) || !sameRecords(got, s.recs) {
					t.Fatalf("after %s: sealed segment %s holds %v (clean %d of %d, err %v), want %v",
						after, s.name, seqs(got), clean, len(data), err, seqs(s.recs))
				}
			}
		}
		for _, b := range ops[1:] {
			switch b % 7 {
			case 0, 1:
				size := int(b>>3) * 16
				if b%7 == 1 {
					if bigs == 2 {
						continue
					}
					bigs++
					size = blockSize + int(b)
				}
				seq++
				r := Record{Seq: seq, Epoch: l.Epoch(), Key: []byte(fmt.Sprintf("k%04d", seq))}
				if b == 7 {
					r.Tombstone = true
				} else {
					r.Value = bytes.Repeat([]byte{byte(seq)}, size)
				}
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
				open = append(open, r)
			case 2:
				name, err := l.Rotate()
				if err != nil {
					t.Fatal(err)
				}
				sealed = append(sealed, &segment{name: name, recs: open})
				open = nil
			case 3:
				if err := l.Commit(); err != nil {
					t.Fatal(err)
				}
				checkSealed("Commit", true)
			case 4:
				if err := l.GroupCommit(); err != nil {
					t.Fatal(err)
				}
				checkSealed("GroupCommit", true)
			case 5:
				for _, s := range sealed {
					if !s.removed {
						if err := l.Remove(s.name); err != nil {
							t.Fatal(err)
						}
						s.removed = true
						break
					}
				}
				checkSealed("Remove", false)
			case 6:
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				checkSealed("Close", true)
				var want []Record
				for _, s := range sealed {
					if !s.removed {
						want = append(want, s.recs...)
					}
				}
				want = append(want, open...)
				var got []Record
				if l, got, err = Recover(cfg); err != nil {
					t.Fatal(err)
				}
				// Recover re-logs the survivors into the new epoch's first
				// segment, which is where the model continues.
				for i := range got {
					want[i].Epoch = got[i].Epoch
				}
				if !sameRecords(got, want) {
					t.Fatalf("Recover returned %v, want %v", seqs(got), seqs(want))
				}
				for i := range got {
					got[i].Epoch = l.Epoch()
				}
				sealed, open = nil, got
			}
		}
		l.Abandon()
	})
}
