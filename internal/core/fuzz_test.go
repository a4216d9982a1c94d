package core

import (
	"bytes"
	"testing"

	"papyruskv/internal/memtable"
)

// FuzzWireDecode feeds one input to every decoder of a cross-rank frame:
// the request formats, the reply frame's header split and the response
// router's seq peek, and the bodies they carry. No decoder may panic on a
// peer's bytes, and every frame a decoder accepts must re-encode to exactly
// the bytes it was decoded from — a decoder that accepts more than its
// encoder writes is a second, undocumented wire format.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeGetRequest(getRequest{Seq: 1, Key: []byte("key"), Group: 2}))
	f.Add(encodeScanRequest(scanRequest{Seq: 3, ScanID: 4, Op: scanOpOpen, MaxBytes: 256, Lo: []byte("a"), Hi: []byte("z")}))
	f.Add(seqFrame(5, 1, []memtable.Entry{{Key: []byte("k"), Value: []byte("v")}}))
	f.Add(encodePing(6, 2))
	f.Add(encodeReply(7, statusShare, encodeSSIDs([]uint64{1, 2})))
	f.Add(encodeReply(8, statusRankFailed, []byte("papyruskv: rank failed: killed")))

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, ok := peekReplySeq(data)
		if rseq, status, body, err := splitReply(data); err == nil {
			if !ok || seq != rseq {
				t.Fatalf("peekReplySeq = %d %v on a reply splitReply reads as seq %d", seq, ok, rseq)
			}
			if re := encodeReply(rseq, status, body); !bytes.Equal(re, data) {
				t.Fatalf("reply re-encodes to %x", re)
			}
			if ids, err := decodeSSIDs(body); err == nil && !bytes.Equal(encodeSSIDs(ids), body) {
				t.Fatalf("SSID list %v re-encodes differently", ids)
			}
		}
		if r, err := decodeGetRequest(data); err == nil && !bytes.Equal(encodeGetRequest(r), data) {
			t.Fatalf("get request %+v re-encodes differently", r)
		}
		if r, err := decodeScanRequest(data); err == nil && !bytes.Equal(encodeScanRequest(r), data) {
			t.Fatalf("scan request %+v re-encodes differently", r)
		}
		if seq, inc, err := decodePing(data); err == nil && !bytes.Equal(encodePing(seq, inc), data) {
			t.Fatalf("ping re-encodes differently")
		}
		if seq, inc, body, err := splitSeq(data); err == nil {
			if !bytes.Equal(append(appendSeq(nil, seq, inc), body...), data) {
				t.Fatalf("reliable request re-encodes differently")
			}
			if es, err := memtable.DecodeEntries(body); err == nil && !bytes.Equal(seqFrame(seq, inc, es), data) {
				t.Fatalf("entry batch of %d re-encodes differently", len(es))
			}
		}
	})
}
