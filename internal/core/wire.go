package core

import (
	"encoding/binary"
	"fmt"

	"papyruskv/internal/memtable"
)

// Message tags on the database's private request/response communicators.
const (
	// tagMigBatch carries a batch of migrated key-value pairs to their
	// owner rank (relaxed mode); acked with tagMigAck on replyComm.
	tagMigBatch = 1
	tagMigAck   = 2
	// tagPutOne carries a single synchronous put/delete (sequential
	// mode) as a one-entry batch; acked with tagPutAck.
	tagPutOne = 3
	tagPutAck = 4
	// tagGet carries a remote get request; answered with tagGetResp.
	tagGet     = 5
	tagGetResp = 6
	// tagShutdown stops a rank's message handler and response router
	// (sent to self on Close, on their respective communicators).
	tagShutdown = 7
	// tagPing is the circuit breaker's half-open probe: a tripped peer is
	// periodically pinged through the response router, and a healthy
	// answer (tagPingAck) closes the circuit. Both directions carry the
	// sender's incarnation number so either side can notice the other was
	// reborn since they last spoke.
	tagPing    = 8
	tagPingAck = 9
	// tagScan carries one remote-scan control message (open / next-page /
	// close); pages come back as tagScanResp on replyComm. The protocol is
	// a paged continuation: the owner parks the scan's pinned iterator in a
	// registry between requests, so one slow consumer holds a registry
	// entry and a snapshot pin — never a handler worker.
	tagScan     = 10
	tagScanResp = 11
)

// Every reply, whatever it answers, is one frame: [seq u64][status u8][body].
// The seq is the request's, so the response router demultiplexes replies by
// (tag, seq) without decoding further; the status is one of the reply
// statuses (reliable.go); the body is the answer — a value, an SSID list, a
// scan page, the responder's incarnation — or, under an error status, the
// owner's error text.
const replyHeader = 9

// encodeReply builds a reply frame around a copy of body.
func encodeReply(seq uint64, status byte, body []byte) []byte {
	frame := make([]byte, replyHeader, replyHeader+len(body))
	return sealReply(append(frame, body...), seq, status)
}

// sealReply writes the header of a frame whose body was built in place after
// replyHeader reserved bytes — the zero-copy path for scan pages.
func sealReply(frame []byte, seq uint64, status byte) []byte {
	binary.LittleEndian.PutUint64(frame, seq)
	frame[8] = status
	return frame
}

// splitReply undoes encodeReply; body aliases data.
func splitReply(data []byte) (seq uint64, status byte, body []byte, err error) {
	if len(data) < replyHeader {
		return 0, 0, nil, fmt.Errorf("core: short reply (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), data[8], data[replyHeader:], nil
}

// peekReplySeq extracts the leading sequence number; ok=false means the
// frame is too short to carry one and cannot be attributed to any caller.
func peekReplySeq(data []byte) (uint64, bool) {
	if len(data) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data), true
}

// getRequest is the remote get wire format: [seq u64][key len u32][group
// u64][key]. It carries the caller's storage group ID so the owner's handler
// can decide whether the caller may search the shared SSTables itself
// (§2.7), and the seq the reply echoes.
type getRequest struct {
	Seq   uint64
	Key   []byte
	Group int
}

func encodeGetRequest(r getRequest) []byte {
	out := make([]byte, 20, 20+len(r.Key))
	binary.LittleEndian.PutUint64(out, r.Seq)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint64(out[12:], uint64(int64(r.Group)))
	return append(out, r.Key...)
}

func decodeGetRequest(data []byte) (getRequest, error) {
	if len(data) < 20 {
		return getRequest{}, fmt.Errorf("core: short get request (%d bytes)", len(data))
	}
	klen := binary.LittleEndian.Uint32(data[8:])
	if uint64(len(data)-20) != uint64(klen) {
		return getRequest{}, fmt.Errorf("core: get request key length %d, frame holds %d", klen, len(data)-20)
	}
	return getRequest{
		Seq:   binary.LittleEndian.Uint64(data),
		Key:   data[20:len(data):len(data)],
		Group: int(int64(binary.LittleEndian.Uint64(data[12:]))),
	}, nil
}

// encodeSSIDs is the body of a statusShare get reply: the owner's candidate
// SSTables for the key, in probe order, as little-endian u64s.
func encodeSSIDs(ids []uint64) []byte {
	out := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, id)
	}
	return out
}

func decodeSSIDs(body []byte) ([]uint64, error) {
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("core: SSID list of %d bytes", len(body))
	}
	ids := make([]uint64, len(body)/8)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return ids, nil
}

// Reliable-request framing: migration batches and synchronous puts carry an
// 8-byte sequence number and the sender's 4-byte incarnation number ahead of
// their payload. The seq lets a sender retry without risking double
// application (the receiver's dedup window replays the original ack). The
// incarnation scopes the dedup window: a reborn sender restarts from its
// replayed WAL, so its seqs must not match acks recorded against its
// previous life.

// appendSeq appends the reliable-request header — the sequence number and
// the sender's incarnation — to dst.
func appendSeq(dst []byte, seq uint64, inc uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return binary.LittleEndian.AppendUint32(dst, inc)
}

// seqFrame builds a reliable request carrying entries: the header and the
// batch, encoded into one allocation that the request owns from then on
// (a retry resends it, a parked batch keeps it).
func seqFrame(seq uint64, inc uint32, entries []memtable.Entry) []byte {
	frame := appendSeq(make([]byte, 0, 12+memtable.BatchSize(entries)), seq, inc)
	return memtable.AppendEntries(frame, entries)
}

// splitSeq undoes appendSeq.
func splitSeq(data []byte) (uint64, uint32, []byte, error) {
	if len(data) < 12 {
		return 0, 0, nil, fmt.Errorf("core: short reliable request (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint32(data[8:]), data[12:], nil
}

// encodePing builds a half-open probe: [seq u64][sender incarnation u32]. A
// healthy responder's reply body is its own incarnation, as a u32.
func encodePing(seq uint64, inc uint32) []byte {
	out := make([]byte, 12)
	binary.LittleEndian.PutUint64(out, seq)
	binary.LittleEndian.PutUint32(out[8:], inc)
	return out
}

func decodePing(data []byte) (seq uint64, inc uint32, err error) {
	if len(data) != 12 {
		return 0, 0, fmt.Errorf("core: bad ping frame (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint32(data[8:]), nil
}

// Remote-scan control operations.
const (
	scanOpOpen  = 1 // open a scan over [Lo, Hi) and return page 0
	scanOpNext  = 2 // return page Page of an open scan
	scanOpClose = 3 // drop the scan; fire-and-forget, no reply
)

// scanRequest is the remote-scan control wire format. ScanID is allocated by
// the caller (from its sendSeq space, so it is unique per caller life) and
// keyed with the source rank at the owner; Seq is echoed by the reply for the
// response router. Page makes retries idempotent: the owner replays the
// previous page for a duplicate request instead of advancing.
type scanRequest struct {
	Seq      uint64
	ScanID   uint64
	Op       byte
	Page     uint32
	MaxBytes uint32
	Lo, Hi   []byte // only meaningful with scanOpOpen
}

func encodeScanRequest(r scanRequest) []byte {
	out := make([]byte, 33, 33+len(r.Lo)+len(r.Hi))
	binary.LittleEndian.PutUint64(out, r.Seq)
	binary.LittleEndian.PutUint64(out[8:], r.ScanID)
	out[16] = r.Op
	binary.LittleEndian.PutUint32(out[17:], r.Page)
	binary.LittleEndian.PutUint32(out[21:], r.MaxBytes)
	binary.LittleEndian.PutUint32(out[25:], uint32(len(r.Lo)))
	binary.LittleEndian.PutUint32(out[29:], uint32(len(r.Hi)))
	out = append(out, r.Lo...)
	return append(out, r.Hi...)
}

func decodeScanRequest(data []byte) (scanRequest, error) {
	if len(data) < 33 {
		return scanRequest{}, fmt.Errorf("core: short scan request (%d bytes)", len(data))
	}
	r := scanRequest{
		Seq:      binary.LittleEndian.Uint64(data),
		ScanID:   binary.LittleEndian.Uint64(data[8:]),
		Op:       data[16],
		Page:     binary.LittleEndian.Uint32(data[17:]),
		MaxBytes: binary.LittleEndian.Uint32(data[21:]),
	}
	loLen := binary.LittleEndian.Uint32(data[25:])
	hiLen := binary.LittleEndian.Uint32(data[29:])
	body := data[33:]
	if uint64(len(body)) != uint64(loLen)+uint64(hiLen) {
		return scanRequest{}, fmt.Errorf("core: scan request bounds of %d+%d bytes, frame holds %d", loLen, hiLen, len(body))
	}
	r.Lo = body[:loLen:loLen]
	r.Hi = body[loLen:len(body):len(body)]
	return r, nil
}

// A scan page's reply body is [done u8][EncodeEntries payload]: done marks
// the stream exhausted, after which the owner has already released the
// scan's pins. scanPageHeader is where the payload starts in the frame.
const scanPageHeader = replyHeader + 1
