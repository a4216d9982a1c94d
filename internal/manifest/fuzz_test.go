package manifest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// fuzzSeedFrames builds the seed logs the committed corpus under
// testdata/fuzz/FuzzManifestDecode mirrors: whole logs, a snapshot mid-log,
// a frame of the level-less predecessor format (kind 1 — must be refused),
// torn tails at both boundary kinds, a flipped checksum, an unknown frame
// kind, and a payload whose internal lengths overrun it behind a valid
// checksum.
func fuzzSeedFrames() [][]byte {
	t1 := TableMeta{SSID: 1, Level: 0, DataBytes: 64, Entries: 3,
		DataCRC: 0x11111111, IndexCRC: 0x22222222, BloomCRC: 0x33333333,
		MinKey: []byte("aaa"), MaxKey: []byte("mmm")}
	t2 := TableMeta{SSID: 2, Level: 1, DataBytes: 128, Entries: 7,
		DataCRC: 0x44444444, IndexCRC: 0x55555555, BloomCRC: 0x66666666,
		MinKey: []byte("nnn"), MaxKey: []byte("zzz")}

	one := appendFrame(nil, frameEdit, Edit{Add: []TableMeta{t1}, WALEpoch: 1})

	multi := appendFrame(nil, frameEdit, Edit{Add: []TableMeta{t1}, WALEpoch: 1})
	multi = appendFrame(multi, frameEdit, Edit{Add: []TableMeta{t2}, Checkpoint: "ckpt/g1"})
	multi = appendFrame(multi, frameSnapshot, Edit{Add: []TableMeta{t2}, NextSSID: 3, WALEpoch: 2})
	multi = appendFrame(multi, frameEdit, Edit{Delete: []uint64{2}, NextSSID: 5})

	badCRC := append([]byte(nil), one...)
	badCRC[0] ^= 0xff

	badKind := append([]byte(nil), one...)
	badKind[frameHeader] = 99 // payload[0] is the frame kind; CRC now stale too

	// A frame whose header says more adds than the payload holds, behind a
	// recomputed-valid checksum: decodePayload's overrun checks must fire.
	overrun := appendFrame(nil, frameEdit, Edit{Add: []TableMeta{t1}})
	overrun[frameHeader+17] = 0xff // nAdd
	reseal(overrun)

	return [][]byte{
		{},                   // empty log
		one,                  // single edit
		multi,                // edits + snapshot + post-snapshot edit
		legacyV1Frame(),      // predecessor-format frame: must be ErrCorrupt
		multi[:len(multi)-5], // torn payload
		multi[:3],            // torn header
		badCRC,               // flipped checksum
		badKind,              // unknown kind (fails the CRC first)
		overrun,              // lengths overrun a checksum-valid payload
	}
}

// legacyV1Frame returns one checksum-valid edit frame of the level-less
// predecessor format (kind 1), which this package does not decode.
func legacyV1Frame() []byte {
	frame := appendFrame(nil, frameEdit, Edit{NextSSID: 2})
	frame[frameHeader] = 1 // payload[0] is the frame kind
	reseal(frame)
	return frame
}

// reseal recomputes the first frame's checksum so structural damage inside
// the payload is reachable past the CRC gate.
func reseal(frame []byte) {
	plen := binary.LittleEndian.Uint32(frame[4:])
	p := frame[frameHeader : frameHeader+int(plen)]
	binary.LittleEndian.PutUint32(frame, crc32.Checksum(p, crcTable))
}

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder and
// checks the contract Open's replay — and the scrubber's read-back — depend
// on: any input either composes cleanly, truncates as a torn tail, or
// reports typed ErrCorrupt; never a panic, never an edit the encoder could
// not have written. Mirrors FuzzWALDecode.
func FuzzManifestDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		edits, clean, err := decodeFrames(in)
		if clean < 0 || clean > len(in) {
			t.Fatalf("clean = %d out of range [0, %d]", clean, len(in))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v is not typed ErrCorrupt", err)
		}
		if !bytes.Equal(in, data) {
			t.Fatal("decodeFrames mutated its input")
		}
		// Compose must agree with decodeFrames on the damage taxonomy.
		if _, cclean, cerr := Compose(in); cclean != clean || (cerr == nil) != (err == nil) {
			t.Fatalf("Compose (clean %d, err %v) disagrees with decodeFrames (clean %d, err %v)",
				cclean, cerr, clean, err)
		}
		// Round-trip: every edit the decoder vouches for must re-encode and
		// re-decode to itself — the decoder cannot invent structure the
		// encoder would not write.
		var re []byte
		for _, e := range edits {
			re = appendFrame(re, frameEdit, e)
		}
		edits2, clean2, err2 := decodeFrames(re)
		if err2 != nil || clean2 != len(re) {
			t.Fatalf("re-encoded edits fail to decode: clean %d/%d, err %v", clean2, len(re), err2)
		}
		if len(edits) != len(edits2) {
			t.Fatalf("round trip changed edit count %d -> %d", len(edits), len(edits2))
		}
		for i := range edits {
			if !reflect.DeepEqual(edits[i], edits2[i]) {
				t.Fatalf("edit %d changed across round trip:\n  %#v\n  %#v", i, edits[i], edits2[i])
			}
		}
	})
}
