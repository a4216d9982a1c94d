package memtable

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntries feeds DecodeEntries the bytes of a migration batch or a
// scan page as a peer might send them. It must never panic, and every batch
// it accepts must re-encode through EncodeEntries to exactly the bytes it
// was decoded from: a decoder that accepts more than the encoder writes is a
// second, undocumented format. The seed corpus is committed under
// testdata/fuzz/FuzzDecodeEntries.
func FuzzDecodeEntries(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeEntries(data)
		if err != nil {
			return
		}
		if re := EncodeEntries(entries); !bytes.Equal(re, data) {
			t.Fatalf("batch of %d entries re-encodes to %x, want %x", len(entries), re, data)
		}
	})
}
