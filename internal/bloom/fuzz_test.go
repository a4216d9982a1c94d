package bloom

import (
	"bytes"
	"testing"
)

// FuzzBloomLoad drives the bloom file parser with arbitrary bytes. An
// SSTable's filter is loaded once and probed by every get for the table's
// whole life, so Load must refuse anything MayContain cannot probe safely:
// a bit count that wraps or disagrees with the bytes present, trailing
// bytes, and a hash count that would turn one probe into billions of steps.
// The committed corpus under testdata/fuzz/FuzzBloomLoad seeds a filter as
// New builds it, an nbits of 2^64-1 over an empty vector (which once loaded
// and panicked on the first probe), and hand-damaged variants: a torn
// vector, a trailing byte, an nbits one past the vector, zero and huge hash
// counts.
func FuzzBloomLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add(New(10, 0.01).Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(data)
		if err != nil {
			return
		}
		// Every filter Load vouches for is one Marshal could have written.
		if re := g.Marshal(); !bytes.Equal(re, data) {
			t.Fatalf("loaded filter re-marshals to %d bytes that differ from the %d loaded", len(re), len(data))
		}
		for _, key := range [][]byte{nil, []byte("k"), data} {
			g.MayContain(key)
		}
	})
}
