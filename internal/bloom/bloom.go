// Package bloom implements the bloom filter PapyrusKV attaches to every
// SSTable. Given an arbitrary key the filter reports whether the key may
// exist or definitely does not exist in the SSTable's data file, letting a
// get operation skip the SSIndex/SSData open entirely on a definite miss.
//
// The filter uses double hashing (Kirsch-Mitzenmacher) over two independent
// 64-bit FNV-1a variants, the standard construction that preserves the
// asymptotic false-positive rate of k independent hash functions.
package bloom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Filter is a bloom filter over byte-string keys. The zero value is not
// usable; construct with New or Load.
type Filter struct {
	bits   []byte
	nbits  uint64
	hashes uint32
	n      uint64 // number of keys added
}

// New creates a filter sized for the expected number of keys n at the target
// false-positive probability p (clamped to [1e-9, 0.5]). n is clamped to at
// least 1 so an empty SSTable still has a valid filter.
func New(n int, p float64) *Filter {
	if n < 1 {
		n = 1
	}
	if p < 1e-9 {
		p = 1e-9
	}
	if p > 0.5 {
		p = 0.5
	}
	// Optimal parameters: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > maxHashes {
		k = maxHashes
	}
	return &Filter{bits: make([]byte, (m+7)/8), nbits: m, hashes: k}
}

// hash2 computes two independent 64-bit hashes of key.
func hash2(key []byte) (uint64, uint64) {
	const (
		offset1 = 14695981039346656037
		prime1  = 1099511628211
		offset2 = 0x9e3779b97f4a7c15
	)
	h1 := uint64(offset1)
	for _, b := range key {
		h1 ^= uint64(b)
		h1 *= prime1
	}
	// Second hash: FNV over the bytes in reverse with a different offset,
	// then an avalanche mix so h2 is independent of h1.
	h2 := uint64(offset2)
	for i := len(key) - 1; i >= 0; i-- {
		h2 ^= uint64(key[i])
		h2 *= prime1
	}
	h2 ^= h2 >> 33
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	return h1, h2
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := hash2(key)
	for i := uint32(0); i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		f.bits[bit>>3] |= 1 << (bit & 7)
	}
	f.n++
}

// MayContain reports whether key may be present. A false return is
// definitive: the key was never added.
func (f *Filter) MayContain(key []byte) bool {
	h1, h2 := hash2(key)
	for i := uint32(0); i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of keys added.
func (f *Filter) Count() uint64 { return f.n }

// SizeBytes returns the size of the bit vector in bytes.
func (f *Filter) SizeBytes() int { return len(f.bits) }

const (
	magic = 0x504b5642 // "PKVB"
	// header is the marshalled size of magic, nbits, hashes and key count.
	header = 4 + 8 + 4 + 8
	// maxHashes bounds the probes per key: New never picks more, and Load
	// refuses a file that claims more, since MayContain loops once per hash.
	maxHashes = 30
)

// Marshal serialises the filter into the on-NVM bloom file format:
// magic, nbits, hashes, key count, then the bit vector.
func (f *Filter) Marshal() []byte {
	buf := make([]byte, header+len(f.bits))
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint64(buf[4:], f.nbits)
	binary.LittleEndian.PutUint32(buf[12:], f.hashes)
	binary.LittleEndian.PutUint64(buf[16:], f.n)
	copy(buf[header:], f.bits)
	return buf
}

// Load parses a filter previously produced by Marshal. It accepts exactly
// the images Marshal can produce: the bit vector must hold nbits rounded up
// to whole bytes with nothing after it, and the hash count must lie in
// [1, maxHashes]. A filter it returns re-marshals byte for byte and can be
// probed without indexing past its bits.
func Load(data []byte) (*Filter, error) {
	if len(data) < header {
		return nil, fmt.Errorf("bloom: short filter file (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != magic {
		return nil, fmt.Errorf("bloom: bad magic %#x", binary.LittleEndian.Uint32(data[0:]))
	}
	nbits := binary.LittleEndian.Uint64(data[4:])
	hashes := binary.LittleEndian.Uint32(data[12:])
	n := binary.LittleEndian.Uint64(data[16:])
	if hashes == 0 || hashes > maxHashes || nbits == 0 {
		return nil, fmt.Errorf("bloom: invalid parameters nbits=%d hashes=%d", nbits, hashes)
	}
	// Compared in bits against what is present, so a huge nbits cannot wrap
	// the byte count to something small.
	vec := uint64(len(data) - header)
	if nbits > vec*8 || (nbits+7)/8 != vec {
		return nil, fmt.Errorf("bloom: %d-byte bit vector for nbits=%d", vec, nbits)
	}
	return &Filter{bits: bytes.Clone(data[header:]), nbits: nbits, hashes: hashes, n: n}, nil
}
