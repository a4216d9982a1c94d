package main

import (
	"math"
	"math/rand/v2"
	"strconv"
)

// Generators. Everything here is a pure function of the seed it is handed,
// so one -seed reproduces one run's keys and op order exactly; the store
// only ever sees what these produce.

// newRNG derives an independent stream for one (seed, rank, client) triple.
func newRNG(seed uint64, rank, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(rank)<<32|uint64(client)+1))
}

// chooser picks a key index in [0, n).
type chooser func(r *rand.Rand) int

func uniform(n int) chooser {
	return func(r *rand.Rand) int { return r.IntN(n) }
}

// zipfTheta is YCSB's default skew.
const zipfTheta = 0.99

// scrambledZipf is YCSB's scrambled Zipfian generator (Gray et al.'s
// algorithm): popularity ranks follow a Zipf law with exponent theta and
// are then hashed over [0, n), so the hot keys are spread over the key
// space — and over the ranks that own them — instead of clustering at one
// end.
func scrambledZipf(n int, theta float64) chooser {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	half := math.Pow(0.5, theta)
	alpha := 1 / (1 - theta)
	eta := (1 - math.Pow(2/float64(n), 1-theta)) / (1 - (1+half)/zetan)
	return func(r *rand.Rand) int {
		u := r.Float64()
		uz := u * zetan
		var rank int
		switch {
		case uz < 1:
			rank = 0
		case uz < 1+half:
			rank = 1
		default:
			rank = int(float64(n) * math.Pow(eta*u-eta+1, alpha))
		}
		return int(mix64(uint64(rank)) % uint64(n))
	}
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// opKind is what a client asks the store to do.
type opKind uint8

const (
	opGet    opKind = iota // get of a preloaded key; must return its value
	opAbsent               // get of a never-written key; must return ErrNotFound
	opUpdate               // put of a preloaded key
	opInsert               // put of a new unique key
	opScan                 // DB.Scan over scanLen consecutive preloaded keys
	numOpKinds
)

// mix is an op mix in percent; the fields sum to 100.
type mix struct {
	get, absent, update, insert, scan int
}

// op is one generated operation. key indexes the table its kind names:
// preloaded keys (opGet, opUpdate), absent keys (opAbsent), the sorted
// preloaded keys (opScan: the scan's first key), or the client's own insert
// block (opInsert: sequential).
type op struct {
	kind opKind
	key  int
}

// opGen yields one client's op stream.
type opGen struct {
	rng      *rand.Rand
	m        mix
	pick     chooser // over the preloaded keys
	nAbsent  int
	nScan    int // valid scan start positions
	inserted int
}

func (g *opGen) next() op {
	p := g.rng.IntN(100)
	switch {
	case p < g.m.get:
		return op{opGet, g.pick(g.rng)}
	case p < g.m.get+g.m.absent:
		return op{opAbsent, g.rng.IntN(g.nAbsent)}
	case p < g.m.get+g.m.absent+g.m.update:
		return op{opUpdate, g.pick(g.rng)}
	case p < g.m.get+g.m.absent+g.m.update+g.m.insert:
		g.inserted++
		return op{opInsert, g.inserted - 1}
	default:
		return op{opScan, g.rng.IntN(g.nScan)}
	}
}

// alphabet repeats internal/workload's (unexported) value alphabet;
// TestFillValueMatchesWorkload pins the two together.
const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// valuer writes workload.Value(size, idx) into a caller-owned buffer
// without allocating, so generating a value costs a memcpy rather than
// more than the put it feeds.
type valuer struct {
	size int
	rep  []byte // the alphabet repeated to cover any start offset + size
}

func newValuer(size int) *valuer {
	rep := make([]byte, 0, size+2*len(alphabet))
	for len(rep) < size+len(alphabet) {
		rep = append(rep, alphabet...)
	}
	return &valuer{size: size, rep: rep}
}

// fill returns buf[:size] holding the value of key index idx.
func (v *valuer) fill(buf []byte, idx int) []byte {
	buf = append(buf[:0], "val-"...)
	buf = strconv.AppendInt(buf, int64(idx), 10)
	buf = append(buf, '-')
	if len(buf) >= v.size {
		return buf[:v.size]
	}
	start := (idx + len(buf)) % len(alphabet)
	return append(buf, v.rep[start:start+v.size-len(buf)]...)
}

// tagIndex parses the key index out of a value's "val-<idx>-" tag.
func tagIndex(val []byte) (int, bool) {
	if len(val) < 6 || string(val[:4]) != "val-" {
		return 0, false
	}
	idx := 0
	for i := 4; i < len(val); i++ {
		c := val[i]
		if c == '-' {
			return idx, i > 4
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return 0, false
}
