package main

import (
	"bytes"
	"math/rand/v2"

	"papyruskv"
)

// readBackKeys is how many written keys each rank reads back after the
// measured phase.
const readBackKeys = 1000

// sampleWritten picks key indices this rank knows were written: any
// preloaded key (whichever rank owns it) or one of the first inserted[c]
// keys of its client c's insert block.
func sampleWritten(sp *spec, in *inputs, inserted []int, rank int, rng *rand.Rand) []int {
	total := in.nPre
	for _, n := range inserted {
		total += n
	}
	idxs := make([]int, 0, readBackKeys)
	for len(idxs) < min(readBackKeys, total) {
		i := rng.IntN(total)
		if i >= in.nPre {
			i -= in.nPre
			c := 0
			for i >= inserted[c] {
				i -= inserted[c]
				c++
			}
			i += in.blockBase(sp, rank, c)
		}
		idxs = append(idxs, i)
	}
	return idxs
}

// readBack gets each sampled key and compares the whole value with the one
// its index generates; it returns how many came back wrong, absent or with
// an error.
func readBack(db *papyruskv.DB, keys [][]byte, idxs []int, valueSize int) (failed int) {
	val := newValuer(valueSize)
	var want []byte
	for _, i := range idxs {
		want = val.fill(want, i)
		if got, err := db.Get(keys[i]); err != nil || !bytes.Equal(got, want) {
			failed++
		}
	}
	return failed
}
