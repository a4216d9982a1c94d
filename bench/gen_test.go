package main

import (
	"bytes"
	"sort"
	"testing"

	"papyruskv/internal/workload"
)

func TestFillValueMatchesWorkload(t *testing.T) {
	for _, size := range []int{1, 5, 8, 16, 128, 4096} {
		v := newValuer(size)
		var buf []byte
		for _, idx := range []int{0, 1, 9, 61, 62, 63, 12345, 1499999, 123456789} {
			buf = v.fill(buf, idx)
			if want := workload.Value(size, idx); !bytes.Equal(buf, want) {
				t.Fatalf("size %d idx %d: got %q, workload.Value gives %q", size, idx, buf, want)
			}
			if got, ok := tagIndex(buf); size >= 16 && (!ok || got != idx) {
				t.Fatalf("size %d: tagIndex(%q) = %d, %v; want %d", size, buf, got, ok, idx)
			}
		}
	}
	for _, bad := range []string{"", "val-", "val--x", "val-12", "vax-12-", "val-1x-"} {
		if _, ok := tagIndex([]byte(bad)); ok {
			t.Errorf("tagIndex(%q) accepted", bad)
		}
	}
}

func opStream(seed uint64, n int) []op {
	g := opGen{
		rng: newRNG(seed, 1, 0), m: mix{get: 50, absent: 10, update: 20, insert: 10, scan: 10},
		pick: scrambledZipf(10000, zipfTheta), nAbsent: 100, nScan: 9900,
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := opStream(42, 5000), opStream(42, 5000), opStream(43, 5000)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two streams of one seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("%d of %d ops equal under different seeds", same, len(a))
	}
	var kinds [numOpKinds]int
	inserts := 0
	for _, o := range a {
		kinds[o.kind]++
		if o.kind == opInsert {
			if o.key != inserts {
				t.Fatalf("insert %d got key %d: inserts must be sequential", inserts, o.key)
			}
			inserts++
		}
	}
	for k, want := range [numOpKinds]int{2500, 500, 1000, 500, 500} {
		if kinds[k] < want*8/10 || kinds[k] > want*12/10 {
			t.Errorf("op kind %d drawn %d times of 5000, want about %d", k, kinds[k], want)
		}
	}
	if in1, in2 := genInputs(specs[4], runCfg{seconds: 9, scale: 0.01}, 5), genInputs(specs[4], runCfg{seconds: 9, scale: 0.01}, 5); !bytes.Equal(bytes.Join(in1.keys, nil), bytes.Join(in2.keys, nil)) {
		t.Error("genInputs is not deterministic in its seed")
	}
}

// TestZipfSkew: under theta 0.99 the hottest 1 % of keys must draw more
// than 30 % of the picks; uniform must not.
func TestZipfSkew(t *testing.T) {
	const n, picks = 100000, 400000
	top := func(pick chooser) float64 {
		rng := newRNG(9, 0, 0)
		counts := make([]int, n)
		for i := 0; i < picks; i++ {
			k := pick(rng)
			if k < 0 || k >= n {
				t.Fatalf("pick %d outside [0, %d)", k, n)
			}
			counts[k]++
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		hot := 0
		for _, c := range counts[:n/100] {
			hot += c
		}
		return float64(hot) / picks
	}
	if share := top(scrambledZipf(n, zipfTheta)); share <= 0.30 {
		t.Errorf("zipfian: top 1 %% of keys drew %.1f %% of picks, want > 30 %%", 100*share)
	}
	if share := top(uniform(n)); share > 0.05 {
		t.Errorf("uniform: top 1 %% of keys drew %.1f %% of picks", 100*share)
	}
}
