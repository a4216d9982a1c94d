package main

import (
	"math/bits"
	"sort"
)

// hist is a log-bucketed latency histogram: 128 linear sub-buckets per
// power of two, so a recorded value is off by under 1 %, recording is a few
// instructions, and a client's millions of samples take 40 KB instead of a
// slice the garbage collector (and heap_mb) would see.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 40 octaves above the exact range cover 2^47 ns, about 39 hours.
	histBuckets = histSub * 41
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	b := (shift+1)<<histSubBits | int(v>>shift&(histSub-1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketBounds returns the half-open value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	shift := b>>histSubBits - 1
	base := uint64(histSub|b&(histSub-1)) << shift
	return float64(base), float64(base + 1<<shift)
}

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	h.max = max(h.max, v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// quantile returns the q-quantile in ns, interpolated inside its bucket by
// the sample's position among the bucket's samples, so two runs whose
// medians share a bucket still report the values they measured.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := bucketBounds(b)
			return min(lo+(hi-lo)*(target-seen)/float64(c), float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// median of a small sample; the mean of the middle two for an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}
