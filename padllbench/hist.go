package main

import "math/bits"

// hist is a log-linear latency histogram over non-negative int64 values
// (nanoseconds). Values below 256 are exact; above, each power of two is
// split into 128 buckets, so a reported percentile is within 1/256 of
// the true value. The buckets are allocated once, so recording never
// allocates while the clock runs.
type hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histBuckets covers every int64: the highest exponent is 63-histSubBits.
	histBuckets = (64 - histSubBits) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histBounds returns the smallest and largest value bucket i holds.
func histBounds(i int) (lo, hi uint64) {
	if i < 2*histSub {
		return uint64(i), uint64(i)
	}
	e := uint(i/histSub - 1)
	m := uint64(i%histSub + histSub)
	return m << e, (m+1)<<e - 1
}

// record adds one value; negative values count as 0.
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), placed
// within its bucket by linear interpolation over the bucket's count, or 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := histBounds(i)
			pos := (float64(rank-seen) - 0.5) / float64(c)
			return float64(lo) + pos*float64(hi-lo+1)
		}
		seen += c
	}
	return float64(h.max)
}
