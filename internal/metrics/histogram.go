package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records latency observations into exponentially sized buckets
// and supports approximate quantiles. PADLL stages use it for per-queue
// service latency; the overhead experiment (§IV-A) uses it to compare
// baseline against passthrough interposition.
type Histogram struct {
	// obs mirrors total so readers can detect "never observed" without
	// the mutex: a fleet collect reads three quantiles per queue per
	// round, and most queues on most stages are idle — their histograms
	// answer with one atomic load instead of a lock and a bucket walk.
	obs atomic.Int64

	mu     sync.Mutex
	bounds []float64 // upper bound (seconds) of each bucket, ascending
	counts []int64   // len(bounds)+1, last bucket is overflow
	total  int64
	sum    float64
	min    float64
	max    float64
}

// NewLatencyHistogram returns a histogram with exponentially spaced
// bucket bounds from 100 ns to ~100 s (factor 2 per bucket).
func NewLatencyHistogram() *Histogram {
	var bounds []float64
	for b := 100e-9; b < 100; b *= 2 {
		bounds = append(bounds, b)
	}
	return NewHistogram(bounds)
}

// NewHistogram returns a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	sort.Float64s(cp)
	return &Histogram{
		bounds: cp,
		counts: make([]int64, len(cp)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records one observation expressed in seconds.
//
//lint:coldpath latency is only observed on the shaping path, after the request already blocked in the bucket
func (h *Histogram) ObserveSeconds(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
	h.obs.Store(h.total)
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the mean observation in seconds (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest observation in seconds (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation in seconds (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper-bound estimate for the q-th quantile
// (0 < q <= 1) using the bucket upper bound containing the rank.
func (h *Histogram) Quantile(q float64) float64 {
	if h.obs.Load() == 0 {
		return 0 // never observed: what the locked path would answer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// Quantiles3 answers three quantile queries in one lock acquisition —
// the shape of a queue-stats snapshot (p50/p95/p99) — and answers a
// never-observed histogram with zeros for the cost of one atomic load.
func (h *Histogram) Quantiles3(q1, q2, q3 float64) (v1, v2, v3 float64) {
	if h.obs.Load() == 0 {
		return 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q1), h.quantileLocked(q2), h.quantileLocked(q3)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				// A bucket's upper bound can lie above every sample in
				// it; no quantile may exceed the largest sample.
				return math.Min(h.bounds[i], h.max)
			}
			return h.max
		}
	}
	return h.max
}

// String renders a human-readable one-line summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3gs p50=%.3gs p99=%.3gs max=%.3gs",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	return b.String()
}
