package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucket scheme (HDR-style): values are durations in
// nanoseconds; every power-of-two octave above the resolution floor is cut
// into histSub linear sub-buckets, so the relative quantile error is
// bounded at 1/histSub (±6.25%) across the whole range while the bucket
// count stays fixed and small. One shared scheme for every histogram in
// the process keeps exposition and merging trivial.
//
//	bucket 0:                [0, 2^histMinShift)            — underflow
//	bucket 1+oct*histSub+sub: [(histSub+sub)<<e, (histSub+sub+1)<<e)
//	                          where e = histMinShift+oct-histSubBits
//
// The floor is 8.192µs — far below one queue-wait or epoch tick — and the
// top octave ends at 2^40ns ≈ 18.3 minutes; anything past that clamps
// into the last bucket.
const (
	histMinShift = 13 // 2^13 ns = 8.192µs resolution floor
	histSubBits  = 4
	histSub      = 1 << histSubBits // 16 linear sub-buckets per octave
	histOctaves  = 27               // top octave reaches 2^40 ns
	histBuckets  = 1 + histOctaves*histSub
)

// Histogram is a fixed-size log-linear latency histogram. Observe is
// lock-free and allocation-free (a handful of atomic adds), safe for any
// number of concurrent writers; readers (Quantile, Count, exposition) see
// a possibly-torn but monotone view, which is all a scraper needs.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds, high-water
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram. A zero Histogram is also ready
// to use; the constructor exists for symmetry with the registry getters.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIdx maps a duration in nanoseconds to its bucket.
func bucketIdx(v int64) int {
	if v < 1<<histMinShift {
		return 0 // underflow (and negatives, which cannot be latencies)
	}
	u := uint64(v)
	high := bits.Len64(u) - 1 // position of the MSB, >= histMinShift
	oct := high - histMinShift
	sub := int((u >> (uint(high) - histSubBits)) & (histSub - 1))
	idx := 1 + oct*histSub + sub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper returns the exclusive upper bound of a bucket, in ns.
func bucketUpper(idx int) int64 {
	if idx == 0 {
		return 1 << histMinShift
	}
	idx--
	oct := idx / histSub
	sub := idx % histSub
	return int64(uint64(histSub+sub+1) << uint(histMinShift+oct-histSubBits))
}

// Observe records one latency. Zero-allocation by contract — the
// metrics-smoke AllocsPerRun gate holds it there.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIdx(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation seen.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding the rank, capped at the exact observed maximum — so
// Quantile(1) is the true max and quantiles are monotone in q. Empty
// histograms return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			upper := bucketUpper(i)
			if max := h.max.Load(); upper > max {
				upper = max
			}
			return time.Duration(upper)
		}
	}
	return h.Max() // torn read straggler: best effort
}

// exposeBounds are the coarse cumulative bucket bounds (seconds) used for
// Prometheus exposition. The fine log-linear buckets stay internal (427
// series per histogram would bloat every scrape); these 14 bounds cover
// the serving range from sub-millisecond to a full drain timeout.
var exposeBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// cumulative returns the exposition view: cumulative counts per
// exposeBounds entry (a fine bucket counts toward the first bound at or
// above its upper edge), plus the total count and sum.
func (h *Histogram) cumulative() (buckets []int64, count int64, sum time.Duration) {
	buckets = make([]int64, len(exposeBounds))
	var cum int64
	bi := 0
	for i := 0; i < histBuckets; i++ {
		upper := float64(bucketUpper(i)) / float64(time.Second)
		for bi < len(exposeBounds) && upper > exposeBounds[bi] {
			buckets[bi] = cum
			bi++
		}
		cum += h.buckets[i].Load()
	}
	for ; bi < len(exposeBounds); bi++ {
		buckets[bi] = cum
	}
	return buckets, h.count.Load(), h.Sum()
}
