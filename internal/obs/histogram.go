package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram of int64 observations, safe for
// concurrent use. Buckets are defined by ascending inclusive upper bounds;
// an observation lands in the first bucket whose bound is >= the value, or in
// the implicit overflow bucket. Count, sum and exact min/max are tracked on
// the side, so Mean/Min/Max are exact while Percentile is a bucket-resolution
// estimate.
//
// The harness re-exports this type (internal/harness/stats.go) so experiment
// tables and the metrics registry share one implementation; it lives here
// because obs must stay a leaf package.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// Bucket is one histogram bucket in a snapshot: the inclusive upper bound
// (math.MaxInt64 for the overflow bucket) and the number of observations.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// NewHistogram returns a histogram with the given ascending inclusive upper
// bounds. NewHistogram() (no bounds) degenerates to a single overflow bucket
// that still tracks count/sum/min/max exactly.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Percentile returns a bucket-resolution estimate of the p-th percentile
// (0 <= p <= 100): the upper bound of the bucket the nearest-rank observation
// falls in, clamped to the exact observed min/max.
func (h *Histogram) Percentile(p float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			var est float64
			if i < len(h.bounds) {
				est = float64(h.bounds[i])
			} else {
				est = float64(h.Max())
			}
			// The estimate cannot be outside the exact observed range.
			if lo := float64(h.Min()); est < lo {
				est = lo
			}
			if hi := float64(h.Max()); est > hi {
				est = hi
			}
			return est
		}
	}
	return float64(h.Max())
}

// Buckets returns a snapshot of the bucket counts, overflow bucket last.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i := range h.counts {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{Le: le, Count: h.counts[i].Load()}
	}
	return out
}

// HistSnapshot is an immutable summary of a histogram. The JSON field names
// are the wire schema of the "hists" block of consensus-load -json reports
// (see DESIGN.md §9).
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// P999 is the 99.9th percentile, added for the tail-latency family
	// (lat.solve); omitted from artifacts that predate it, and zero decodes as
	// "not recorded" (a real p999 of a non-empty histogram is >= min > 0 for
	// duration data).
	P999    float64  `json:"p999,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Min:     h.Min(),
		Max:     h.Max(),
		Mean:    h.Mean(),
		P50:     h.Percentile(50),
		P90:     h.Percentile(90),
		P99:     h.Percentile(99),
		P999:    h.Percentile(99.9),
		Buckets: h.Buckets(),
	}
}

// percentileFromBuckets is Histogram.Percentile over snapshot buckets: the
// nearest-rank bucket's upper bound, clamped to [min, max]. Used when summary
// percentiles must be recomputed after merging snapshots.
func percentileFromBuckets(buckets []Bucket, count, min, max int64, p float64) float64 {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		if cum >= rank {
			est := float64(b.Le)
			if b.Le == math.MaxInt64 {
				est = float64(max)
			}
			if lo := float64(min); est < lo {
				est = lo
			}
			if hi := float64(max); est > hi {
				est = hi
			}
			return est
		}
	}
	return float64(max)
}
