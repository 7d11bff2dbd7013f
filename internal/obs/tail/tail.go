// Package tail is the tail-latency layer of the observability stack:
// per-instance wall-clock latency summaries (exact nearest-rank quantiles up
// to p999) and a deterministic top-k straggler digest over a batch.
//
// Latency is the one observable the repo cannot make deterministic — wall
// clocks jitter — so the package splits the concern: latency *values* are
// only summarized (BENCHMARK.json bounds its own latency quantiles), while
// straggler *identities* carry the seed and step count that make the instance
// byte-reproducible, so forensics replay the deterministic part with full
// instrumentation instead of trusting the noisy part.
package tail

import (
	"container/heap"
	"math"
	"sort"
)

// Straggler identifies one slow batch instance: everything needed to re-run
// it deterministically (the derived seed) plus what the original run measured
// (wall-clock latency, step count, decision). The JSON field names are the
// wire schema of bench artifacts and straggler bundles.
type Straggler struct {
	// Index is the instance's position in the batch; Seed is its derived
	// per-instance seed (consensus.InstanceSeed(batchSeed, Index)).
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// LatencyNS is the measured wall-clock solve latency in nanoseconds. Not
	// deterministic — replays will measure a different value.
	LatencyNS int64 `json:"latency_ns"`
	// Steps and Decision are the deterministic fingerprint a replay must
	// reproduce exactly: total atomic steps and the agreed value (-1 if the
	// instance did not decide).
	Steps    int64 `json:"steps"`
	Decision int   `json:"decision"`
	// Err carries the instance's error text ("step budget exhausted", ...),
	// empty for a clean run.
	Err string `json:"error,omitempty"`
}

// TopK accumulates the k largest-latency stragglers. Selection is
// deterministic given the latency values: ties break toward the lower
// instance index, so equal-latency instances never reorder between runs with
// identical measurements. The zero value with K <= 0 keeps nothing.
type TopK struct {
	K    int
	heap stragglerHeap
}

// Add offers one straggler to the digest.
func (t *TopK) Add(s Straggler) {
	if t.K <= 0 {
		return
	}
	if t.heap.Len() < t.K {
		heap.Push(&t.heap, s)
		return
	}
	if less(t.heap[0], s) {
		t.heap[0] = s
		heap.Fix(&t.heap, 0)
	}
}

// Sorted returns the retained stragglers, slowest first (ties by ascending
// instance index).
func (t *TopK) Sorted() []Straggler {
	out := append([]Straggler(nil), t.heap...)
	sort.Slice(out, func(i, j int) bool { return less(out[j], out[i]) })
	return out
}

// less orders stragglers by "keep b over a": smaller latency first, and at
// equal latency the larger index first (so the heap evicts it before the
// smaller index).
func less(a, b Straggler) bool {
	if a.LatencyNS != b.LatencyNS {
		return a.LatencyNS < b.LatencyNS
	}
	return a.Index > b.Index
}

// stragglerHeap is a min-heap under less: the root is the straggler to evict
// next.
type stragglerHeap []Straggler

func (h stragglerHeap) Len() int            { return len(h) }
func (h stragglerHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h stragglerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stragglerHeap) Push(x interface{}) { *h = append(*h, x.(Straggler)) }
func (h *stragglerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Summary is the exact latency distribution of a batch: nearest-rank
// quantiles over the raw per-instance values (not bucket estimates — the
// batch engine has every sample in hand, so nothing is approximated). The
// JSON field names are the bench-artifact wire schema; units are nanoseconds.
type Summary struct {
	Count  int     `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	MinNS  int64   `json:"min_ns"`
	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// Summarize computes the exact latency summary of the given per-instance
// nanosecond values. An empty input returns the zero Summary.
func Summarize(ns []int64) Summary {
	if len(ns) == 0 {
		return Summary{}
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	rank := func(p float64) int64 {
		r := int(math.Ceil(p/100*float64(len(s)))) - 1
		if r < 0 {
			r = 0
		}
		if r >= len(s) {
			r = len(s) - 1
		}
		return s[r]
	}
	return Summary{
		Count:  len(s),
		MeanNS: sum / float64(len(s)),
		MinNS:  s[0],
		P50NS:  rank(50),
		P90NS:  rank(90),
		P99NS:  rank(99),
		P999NS: rank(99.9),
		MaxNS:  s[len(s)-1],
	}
}
