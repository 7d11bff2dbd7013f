package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile for it to mean more than the maximum of a few draws.
const minBeyond = 10

// nearestRank returns the exact nearest-rank p-th percentile (0 < p <= 100) of
// sorted (ascending): the smallest sample with at least p% of the samples at
// or below it. It returns 0 for an empty slice.
func nearestRank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rankIndex(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile's position among n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// supported reports whether n samples leave at least minBeyond samples beyond
// the p-th percentile.
func supported(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// minSamples is the smallest sample count that supports the p-th percentile.
func minSamples(p float64) int {
	n := 1
	for !supported(n, p) {
		n++
	}
	return n
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of float samples (mean of the middle pair for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one timed interval of the traced run, in nanoseconds since the
// run's trace epoch. Parent is the ID of the span that caused it (-1 for a
// root); spans of one instance share Instance.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Instance int    `json:"instance"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the parent's duration minus the part of its interval that its
// children cover. Overlapping children (instances of parallel workers) count
// once, and any part of a child outside the parent is ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}
