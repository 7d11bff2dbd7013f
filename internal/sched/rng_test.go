package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSourceMatchesMathRand checks the copied generator against math/rand on
// the installed toolchain, draw for draw: 3,000 mixed draws per seed, over
// the edge seeds of Seed's reduction mod 2³¹-1 and 2,000 spread ones. The
// draws interleave the source's own Int63, Uint64 and Intn, the random
// adversary's pick, and Float64 and Perm through rand.New, all on one stream.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -1 << 62, math.MinInt64, math.MaxInt64}
	spread := newSource(1)
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(spread.Uint64()))
	}
	ns := []int{1, 2, 7, 8, 1000, 1<<31 - 1, 1<<30 + 1} // the last rejects half its draws
	waiting := allPids(8)
	const draws = 3000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		adv := new(randomAdv)
		adv.rng.Seed(seed)
		got := &adv.rng
		wrapped := rand.New(got)
		for d := 0; d < draws; d++ {
			var g, w any
			switch op := d % 6; op {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				n := ns[d/6%len(ns)]
				g, w = got.Intn(n), want.Intn(n)
			case 3:
				k := 1 + d/6%len(waiting)
				g, w = adv.Next(waiting[:k], 0), waiting[want.Intn(k)]
			case 4:
				g, w = wrapped.Float64(), want.Float64()
			default:
				g, w = wrapped.Perm(5), want.Perm(5)
			}
			if !equalDraw(g, w) {
				t.Fatalf("seed %d, draw %d: got %v, math/rand gives %v", seed, d, g, w)
			}
		}
	}
}

func equalDraw(g, w any) bool {
	if gp, ok := g.([]int); ok {
		return slices.Equal(gp, w.([]int))
	}
	return g == w
}

// TestIntnPanicsOutsideDomain: Intn rejects n <= 0 as math/rand's does, and
// n above 2³¹-1, where math/rand's would switch to Int63n.
func TestIntnPanicsOutsideDomain(t *testing.T) {
	above := int64(1) << 31 // negative, so still rejected, where int is 32 bits
	for _, n := range []int{0, -1, math.MinInt, int(above)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			newSource(1).Intn(n)
		}()
	}
}

// TestLaggerPicksUnchanged: the lagger indexes the non-victim pids in place
// instead of copying them; its picks are those of the copying version over
// math/rand, on waiting sets with and without the victim.
func TestLaggerPicksUnchanged(t *testing.T) {
	const victim, period = 2, 5
	a := NewLagger(victim, period, 7)
	rng := rand.New(rand.NewSource(7))
	sets := newSource(8)
	for step := int64(0); step < 20000; step++ {
		var waiting []int
		for pid := 0; pid < 6; pid++ {
			if sets.Intn(3) > 0 {
				waiting = append(waiting, pid)
			}
		}
		if len(waiting) == 0 {
			continue
		}
		var others []int
		for _, pid := range waiting {
			if pid != victim {
				others = append(others, pid)
			}
		}
		want := 0
		if len(others) == 0 || step%period == period-1 {
			want = waiting[rng.Intn(len(waiting))]
		} else {
			want = others[rng.Intn(len(others))]
		}
		if got := a.Next(waiting, step); got != want {
			t.Fatalf("step %d, waiting %v: lagger picked %d, want %d", step, waiting, got, want)
		}
	}
}
