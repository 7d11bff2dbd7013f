package main

import "testing"

func TestNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}, {1, 1}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := nearestRank([]int64{7, 9, 11}, 50); got != 9 {
		t.Errorf("p50 of {7,9,11} = %d, want 9", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false},
		{110, 90, 11, true},
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{0, 90, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := supported(c.n, c.p); got != c.ok {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
	if got := minSamples(90); got != 100 {
		t.Errorf("minSamples(p90) = %d, want 100", got)
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(p99) = %d, want 1000", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to parent", []span{{Start: 50, End: 120}, {Start: 180, End: 250}}, 60},
		{"outside parent", []span{{Start: 0, End: 50}, {Start: 200, End: 300}}, 100},
		{"touching", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
		{"unsorted", []span{{Start: 160, End: 170}, {Start: 105, End: 115}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}
