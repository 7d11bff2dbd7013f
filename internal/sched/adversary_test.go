package sched

import (
	"math/rand"
	"sync"
	"testing"
)

// TestAdversaryEdgeCases drives each adversary's Next over a fixed waiting
// set and pins the exact pick sequence for the edge configurations: clamped
// quanta, empty and total crash maps, and a sole surviving victim.
func TestAdversaryEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		adv     Adversary
		waiting []int
		want    []int // expected picks at steps 0, 1, 2, ...
	}{
		{
			name: "quantum 0 clamps to 1 (plain round-robin)",
			adv:  NewQuantum(0), waiting: []int{0, 1, 2},
			want: []int{0, 1, 2, 0, 1, 2},
		},
		{
			name: "quantum 1 is plain round-robin",
			adv:  NewQuantum(1), waiting: []int{0, 1, 2},
			want: []int{0, 1, 2, 0, 1, 2},
		},
		{
			name: "quantum 3 runs each pid three consecutive steps",
			adv:  NewQuantum(3), waiting: []int{0, 1, 2},
			want: []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 0},
		},
		{
			name: "crash with empty map behaves as the inner adversary",
			adv:  NewCrash(NewRoundRobin(), nil), waiting: []int{0, 1, 2},
			want: []int{0, 1, 2, 0},
		},
		{
			name: "crash of every process at step 0 refuses to schedule",
			adv:  NewCrash(NewRoundRobin(), map[int]int64{0: 0, 1: 0, 2: 0}), waiting: []int{0, 1, 2},
			want: []int{-1, -1},
		},
		{
			name: "lagger whose victim is the only waiting process still schedules it",
			adv:  NewLagger(0, 16, 1), waiting: []int{0},
			want: []int{0, 0, 0},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for step, want := range c.want {
				if got := c.adv.Next(c.waiting, int64(step)); got != want {
					t.Fatalf("step %d: Next(%v) = %d, want %d", step, c.waiting, got, want)
				}
			}
		})
	}
}

// TestQuantumCurrentProcessLeaves checks the mid-quantum handoff: when the
// running process stops being runnable, the scheduler rotates instead of
// wedging, and the old quantum is not resurrected when the process returns.
func TestQuantumCurrentProcessLeaves(t *testing.T) {
	a := NewQuantum(4)
	if got := a.Next([]int{0, 1}, 0); got != 0 {
		t.Fatalf("step 0: Next = %d, want 0", got)
	}
	if got := a.Next([]int{1}, 1); got != 1 {
		t.Fatalf("step 1 (pid 0 blocked): Next = %d, want 1", got)
	}
	if got := a.Next([]int{0, 1}, 2); got != 1 {
		t.Fatalf("step 2 (pid 0 back): Next = %d, want 1 to finish its quantum", got)
	}
}

// TestLaggerVictimOutOfRange: a victim pid that matches no real process must
// not derail the schedule — every process keeps making progress and the run
// completes cleanly.
func TestLaggerVictimOutOfRange(t *testing.T) {
	counts := make([]int64, 3)
	var mu sync.Mutex
	res, err := Run(Config{N: 3, Seed: 9, Adversary: NewLagger(99, 8, 13)}, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Step()
			mu.Lock()
			counts[p.ID()]++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for pid, c := range counts {
		if !res.Finished[pid] || c != 20 {
			t.Fatalf("process %d: finished=%v steps=%d, want finished with 20 steps", pid, res.Finished[pid], c)
		}
	}
}

// TestCrashMatchesMapFilter: the crash adversary keeps its crash points in
// a per-pid slice, so its picks and eligibility must equal a reference that
// filters the waiting set through the crashAt map on every consult — over
// random crash maps whose keys include negative pids, pids past n and huge
// pids, none of which may size the slice beyond the pids consulted.
func TestCrashMatchesMapFilter(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(3))
	keys := []int{-1 << 40, -3, -1, n, n + 5, 1 << 40}
	for trial := 0; trial < 200; trial++ {
		crashAt := map[int]int64{}
		for k := rng.Intn(2 * n); k > 0; k-- {
			pid := rng.Intn(n)
			if rng.Intn(3) == 0 {
				pid = keys[rng.Intn(len(keys))]
			}
			crashAt[pid] = rng.Int63n(3000) - 100
		}
		seed := rng.Int63()
		adv := NewCrash(NewRandom(seed), crashAt)
		inner := NewRandom(seed)
		crashed := func(pid int, step int64) bool {
			at, ok := crashAt[pid]
			return ok && step >= at
		}
		ref := FuncAdversary(func(waiting []int, step int64) int {
			var alive []int
			for _, pid := range waiting {
				if !crashed(pid, step) {
					alive = append(alive, pid)
				}
			}
			if len(alive) == 0 {
				return -1
			}
			return inner.Next(alive, step)
		})
		var step int64
		for i := 0; i < 300; i++ {
			var waiting []int
			for pid := 0; pid < n; pid++ {
				if rng.Intn(4) != 0 {
					waiting = append(waiting, pid)
				}
			}
			if len(waiting) == 0 {
				waiting = []int{rng.Intn(n)}
			}
			if got, want := adv.Next(waiting, step), ref.Next(waiting, step); got != want {
				t.Fatalf("trial %d, crashAt %v, step %d: Next(%v) = %d, want %d", trial, crashAt, step, waiting, got, want)
			}
			for pid := 0; pid < n; pid++ {
				if got, want := adv.(Extender).Eligible(pid, step), !crashed(pid, step); got != want {
					t.Fatalf("trial %d, crashAt %v, step %d: Eligible(%d) = %v, want %v", trial, crashAt, step, pid, got, want)
				}
			}
			step += rng.Int63n(40)
		}
		if got := len(adv.(*crash).at); got > n {
			t.Fatalf("trial %d, crashAt %v: crash points held for %d pids, want at most %d", trial, crashAt, got, n)
		}
	}
}

// builtinAdversaries returns a fresh instance of every built-in adversary for
// n processes.
func builtinAdversaries(n int) []struct {
	name string
	adv  Adversary
} {
	return []struct {
		name string
		adv  Adversary
	}{
		{"round-robin", NewRoundRobin()},
		{"random", NewRandom(1)},
		{"lagger", NewLagger(0, 64, 1)},
		{"crash", NewCrash(NewRandom(1), map[int]int64{n - 3: 500, n - 2: 1500, n - 1: 4000})},
		{"quantum", NewQuantum(4)},
		{"pct", NewPCT(n, 1000, 3, 1)},
	}
}

// allPids returns the waiting set of n live processes.
func allPids(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = i
	}
	return w
}

// TestAdversaryNextAllocatesNothing: consulting a built-in adversary is on
// every simulated step, so no Next may allocate — over the full waiting set
// and over every shrunken one, past the crash adversary's crash points.
func TestAdversaryNextAllocatesNothing(t *testing.T) {
	const n = 8
	waiting := allPids(n)
	for _, c := range builtinAdversaries(n) {
		t.Run(c.name, func(t *testing.T) {
			var step int64
			allocs := testing.AllocsPerRun(100, func() {
				for k := 1; k <= n; k++ {
					c.adv.Next(waiting[n-k:], step)
					step += 7
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: Next allocated %.1f times per %d consults, want 0", c.name, allocs, n)
			}
		})
	}
}

// BenchmarkAdversaryNext measures one consult of each built-in adversary
// with all eight processes waiting: the per-step cost the sequential
// dispatcher pays the adversary.
func BenchmarkAdversaryNext(b *testing.B) {
	const n = 8
	waiting := allPids(n)
	for _, c := range builtinAdversaries(n) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += c.adv.Next(waiting, int64(i))
			}
			if sum < 0 {
				b.Fatal("negative pick")
			}
		})
	}
}
