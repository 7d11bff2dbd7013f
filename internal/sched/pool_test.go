package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// poolDraws is how many values each process draws in the pool tests. Every
// third draw is a 3-byte Read, which leaves bytes buffered in the Rand itself
// (not only in its source); after ten draws five are still buffered, so a
// reused generator whose Seed kept them would show.
const poolDraws = 10

// poolDraw takes draw i of the pattern above from r.
func poolDraw(r *rand.Rand, i int) int64 {
	if i%3 == 2 {
		var b [3]byte
		r.Read(b[:])
		return int64(b[0])<<16 | int64(b[1])<<8 | int64(b[2])
	}
	return r.Int63()
}

// runDraws runs n processes seeded with seed under run, each taking a step
// before every draw, and returns each process's draws.
func runDraws(t *testing.T, run func(Config, func(*Proc)) (Result, error), n int, seed int64) [][]int64 {
	t.Helper()
	got := make([][]int64, n)
	if _, err := run(Config{N: n, Seed: seed}, func(p *Proc) {
		d := make([]int64, poolDraws)
		for i := range d {
			p.Step()
			d[i] = poolDraw(p.Rand(), i)
		}
		got[p.ID()] = d
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got
}

// freshDraws is what each of n processes seeded with seed draws from a
// generator of its own, built by math/rand.
func freshDraws(n int, seed int64) [][]int64 {
	want := make([][]int64, n)
	for pid := range want {
		r := rand.New(rand.NewSource(procSeed(seed, pid)))
		want[pid] = make([]int64, poolDraws)
		for i := range want[pid] {
			want[pid][i] = poolDraw(r, i)
		}
	}
	return want
}

// checkPooledStreams runs seed s1 at n=4, seed s2 at n=6, then s1 at n=4
// again, so the later runs take generators the earlier ones handed back, and
// fails unless every process drew exactly what a fresh math/rand generator
// with its derived seed draws.
func checkPooledStreams(t *testing.T, run func(Config, func(*Proc)) (Result, error), s1, s2 int64) {
	t.Helper()
	want1, want2 := freshDraws(4, s1), freshDraws(6, s2)
	first := runDraws(t, run, 4, s1)
	second := runDraws(t, run, 6, s2)
	again := runDraws(t, run, 4, s1)
	for _, c := range []struct {
		name      string
		got, want [][]int64
	}{
		{"first s1 run", first, want1},
		{"s2 run", second, want2},
		{"second s1 run", again, want1},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s (seeds %d, %d): draws differ from fresh generators:\ngot  %v\nwant %v", c.name, s1, s2, c.got, c.want)
		}
	}
}

// TestPooledGeneratorsMatchFresh checks that a process generator taken from
// the pool gives the stream a fresh one gives, on both substrates, in one
// goroutine and in two running at once (the -race pass covers the pool
// through the latter).
func TestPooledGeneratorsMatchFresh(t *testing.T) {
	for _, sub := range []struct {
		name string
		run  func(Config, func(*Proc)) (Result, error)
	}{
		{"simulated", Run},
		{"native", NewNative(NativeOptions{}).Run},
	} {
		t.Run(sub.name, func(t *testing.T) {
			checkPooledStreams(t, sub.run, 11, 29)
		})
		t.Run(sub.name+"/concurrent", func(t *testing.T) {
			var wg sync.WaitGroup
			for g := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A failure in a goroutine must not call t.Fatal, so each
					// runs its checks in a subtest of its own.
					t.Run(fmt.Sprintf("goroutine=%d", g), func(t *testing.T) {
						for r := int64(0); r < 5; r++ {
							checkPooledStreams(t, sub.run, 100+r, 200+int64(g))
						}
					})
				}()
			}
			wg.Wait()
		})
	}
}

// TestTeardownDrawsFromOwnGenerator ends runs by budget, stall and body panic
// with every process drawing once more from its generator while it is torn
// down. The draw must be its own first draw, so Run may hand the generators
// back only after every coroutine has stopped.
func TestTeardownDrawsFromOwnGenerator(t *testing.T) {
	const n, seed = 4, 5
	crashAll := func() Adversary {
		return NewCrash(NewRoundRobin(), map[int]int64{0: 20, 1: 20, 2: 20, 3: 20})
	}
	for _, e := range []struct {
		name     string
		maxSteps int64
		adv      func() Adversary
		panics   bool
	}{
		{"budget", 50, NewRoundRobin, false},
		{"stall", 0, crashAll, false},
		{"panic", 0, NewRoundRobin, true},
	} {
		t.Run(e.name, func(t *testing.T) {
			last := make([]int64, n)
			rec := func() (r any) {
				defer func() { r = recover() }()
				Run(Config{N: n, Seed: seed, MaxSteps: e.maxSteps, Adversary: e.adv()}, func(p *Proc) {
					defer func() { last[p.ID()] = p.Rand().Int63() }()
					for {
						p.Step()
						if e.panics && p.ID() == 2 && p.Steps() == 5 {
							panic("body bug")
						}
					}
				})
				return nil
			}()
			if (rec != nil) != e.panics {
				t.Fatalf("Run panicked with %v", rec)
			}
			for pid := range last {
				if want := rand.New(rand.NewSource(procSeed(seed, pid))).Int63(); last[pid] != want {
					t.Fatalf("process %d drew %d at teardown, want %d (its own first draw)", pid, last[pid], want)
				}
			}
		})
	}
}
