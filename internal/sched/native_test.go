package sched

import (
	"errors"
	"sync/atomic"
	"testing"
)

// stepper returns a body that performs k atomic steps, optionally spinning
// forever (k < 0) until torn down.
func stepper(k int, total *atomic.Int64) func(*Proc) {
	return func(p *Proc) {
		for i := 0; k < 0 || i < k; i++ {
			p.Step()
			if total != nil {
				total.Add(1)
			}
		}
	}
}

func TestNativeRunCompletes(t *testing.T) {
	const n, k = 4, 100
	var total atomic.Int64
	res, err := NewNative(NativeOptions{}).Run(Config{N: n, Seed: 7}, stepper(k, &total))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != n*k {
		t.Fatalf("Steps = %d, want %d", res.Steps, n*k)
	}
	if total.Load() != n*k {
		t.Fatalf("bodies performed %d steps, want %d", total.Load(), n*k)
	}
	for i := 0; i < n; i++ {
		if res.PerProc[i] != k {
			t.Fatalf("PerProc[%d] = %d, want %d", i, res.PerProc[i], k)
		}
		if !res.Finished[i] {
			t.Fatalf("Finished[%d] = false", i)
		}
		if res.WaitSteps[i] != 0 {
			t.Fatalf("WaitSteps[%d] = %d, want 0 (no grant queue natively)", i, res.WaitSteps[i])
		}
	}
}

func TestNativeStepBudget(t *testing.T) {
	res, err := NewNative(NativeOptions{}).Run(Config{N: 3, Seed: 1, MaxSteps: 500}, stepper(-1, nil))
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	for i, f := range res.Finished {
		if f {
			t.Fatalf("Finished[%d] = true for a spinning body", i)
		}
	}
	// Each in-flight stepper can overshoot by one clock tick before it
	// observes the halt.
	if res.Steps < 500 || res.Steps > 500+3 {
		t.Fatalf("Steps = %d, want 500..503", res.Steps)
	}
}

func TestNativeCrashStallsVictim(t *testing.T) {
	const n, k = 3, 200
	res, err := NewNative(NativeOptions{CrashAt: map[int]int64{1: 5}}).
		Run(Config{N: n, Seed: 3}, stepper(k, nil))
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if res.Finished[1] {
		t.Fatal("crashed process reported finished")
	}
	if !res.Finished[0] || !res.Finished[2] {
		t.Fatalf("survivors not finished: %v", res.Finished)
	}
	if res.PerProc[1] >= k {
		t.Fatalf("victim performed all %d steps despite crashing", k)
	}
}

func TestNativeLaggerAndPreemptComplete(t *testing.T) {
	res, err := NewNative(NativeOptions{
		LaggerVictim: 0, LaggerPeriod: 4,
		PreemptEvery: 3, PreemptSeed: 99,
	}).Run(Config{N: 4, Seed: 11}, stepper(50, nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != 4*50 {
		t.Fatalf("Steps = %d, want %d", res.Steps, 4*50)
	}
}

func TestNativeSeedReproducesPrivateCoins(t *testing.T) {
	// Interleavings are nondeterministic, but each process's private random
	// stream must still derive from (seed, pid) exactly as on the simulated
	// substrate.
	draw := func(sub Substrate) [4][3]int64 {
		var got [4][3]int64
		_, err := sub.Run(Config{N: 4, Seed: 42}, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Step()
				got[p.ID()][i] = p.Rand().Int63()
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	if draw(NewNative(NativeOptions{})) != draw(Simulated()) {
		t.Fatal("per-process random streams differ across substrates for equal seeds")
	}
}

func TestSimulatedSubstrateMatchesRun(t *testing.T) {
	body := func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Step()
			p.Rand().Int63()
		}
	}
	direct, err := Run(Config{N: 3, Seed: 5}, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viaSub, err := Simulated().Run(Config{N: 3, Seed: 5}, body)
	if err != nil {
		t.Fatalf("Simulated().Run: %v", err)
	}
	if direct.Steps != viaSub.Steps {
		t.Fatalf("Steps differ: %d vs %d", direct.Steps, viaSub.Steps)
	}
	for i := range direct.PerProc {
		if direct.PerProc[i] != viaSub.PerProc[i] {
			t.Fatalf("PerProc[%d] differ: %d vs %d", i, direct.PerProc[i], viaSub.PerProc[i])
		}
	}
}

// TestProcRacesOnlyOnNative pins which gates race: a native process's steps
// race the other goroutines', while the dispatcher orders steps itself under
// either grant policy.
func TestProcRacesOnlyOnNative(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(Config, func(*Proc)) (Result, error)
		cfg  Config
		want bool
	}{
		{"sequential", Run, Config{N: 2}, false},
		{"commuting", Run, Config{N: 2, Commuting: true}, false},
		{"native", NewNative(NativeOptions{}).Run, Config{N: 2}, true},
	} {
		var wrong atomic.Int64
		if _, err := c.run(c.cfg, func(p *Proc) {
			p.Step()
			if p.Races() != c.want {
				wrong.Add(1)
			}
		}); err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		if wrong.Load() != 0 {
			t.Errorf("%s: Races() != %v for %d processes", c.name, c.want, wrong.Load())
		}
	}
}
