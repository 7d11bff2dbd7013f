package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRunSingleProcess(t *testing.T) {
	ran := false
	res, err := Run(Config{N: 1, Seed: 1}, func(p *Proc) {
		p.Step()
		p.Step()
		ran = true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if res.Steps != 2 {
		t.Fatalf("Steps = %d, want 2", res.Steps)
	}
	if !res.Finished[0] {
		t.Fatal("process 0 not marked finished")
	}
}

func TestRunRejectsInvalidN(t *testing.T) {
	if _, err := Run(Config{N: 0}, func(*Proc) {}); err == nil {
		t.Fatal("expected error for N=0")
	}
}

func TestRoundRobinOrderIsDeterministic(t *testing.T) {
	order := make([]int, 0, 12)
	var mu sync.Mutex
	_, err := Run(Config{N: 3, Seed: 7}, func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Step()
			mu.Lock()
			order = append(order, p.ID())
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order length = %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRandomAdversaryIsReproducible(t *testing.T) {
	trace := func(seed int64) []int {
		var mu sync.Mutex
		var order []int
		_, err := Run(Config{N: 4, Seed: 9, Adversary: NewRandom(seed)}, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Step()
				mu.Lock()
				order = append(order, p.ID())
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules at step %d: %v vs %v", i, a, b)
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 40-step schedules (suspicious)")
	}
}

func TestStepBudgetAborts(t *testing.T) {
	res, err := Run(Config{N: 2, Seed: 1, MaxSteps: 10}, func(p *Proc) {
		for {
			p.Step()
		}
	})
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if res.Steps != 10 {
		t.Fatalf("Steps = %d, want 10", res.Steps)
	}
	if res.Finished[0] || res.Finished[1] {
		t.Fatal("looping processes must not be marked finished")
	}
}

func TestCrashAdversaryStallsButKeepsSurvivors(t *testing.T) {
	// Process 1 loops forever; process 0 finishes after 5 steps. Crashing
	// process 1 at step 20 must end the run with ErrStalled while process 0
	// is still recorded as finished.
	res, err := Run(Config{
		N: 2, Seed: 3,
		Adversary: NewCrash(NewRoundRobin(), map[int]int64{1: 20}),
	}, func(p *Proc) {
		if p.ID() == 1 {
			for {
				p.Step()
			}
		}
		for i := 0; i < 5; i++ {
			p.Step()
		}
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !res.Finished[0] {
		t.Fatal("survivor not marked finished")
	}
	if res.Finished[1] {
		t.Fatal("crashed process marked finished")
	}
}

func TestCrashAllProcessesStalls(t *testing.T) {
	_, err := Run(Config{
		N: 2, Seed: 3,
		Adversary: NewCrash(NewRoundRobin(), map[int]int64{0: 0, 1: 0}),
	}, func(p *Proc) { p.Step() })
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestLaggerStarvesVictim(t *testing.T) {
	counts := make([]int64, 3)
	var mu sync.Mutex
	_, err := Run(Config{
		N: 3, Seed: 5, MaxSteps: 300,
		Adversary: NewLagger(0, 10, 11),
	}, func(p *Proc) {
		for {
			p.Step()
			mu.Lock()
			counts[p.ID()]++
			mu.Unlock()
		}
	})
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if counts[0] >= counts[1]/2 || counts[0] >= counts[2]/2 {
		t.Fatalf("victim not starved: counts = %v", counts)
	}
	if counts[0] == 0 {
		t.Fatalf("victim fully starved, want occasional scheduling: %v", counts)
	}
}

func TestPerProcStepAccounting(t *testing.T) {
	res, err := Run(Config{N: 3, Seed: 2}, func(p *Proc) {
		for i := 0; i <= p.ID(); i++ {
			p.Step()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, want := range []int64{1, 2, 3} {
		if res.PerProc[i] != want {
			t.Fatalf("PerProc[%d] = %d, want %d", i, res.PerProc[i], want)
		}
	}
	if res.Steps != 6 {
		t.Fatalf("Steps = %d, want 6", res.Steps)
	}
}

func TestProcRandIsPerProcessDeterministic(t *testing.T) {
	draw := func() [2]int64 {
		var out [2]int64
		var mu sync.Mutex
		_, err := Run(Config{N: 2, Seed: 99}, func(p *Proc) {
			v := p.Rand().Int63()
			mu.Lock()
			out[p.ID()] = v
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := draw(), draw()
	if a != b {
		t.Fatalf("same seed, different draws: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("distinct processes drew identical values (sources not independent)")
	}
}

func TestNowAdvancesWithSteps(t *testing.T) {
	var stamps []int64
	var mu sync.Mutex
	_, err := Run(Config{N: 1, Seed: 1}, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Step()
			mu.Lock()
			stamps = append(stamps, p.Now())
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] <= stamps[i-1] {
			t.Fatalf("Now not strictly increasing: %v", stamps)
		}
	}
}

// TestQuickAdversariesPreserveStepSerialization checks, over random seeds and
// process counts, that the step scheduler serializes steps: a shared
// non-atomic counter incremented between Step boundaries never loses updates,
// because at most one process runs user code at a time.
func TestQuickAdversariesPreserveStepSerialization(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%7) + 2
		counter := 0 // deliberately unsynchronized: serialization must protect it
		const perProc = 50
		res, err := Run(Config{N: n, Seed: seed, Adversary: NewRandom(seed)}, func(p *Proc) {
			for i := 0; i < perProc; i++ {
				p.Step()
				counter++
			}
		})
		if err != nil {
			return false
		}
		return counter == n*perProc && res.Steps == int64(n*perProc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAdversaryPanicsOnBadPick(t *testing.T) {
	for _, tc := range []struct {
		name      string
		commuting bool
	}{
		{"sequential", false},
		{"commuting", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic when adversary picks a non-waiting pid")
				}
			}()
			_, _ = Run(Config{
				N: 2, Seed: 1, Commuting: tc.commuting,
				Adversary: FuncAdversary(func([]int, int64) int { return 99 }),
			}, func(p *Proc) { p.Step() })
		})
	}
}

// TestRunTeardownLeavesNoProcesses checks that every early end of a run tears
// all of its processes down before Run returns, under both grant policies: a
// step-budget halt, a stall, and a real panic in a body, which Run re-raises
// in the caller's goroutine with the body's stack. No process goroutine may
// outlive the run. The seq rows end runs whose processes sit inside step
// sequences; in seq/panic, process 2's op runs on process 0's coroutine
// under sequential dispatch, and the re-raised panic must still name process
// 2 alone.
func TestRunTeardownLeavesNoProcesses(t *testing.T) {
	const bug = "body bug"
	loop := func(p *Proc) {
		for {
			p.Step()
		}
	}
	seqLoop := func(p *Proc) {
		for {
			p.StepSeq(stepOps, 5)
		}
	}
	crashAll := func() Adversary {
		return NewCrash(NewRoundRobin(), map[int]int64{0: 20, 1: 20, 2: 20, 3: 20})
	}
	endings := []struct {
		name     string
		maxSteps int64
		adv      func() Adversary
		body     func(*Proc)
		wantErr  error // nil: Run must panic with bug
	}{
		{"budget", 50, NewRoundRobin, loop, ErrStepBudget},
		{"stall", 0, crashAll, loop, ErrStalled},
		{"panic", 0, NewRoundRobin, func(p *Proc) {
			for {
				p.Step()
				if p.ID() == 2 && p.Steps() == 5 {
					panic(bug)
				}
			}
		}, nil},
		{"seq/budget", 50, NewRoundRobin, seqLoop, ErrStepBudget},
		{"seq/stall", 0, crashAll, seqLoop, ErrStalled},
		{"seq/panic", 0, NewRoundRobin, func(p *Proc) {
			for {
				p.StepSeq(seqFunc(func(p *Proc, _ int) bool {
					p.Step()
					if p.ID() == 2 && p.Steps() == 5 {
						panic(bug)
					}
					return true
				}), 3)
			}
		}, nil},
	}
	for _, commuting := range []bool{false, true} {
		for _, e := range endings {
			t.Run(fmt.Sprintf("%s/commuting=%v", e.name, commuting), func(t *testing.T) {
				cfg := Config{N: 4, Seed: 1, MaxSteps: e.maxSteps, Adversary: e.adv(), Commuting: commuting}
				base := runtime.NumGoroutine()
				var err error
				rec := func() (r any) {
					defer func() { r = recover() }()
					_, err = Run(cfg, e.body)
					return nil
				}()
				msg, _ := rec.(string)
				switch {
				case e.wantErr == nil && (!strings.Contains(msg, bug+"\n\nprocess 2 panicked at:") ||
					strings.Count(msg, "panicked at:") != 1):
					t.Fatalf("Run panicked with %v, want %q from process 2 alone", rec, bug)
				case e.wantErr == nil && !strings.Contains(msg, "TestRunTeardownLeavesNoProcesses"):
					t.Fatalf("re-raised panic lost the body's stack:\n%s", msg)
				case e.wantErr != nil && rec != nil:
					t.Fatalf("Run panicked with %v", rec)
				case e.wantErr != nil && !errors.Is(err, e.wantErr):
					t.Fatalf("err = %v, want %v", err, e.wantErr)
				}
				if got := runtime.NumGoroutine(); got > base {
					t.Fatalf("%d goroutines after Run, %d before: a process outlived its run", got, base)
				}
			})
		}
	}
}
