package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
)

// The tests in this file check the dispatcher against grantModel, the grant
// contract stated as a plain sequential loop: the same grant sequence
// (pid, step) pairs, the same Result accounting, the same error, and a
// sched.grant total equal to the model's step count, across a sweep of
// seeds, adversaries and process bodies. Adversaries are stateful, so each
// run constructs a fresh one from the same parameters.

// grantRec is one scheduler grant as observed through Config.OnStep.
type grantRec struct {
	pid  int
	step int64
}

// engineRun executes body on the dispatcher and captures everything
// observable: the grant sequence, the Result, the error and the grant count.
func engineRun(t *testing.T, cfg Config, body func(*Proc)) (grants []grantRec, res Result, err error, grantCount int64) {
	t.Helper()
	sink := obs.NewSink(nil)
	cfg.Sink = sink
	cfg.OnStep = func(pid int, step int64) {
		grants = append(grants, grantRec{pid: pid, step: step})
	}
	res, err = Run(cfg, body)
	return grants, res, err, sink.Registry().KindCount(obs.SchedGrant)
}

// grantModel runs the grant contract for processes whose bodies take
// steps[pid] steps each, without running any body: every unfinished process
// is waiting; the budget is checked before each consult; the adversary picks
// one grant, and a pick of -1 stalls the run; a grant charges the steps
// granted since that process's previous grant as its wait; a process leaves
// the waiting set after its last step.
func grantModel(cfg Config, steps []int) (grants []grantRec, res Result, err error) {
	res = Result{
		PerProc:   make([]int64, cfg.N),
		WaitSteps: make([]int64, cfg.N),
		Finished:  make([]bool, cfg.N),
	}
	last := make([]int64, cfg.N) // the step count after pid's previous grant
	var waiting []int
	for pid, s := range steps {
		if s == 0 {
			res.Finished[pid] = true
		} else {
			waiting = append(waiting, pid)
		}
	}
	for len(waiting) > 0 {
		if cfg.MaxSteps > 0 && res.Steps >= cfg.MaxSteps {
			return grants, res, ErrStepBudget
		}
		pick := cfg.Adversary.Next(waiting, res.Steps)
		if pick == -1 {
			return grants, res, ErrStalled
		}
		i := slices.Index(waiting, pick)
		if i < 0 {
			return grants, res, fmt.Errorf("model: adversary picked pid %d not in waiting set %v", pick, waiting)
		}
		res.WaitSteps[pick] += res.Steps - last[pick]
		res.Steps++
		res.PerProc[pick]++
		last[pick] = res.Steps
		grants = append(grants, grantRec{pid: pick, step: res.Steps})
		if res.PerProc[pick] == int64(steps[pick]) {
			res.Finished[pick] = true
			waiting = slices.Delete(waiting, i, i+1)
		}
	}
	return grants, res, nil
}

// loopBody is a process body that steps while its loop test i < bound(p)
// passes; bound is evaluated afresh at every test.
func loopBody(bound func(*Proc) int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < bound(p); i++ {
			p.Step()
		}
	}
}

// loopSteps counts the steps loopBody(bound) takes in each process of an
// n-process run seeded with seed, by running its loop tests alone on a
// handle with the process's own random source.
func loopSteps(bound func(*Proc) int, n int, seed int64) []int {
	steps := make([]int, n)
	for pid := range steps {
		p := newProc(pid, seed, nil)
		for steps[pid] < bound(p) {
			steps[pid]++
		}
	}
	return steps
}

// assertMatchesModel runs loopBody(bound) on the dispatcher and fails on any
// observable divergence from grantModel.
func assertMatchesModel(t *testing.T, mk func() Config, bound func(*Proc) int) {
	t.Helper()
	grants, res, err, count := engineRun(t, mk(), loopBody(bound))
	cfg := mk()
	wantGrants, want, wantErr := grantModel(cfg, loopSteps(bound, cfg.N, cfg.Seed))
	if err != wantErr {
		t.Fatalf("error: model=%v dispatch=%v", wantErr, err)
	}
	if count != want.Steps {
		t.Fatalf("sched.grant count %d, model took %d steps", count, want.Steps)
	}
	for name, pair := range map[string][2]any{
		"grants":    {wantGrants, grants},
		"Steps":     {want.Steps, res.Steps},
		"PerProc":   {want.PerProc, res.PerProc},
		"WaitSteps": {want.WaitSteps, res.WaitSteps},
		"Finished":  {want.Finished, res.Finished},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s diverge:\nmodel=%v\ndispatch=%v", name, pair[0], pair[1])
		}
	}
}

// equivBodies are loop bounds covering the interesting completion shapes:
// uniform work, skewed work, RNG-dependent work (the bound is re-drawn at
// every loop test), and an immediate return that exercises the
// finished-before-first-Step path.
var equivBodies = []struct {
	name  string
	bound func(*Proc) int
}{
	{"uniform", func(*Proc) int { return 120 }},
	{"skewed", func(p *Proc) int { return 30 * (p.ID() + 1) }},
	{"rng", func(p *Proc) int { return 60 + p.Rand().Intn(80) }},
	{"early-exit", func(p *Proc) int {
		if p.ID() == 0 {
			return 0 // finishes without ever stepping
		}
		return 90
	}},
}

// equivAdversaries constructs each adversary family fresh per run.
var equivAdversaries = []struct {
	name string
	mk   func(n int, seed int64) Adversary
}{
	{"round-robin", func(n int, seed int64) Adversary { return NewRoundRobin() }},
	{"random", func(n int, seed int64) Adversary { return NewRandom(seed) }},
	{"lagger", func(n int, seed int64) Adversary { return NewLagger(1, 3, seed) }},
	{"quantum", func(n int, seed int64) Adversary { return NewQuantum(7) }},
	{"pct", func(n int, seed int64) Adversary { return NewPCT(n, 2000, 3, seed) }},
	{"crash", func(n int, seed int64) Adversary {
		return NewCrash(NewRandom(seed), map[int]int64{0: 40})
	}},
}

func TestDispatchMatchesModelAcrossSweep(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8} {
		for _, adv := range equivAdversaries {
			for _, b := range equivBodies {
				for seed := int64(1); seed <= 5; seed++ {
					name := fmt.Sprintf("n=%d/%s/%s/seed=%d", n, adv.name, b.name, seed)
					t.Run(name, func(t *testing.T) {
						assertMatchesModel(t, func() Config {
							return Config{N: n, Seed: seed, Adversary: adv.mk(n, seed)}
						}, b.bound)
					})
				}
			}
		}
	}
}

func TestDispatchMatchesModelOnStepBudget(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			assertMatchesModel(t, func() Config {
				return Config{N: 4, Seed: seed, Adversary: NewRandom(seed), MaxSteps: 123}
			}, func(*Proc) int { return 1000 })
		})
	}
}

func TestDispatchMatchesModelOnStall(t *testing.T) {
	// Crash every process mid-run: the adversary eventually returns -1 and
	// the run must stall as the model does, with the same survivors.
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			assertMatchesModel(t, func() Config {
				crash := NewCrash(NewRandom(seed), map[int]int64{0: 30, 1: 60, 2: 90, 3: 120})
				return Config{N: 4, Seed: seed, Adversary: crash}
			}, func(*Proc) int { return 500 })
		})
	}
}

func TestDispatchEngineCoalescesWithoutParking(t *testing.T) {
	// A quantum adversary grants runs of steps to one process; the dispatch
	// engine must execute those runs via self-picks (plain returns). We can't
	// observe parks directly, but the grant sequence proves coalescing is
	// correct and the model sweep above proves the grants follow the
	// contract; here we pin the run structure itself: with quantum q, grants
	// come in blocks of q.
	const q = 5
	var grants []grantRec
	_, err := Run(Config{
		N:         3,
		Adversary: NewQuantum(q),
		OnStep: func(pid int, step int64) {
			grants = append(grants, grantRec{pid, step})
		},
	}, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Step()
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for i := 0; i+q <= len(grants); i += q {
		for j := 1; j < q; j++ {
			if grants[i+j].pid != grants[i].pid {
				t.Fatalf("grant block at %d not coalesced: %v", i, grants[i:i+q])
			}
		}
	}
}

// benchBody spins a fixed number of steps per process — the pure scheduler
// overhead benchmark, no algorithm work at all.
func benchBody(steps int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < steps; i++ {
			p.Step()
		}
	}
}

func benchEngine(b *testing.B, adv func(n int, seed int64) Adversary) {
	const n, steps = 4, 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		_, err := Run(Config{N: n, Seed: seed, Adversary: adv(n, seed)}, benchBody(steps))
		if err != nil {
			b.Fatalf("run failed: %v", err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(b.N)*float64(n*steps)/b.Elapsed().Seconds(), "steps/s")
}

func BenchmarkDispatchRoundRobin(b *testing.B) {
	benchEngine(b, func(n int, seed int64) Adversary { return NewRoundRobin() })
}

func BenchmarkDispatchRandom(b *testing.B) {
	benchEngine(b, func(n int, seed int64) Adversary { return NewRandom(seed) })
}

func BenchmarkDispatchQuantum(b *testing.B) {
	benchEngine(b, func(n int, seed int64) Adversary { return NewQuantum(8) })
}
