package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tests in this file prove the commuting grant policy's determinism
// contract: every schedule it produces is a legal sequential grant order.
// Concretely, recording the commuting run's grant sequence and replaying it
// under the sequential policy (a FuncAdversary that hands out the recorded
// picks one by one) reproduces the run exactly — same grant sequence, same
// Result accounting, same error. Batch formation itself is pinned by property
// tests over the commutation checker.

// commuteBodies are process bodies that declare register footprints the way
// the register layer does, covering the shapes that matter for batching:
// fully disjoint per-process cells, one shared write-contended cell, mixed
// declared/undeclared steps, and RNG-driven access patterns.
func commuteBodies(n int) []struct {
	name string
	body func(*Proc)
} {
	// Per-process "registers": cell[i] is written by i, readable by all, plus
	// one shared cell everyone writes. Fresh keys per call keep runs isolated.
	cell := make([]int64, n)
	for i := range cell {
		cell[i] = NewFootprintKey()
	}
	shared := NewFootprintKey()
	return []struct {
		name string
		body func(*Proc)
	}{
		{"disjoint", func(p *Proc) {
			for i := 0; i < 120; i++ {
				if i%4 == 0 {
					p.DeclareWrite(cell[p.ID()])
				} else {
					p.DeclareRead(cell[(p.ID()+i)%n])
				}
				p.Step()
			}
		}},
		{"shared-writes", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.DeclareWrite(shared)
				p.Step()
			}
		}},
		{"mixed-undeclared", func(p *Proc) {
			for i := 0; i < 30*(p.ID()+1); i++ {
				if i%2 == 0 {
					p.DeclareRead(cell[i%n])
				}
				p.Step()
			}
		}},
		{"rng", func(p *Proc) {
			for i := 0; i < 60+p.Rand().Intn(80); i++ {
				j := p.Rand().Intn(n)
				if p.Rand().Intn(3) == 0 && j == p.ID() {
					p.DeclareWrite(cell[j])
				} else {
					p.DeclareRead(cell[j])
				}
				p.Step()
			}
		}},
		{"early-exit", func(p *Proc) {
			if p.ID() == 0 {
				return
			}
			for i := 0; i < 90; i++ {
				p.DeclareRead(cell[p.ID()])
				p.Step()
			}
		}},
	}
}

// replayAdv returns a sequential adversary that re-issues a recorded grant
// sequence pick by pick, then stalls.
func replayAdv(seq []grantRec) Adversary {
	i := 0
	return FuncAdversary(func(waiting []int, step int64) int {
		if i >= len(seq) {
			return -1
		}
		pick := seq[i].pid
		i++
		return pick
	})
}

// assertCommutingReplays runs cfg under the commuting policy, replays the
// recorded grant sequence through the sequential dispatcher, and fails on any
// observable divergence.
func assertCommutingReplays(t *testing.T, mk func() Config, body func(*Proc)) {
	t.Helper()
	comCfg := mk()
	comCfg.Commuting = true
	comGrants, comRes, comErr, comCount := engineRun(t, comCfg, body)

	seqCfg := mk()
	seqCfg.Adversary = replayAdv(comGrants)
	seqGrants, seqRes, seqErr, seqCount := engineRun(t, seqCfg, body)

	if len(comGrants) != len(seqGrants) {
		t.Fatalf("grant sequence length: commuting=%d replay=%d", len(comGrants), len(seqGrants))
	}
	for i := range comGrants {
		if comGrants[i] != seqGrants[i] {
			t.Fatalf("grant %d diverges: commuting=%+v replay=%+v", i, comGrants[i], seqGrants[i])
		}
	}
	if comErr != seqErr {
		t.Fatalf("error: commuting=%v replay=%v", comErr, seqErr)
	}
	if comRes.Steps != seqRes.Steps {
		t.Fatalf("Steps: commuting=%d replay=%d", comRes.Steps, seqRes.Steps)
	}
	if comCount != seqCount {
		t.Fatalf("sched.grant count: commuting=%d replay=%d", comCount, seqCount)
	}
	for i := range comRes.PerProc {
		if comRes.PerProc[i] != seqRes.PerProc[i] {
			t.Fatalf("PerProc[%d]: commuting=%d replay=%d", i, comRes.PerProc[i], seqRes.PerProc[i])
		}
		if comRes.WaitSteps[i] != seqRes.WaitSteps[i] {
			t.Fatalf("WaitSteps[%d]: commuting=%d replay=%d", i, comRes.WaitSteps[i], seqRes.WaitSteps[i])
		}
		if comRes.Finished[i] != seqRes.Finished[i] {
			t.Fatalf("Finished[%d]: commuting=%v replay=%v", i, comRes.Finished[i], seqRes.Finished[i])
		}
	}
}

func TestCommutingReplaysSequentiallyAcrossSweep(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8} {
		bodies := commuteBodies(n)
		for _, adv := range equivAdversaries {
			for _, b := range bodies {
				for seed := int64(1); seed <= 3; seed++ {
					n, adv, b, seed := n, adv, b, seed
					name := fmt.Sprintf("n=%d/%s/%s/seed=%d", n, adv.name, b.name, seed)
					t.Run(name, func(t *testing.T) {
						assertCommutingReplays(t, func() Config {
							return Config{N: n, Seed: seed, Adversary: adv.mk(n, seed)}
						}, b.body)
					})
				}
			}
		}
	}
}

func TestCommutingReplaysOnStepBudget(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bodies := commuteBodies(4)
			assertCommutingReplays(t, func() Config {
				return Config{N: 4, Seed: seed, Adversary: NewRandom(seed), MaxSteps: 123}
			}, bodies[0].body)
		})
	}
}

func TestCommutingReplaysOnStall(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bodies := commuteBodies(4)
			assertCommutingReplays(t, func() Config {
				return Config{N: 4, Seed: seed,
					Adversary: NewCrash(NewRandom(seed), map[int]int64{0: 30, 1: 60, 2: 90, 3: 120})}
			}, bodies[0].body)
		})
	}
}

// TestCommutingDeterministic pins byte-determinism directly: two commuting
// runs from one (seed, adversary, body) triple produce identical grant
// sequences and results.
func TestCommutingDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mk := func() Config {
			return Config{N: 6, Seed: seed, Adversary: NewRandom(seed), Commuting: true}
		}
		body := commuteBodies(6)[3].body // rng body: the hardest to reproduce
		g1, r1, e1, _ := engineRun(t, mk(), body)
		g2, r2, e2, _ := engineRun(t, mk(), body)
		if len(g1) != len(g2) {
			t.Fatalf("seed %d: grant counts differ: %d vs %d", seed, len(g1), len(g2))
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("seed %d: grant %d differs: %+v vs %+v", seed, i, g1[i], g2[i])
			}
		}
		if e1 != e2 || r1.Steps != r2.Steps {
			t.Fatalf("seed %d: results differ", seed)
		}
	}
}

// TestCommutingMatchesSequentialForNonExtender: with an adversary that does
// not implement Extender (PCT), the commuting policy must degrade to exactly
// the sequential dispatcher's schedule — singleton batches, an adversary
// consult per step.
func TestCommutingMatchesSequentialForNonExtender(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		bodies := commuteBodies(4)
		for _, b := range bodies {
			mk := func(commuting bool) Config {
				return Config{N: 4, Seed: seed, Adversary: NewPCT(4, 2000, 3, seed), Commuting: commuting}
			}
			sg, sr, se, _ := engineRun(t, mk(false), b.body)
			cg, cr, ce, _ := engineRun(t, mk(true), b.body)
			if len(sg) != len(cg) {
				t.Fatalf("seed %d/%s: grant counts differ: seq=%d commuting=%d", seed, b.name, len(sg), len(cg))
			}
			for i := range sg {
				if sg[i] != cg[i] {
					t.Fatalf("seed %d/%s: grant %d differs: seq=%+v commuting=%+v", seed, b.name, i, sg[i], cg[i])
				}
			}
			if se != ce || sr.Steps != cr.Steps {
				t.Fatalf("seed %d/%s: results differ", seed, b.name)
			}
		}
	}
}

// countingAdv counts adversary consults, delegating scheduling (and
// eligibility) to the wrapped adversary.
type countingAdv struct {
	inner Adversary
	calls int
}

func (a *countingAdv) Next(waiting []int, step int64) int {
	a.calls++
	return a.inner.Next(waiting, step)
}

func (a *countingAdv) Eligible(pid int, step int64) bool {
	if e, ok := a.inner.(Extender); ok {
		return e.Eligible(pid, step)
	}
	return false
}

// TestCommutingBatchesReduceConsults pins the policy's reason to exist: with
// disjoint footprints under an Extender adversary, the adversary is consulted
// far less than once per step.
func TestCommutingBatchesReduceConsults(t *testing.T) {
	const n = 8
	adv := &countingAdv{inner: NewRandom(7)}
	body := commuteBodies(n)[0].body // disjoint cells
	var steps int
	_, err := Run(Config{N: n, Seed: 7, Adversary: adv, Commuting: true,
		OnStep: func(int, int64) { steps++ }}, body)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if steps == 0 {
		t.Fatal("no steps granted")
	}
	if adv.calls*4 > steps {
		t.Fatalf("batching ineffective: %d consults for %d steps (want < steps/4)", adv.calls, steps)
	}
}

// TestBuildCommutingSetProperties drives the batch former and checker over
// randomized footprint tables: the leader always leads, the checker accepts
// every formed set, and no admitted pair overlaps.
func TestBuildCommutingSetProperties(t *testing.T) {
	rng := rand.New(newSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		fps := make([]Footprint, n)
		for i := range fps {
			fps[i] = Footprint{Key: int64(rng.Intn(4)), Write: rng.Intn(2) == 0} // key 0 = undeclared
		}
		cands := make([]int, n)
		for i := range cands {
			cands[i] = i
		}
		leader := rng.Intn(n)
		set := BuildCommutingSet(leader, cands, fps, func(int) bool { return true }, nil)
		if len(set) == 0 || set[0] != leader {
			t.Fatalf("trial %d: leader %d not first in %v", trial, leader, set)
		}
		if err := VerifyCommutingSet(set, fps); err != nil {
			t.Fatalf("trial %d: checker rejected formed set %v: %v", trial, set, err)
		}
		for x := 0; x < len(set); x++ {
			for y := x + 1; y < len(set); y++ {
				a, b := fps[set[x]], fps[set[y]]
				if !a.Declared() || !b.Declared() {
					t.Fatalf("trial %d: undeclared non-singleton member in %v", trial, set)
				}
				if a.Key == b.Key && (a.Write || b.Write) {
					t.Fatalf("trial %d: overlapping pair admitted: %v in %v", trial, []Footprint{a, b}, set)
				}
			}
		}
	}
}
