package sched

import (
	"math"
	"math/rand"
	"slices"
)

// NewRoundRobin returns an adversary that cycles through processes fairly in
// pid order. It is the most benign schedule and the default.
func NewRoundRobin() Adversary { return &roundRobin{last: -1} }

type roundRobin struct{ last int }

func (a *roundRobin) Next(waiting []int, _ int64) int {
	// Pick the smallest pid strictly greater than last, wrapping around.
	for _, pid := range waiting {
		if pid > a.last {
			a.last = pid
			return pid
		}
	}
	a.last = waiting[0]
	return waiting[0]
}

// Eligible implements Extender: round-robin has no starvation semantics, so
// the commuting policy may batch and extend freely.
func (a *roundRobin) Eligible(int, int64) bool { return true }

// NewRandom returns an adversary that picks a uniformly random waiting
// process at every step, deterministically from seed.
func NewRandom(seed int64) Adversary {
	a := new(randomAdv)
	a.rng.Seed(seed)
	return a
}

type randomAdv struct{ rng source }

func (a *randomAdv) Next(waiting []int, _ int64) int {
	return waiting[a.rng.Intn(len(waiting))]
}

// Eligible implements Extender: the random adversary constrains nothing
// beyond its leader picks.
func (a *randomAdv) Eligible(int, int64) bool { return true }

// NewLagger returns an adversary that starves the victim process: the victim
// is scheduled only once every period steps (period >= 1), and otherwise the
// schedule is random. This creates the large round gaps that the paper's
// shrunken rounds strip must absorb. With period == 1 it degenerates to
// NewRandom.
func NewLagger(victim, period int, seed int64) Adversary {
	if period < 1 {
		period = 1
	}
	a := &lagger{victim: victim, period: int64(period)}
	a.rng.Seed(seed)
	return a
}

type lagger struct {
	victim int
	period int64
	rng    source
}

// Next draws from waiting on the victim's periodic steps and otherwise from
// the waiting pids other than the victim, which it indexes in place: the
// r-th of them is waiting[r], or waiting[r+1] at or past the victim's slot.
func (a *lagger) Next(waiting []int, step int64) int {
	v := slices.Index(waiting, a.victim) // -1: the victim is not waiting
	others := len(waiting)
	if v >= 0 {
		others--
	}
	if others == 0 || step%a.period == a.period-1 {
		return waiting[a.rng.Intn(len(waiting))]
	}
	r := a.rng.Intn(others)
	if v >= 0 && r >= v {
		r++
	}
	return waiting[r]
}

// Eligible implements Extender: the victim only ever moves through the
// adversary's own periodic picks — engine-chosen grants would break the
// starvation the lagger exists to model.
func (a *lagger) Eligible(pid int, _ int64) bool { return pid != a.victim }

// NewCrash returns an adversary that behaves like inner but permanently stops
// scheduling each pid in crashAt once the global step count reaches its
// value. If every waiting process is crashed it returns -1, stalling the run
// (survivors that already finished keep their results).
func NewCrash(inner Adversary, crashAt map[int]int64) Adversary {
	m := make(map[int]int64, len(crashAt))
	for pid, at := range crashAt {
		m[pid] = at
	}
	return &crash{inner: inner, crashAt: m}
}

type crash struct {
	inner   Adversary
	crashAt map[int]int64
	at      []int64 // at[pid]: pid's crash step, or math.MaxInt64 for none
	alive   []int   // Next's buffer for the uncrashed waiting pids, reused
}

// crashed reports whether pid is down at step. The first consult of a pid
// past the end of at extends at from crashAt: pids come from the engine, so
// at never outgrows the run's process count, whatever crashAt's keys are.
func (a *crash) crashed(pid int, step int64) bool {
	for len(a.at) <= pid {
		at, ok := a.crashAt[len(a.at)]
		if !ok {
			at = math.MaxInt64
		}
		a.at = append(a.at, at)
	}
	return step >= a.at[pid]
}

func (a *crash) Next(waiting []int, step int64) int {
	alive := a.alive[:0]
	for _, pid := range waiting {
		if !a.crashed(pid, step) {
			alive = append(alive, pid)
		}
	}
	a.alive = alive
	if len(alive) == 0 {
		return -1
	}
	return a.inner.Next(alive, step)
}

// Eligible implements Extender: a crashed pid never moves again; otherwise
// defer to the inner adversary's eligibility (absent, unconstrained).
func (a *crash) Eligible(pid int, step int64) bool {
	if a.crashed(pid, step) {
		return false
	}
	if e, ok := a.inner.(Extender); ok {
		return e.Eligible(pid, step)
	}
	return true
}

// FuncAdversary adapts a plain function to the Adversary interface. It is the
// hook through which protocol-aware ("adaptive") adversaries are built in the
// consensus packages: the function may inspect shared state it closes over.
type FuncAdversary func(waiting []int, step int64) int

// Next implements Adversary.
func (f FuncAdversary) Next(waiting []int, step int64) int { return f(waiting, step) }

// NewQuantum returns an OS-like time-slicing scheduler: the current process
// runs for quantum consecutive steps (or until it stops being runnable),
// then the next runnable pid takes over, round-robin. quantum == 1 is plain
// round-robin; large quanta approximate sequential execution with context
// switches — the schedule shape real machines actually produce.
func NewQuantum(quantum int) Adversary {
	if quantum < 1 {
		quantum = 1
	}
	return &quantumAdv{quantum: quantum, cur: -1}
}

type quantumAdv struct {
	quantum int
	cur     int
	used    int
}

func (a *quantumAdv) Next(waiting []int, _ int64) int {
	if a.cur >= 0 && a.used < a.quantum {
		for _, pid := range waiting {
			if pid == a.cur {
				a.used++
				return pid
			}
		}
	}
	// Rotate: first waiting pid strictly greater than cur, wrapping.
	pick := waiting[0]
	for _, pid := range waiting {
		if pid > a.cur {
			pick = pid
			break
		}
	}
	a.cur, a.used = pick, 1
	return pick
}

// Eligible implements Extender: the quantum scheduler already hands out runs;
// commuting batches only coarsen them further.
func (a *quantumAdv) Eligible(int, int64) bool { return true }

// NewPCT returns a Probabilistic Concurrency Testing scheduler after
// Burckhardt, Kothari, Musuvathi and Nagarakatte (ASPLOS 2010): processes get
// random static priorities, depth-1 priority-change points are placed
// uniformly over the first horizon steps, and at every step the
// highest-priority waiting process moves (its priority dropping below all
// others when it crosses a change point). For a concurrency bug of depth d,
// one run hits it with probability at least 1/(n·horizonᵈ⁻¹) — so sweeping
// seeds gives systematic (not just random-walk) schedule coverage. Note PCT
// deliberately starves low-priority processes for long stretches; that is
// legal adversarial behaviour for wait-free algorithms.
func NewPCT(n int, horizon int64, depth int, seed int64) Adversary {
	if depth < 1 {
		depth = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	rng := rand.New(newSource(seed))
	prio := rng.Perm(n) // prio[pid]: larger = runs first
	points := make(map[int64]bool, depth-1)
	for len(points) < depth-1 {
		points[rng.Int63n(horizon)] = true
	}
	return &pct{prio: prio, points: points, low: -1}
}

type pct struct {
	prio   []int
	points map[int64]bool
	low    int // next below-everything priority to hand out
}

func (a *pct) Next(waiting []int, step int64) int {
	best := waiting[0]
	for _, pid := range waiting[1:] {
		if a.prio[pid] > a.prio[best] {
			best = pid
		}
	}
	if a.points[step] {
		a.prio[best] = a.low
		a.low--
		// Re-pick after the demotion.
		best = waiting[0]
		for _, pid := range waiting[1:] {
			if a.prio[pid] > a.prio[best] {
				best = pid
			}
		}
	}
	return best
}
