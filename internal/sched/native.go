package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/pad"
)

// NativeOptions configures the native substrate's fault injection. The zero
// value is a plain free-for-all: every process runs at full speed until it
// finishes or the step budget trips.
//
// The simulated scheduler's adversary cannot be reproduced natively — the Go
// runtime picks the interleaving — so the fault matrix is emulated at the
// step gate instead: crashes stop a process at a global step count, laggers
// are slowed by forced yields, and randomized preemption injects scheduling
// points the runtime would otherwise elide on spin-heavy sections.
type NativeOptions struct {
	// CrashAt stops each listed process permanently once the global step
	// clock reaches the given value, mirroring Schedule.CrashAt: the process
	// never takes another step and the run ends with ErrStalled (unless the
	// budget trips first), exactly like the simulated crash adversary.
	CrashAt map[int]int64

	// LaggerPeriod > 0 starves process LaggerVictim: the victim yields the
	// processor LaggerPeriod times before every step, the native analogue of
	// the simulated lagger granting it one step per period.
	LaggerVictim int
	LaggerPeriod int

	// PreemptEvery > 0 makes every process yield before a step with
	// probability 1/PreemptEvery, drawn from a per-process generator seeded
	// by PreemptSeed. Used by the stress suite to force interleavings that
	// a quiet runtime (especially GOMAXPROCS=1) would never produce.
	// Preemption draws never touch Proc.Rand, so protocol coin flips are
	// unaffected.
	PreemptEvery int
	PreemptSeed  int64
}

// nativeGate implements gate with no arbiter: a step is a fetch-add on a
// padded global clock plus halt/crash checks. Processes are never parked —
// teardown happens by panicking haltSignal out of the next Step call, which
// every live process reaches (the protocols are wait-free loops of steps).
type nativeGate struct {
	clock    pad.Int64
	halted   atomic.Bool // set once: budget tripped, all steppers unwind
	budget   atomic.Bool // the halt was the step budget (vs a stall)
	maxSteps int64

	crashAt              []int64 // per-pid crash step, 0 = never; nil = no crashes
	lagVictim, lagPeriod int
	preemptEvery         uint64
	preempt              []pad.Int64 // per-pid xorshift state (padded: hot path)
}

func (g *nativeGate) now() int64 { return g.clock.Load() }

func (g *nativeGate) step(p *Proc) {
	if g.halted.Load() {
		panic(haltSignal{})
	}
	if g.crashAt != nil {
		if c := g.crashAt[p.id]; c > 0 && g.clock.Load() >= c {
			panic(haltSignal{})
		}
	}
	if g.lagPeriod > 0 && p.id == g.lagVictim {
		for i := 0; i < g.lagPeriod; i++ {
			runtime.Gosched()
		}
	}
	if g.preemptEvery > 0 {
		x := uint64(g.preempt[p.id].Load())
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g.preempt[p.id].Store(int64(x))
		if x%g.preemptEvery == 0 {
			runtime.Gosched()
		}
	}
	if t := g.clock.Add(1); g.maxSteps > 0 && t > g.maxSteps {
		g.halted.Store(true)
		g.budget.Store(true)
		panic(haltSignal{})
	}
}

// nativeSubstrate runs each process body as a plain goroutine against the
// registers' lock-free storage. See DESIGN.md §14.
type nativeSubstrate struct {
	opts NativeOptions
}

// NewNative returns the native-hardware substrate: n real goroutines, no
// step arbiter, the runtime scheduler as the adversary. Determinism is
// forfeited — equal seeds reproduce each process's private coins but not the
// interleaving — so correctness under this substrate is checked online by
// the audit monitor rather than by trace replay.
func NewNative(opts NativeOptions) Substrate { return &nativeSubstrate{opts: opts} }

func (s *nativeSubstrate) Name() string          { return "native" }
func (s *nativeSubstrate) NativeRegisters() bool { return true }

// Run implements Substrate. Config.Adversary and Config.OnStep are ignored:
// there is no grant sequence to pick or observe. Result.WaitSteps is zero —
// nothing ever waits in a queue — and Result.Steps can overshoot MaxSteps by
// up to one step per process (each in-flight stepper learns of the halt from
// its own clock increment).
func (s *nativeSubstrate) Run(cfg Config, body func(*Proc)) (Result, error) {
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("sched: invalid N=%d", cfg.N)
	}
	g := &nativeGate{
		maxSteps:     cfg.MaxSteps,
		lagVictim:    s.opts.LaggerVictim,
		lagPeriod:    s.opts.LaggerPeriod,
		preemptEvery: uint64(max(s.opts.PreemptEvery, 0)),
	}
	if len(s.opts.CrashAt) > 0 {
		g.crashAt = make([]int64, cfg.N)
		for pid, step := range s.opts.CrashAt {
			if pid >= 0 && pid < cfg.N {
				g.crashAt[pid] = step
			}
		}
	}
	if g.preemptEvery > 0 {
		g.preempt = make([]pad.Int64, cfg.N)
		for i := range g.preempt {
			// Seed each lane non-zero; xorshift has a zero fixed point.
			g.preempt[i].Store(s.opts.PreemptSeed ^ int64(i+1)*0x7E3779B97F4A7C15 | 1)
		}
	}

	procs := make([]*Proc, cfg.N)
	finished := make([]bool, cfg.N)
	var wg sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		p := newProc(i, cfg.Seed, g)
		procs[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(haltSignal); !ok {
						panic(rec) // real bug in the algorithm body: propagate
					}
					// Crash or budget teardown: the process stays unfinished.
				}
			}()
			body(p)
			finished[p.id] = true
		}()
	}
	wg.Wait()

	res := Result{
		Steps:     g.clock.Load(),
		PerProc:   make([]int64, cfg.N),
		WaitSteps: make([]int64, cfg.N),
		Finished:  finished,
	}
	for i, p := range procs {
		res.PerProc[i] = p.steps
		p.release() // every body has stopped
	}
	if cfg.Sink != nil {
		cfg.Sink.CountN(obs.SchedGrant, res.Steps)
	}
	if g.budget.Load() {
		return res, ErrStepBudget
	}
	for _, f := range finished {
		if !f {
			// Only crashes leave a process unfinished without a budget trip,
			// matching the simulated crash adversary's ErrStalled.
			return res, ErrStalled
		}
	}
	return res, nil
}
