//go:build go1.23

// Package sched provides a deterministic, adversarially scheduled execution
// substrate for asynchronous shared-memory algorithms.
//
// Every atomic shared-memory action performed by a simulated process must be
// preceded by a call to Proc.Step. Under the step scheduler, Step blocks the
// calling process until an Adversary selects that process to move; at most
// one process is between Step and its atomic action at any time, so the
// interleaving of atomic actions is exactly the sequence of scheduler grants.
// This yields fully deterministic executions for a given (seed, adversary)
// pair, which is what the correctness and complexity experiments in this
// repository rely on.
//
// One step engine implements that contract: the direct dispatcher. Run wraps
// each process body in an iter.Pull coroutine and resumes one at a time, and
// scheduling runs inside the bodies themselves. The process holding the
// "token" (the one process currently between a grant and its next Step)
// decides the next grant inline at its next Step; a grant to itself coalesces
// into a plain function return — no coroutine switch — and consecutive
// grants to one process execute as a run of steps. A cross-process handoff
// records the target and yields to Run, which resumes the target: two
// coroutine switches, with no channel operation and no trip through the Go
// scheduler's run queue. The engine has two grant policies (DESIGN.md §11,
// §16):
//
//   - Sequential (the default): the adversary is consulted for every grant.
//     A grant to a process inside a step sequence (Proc.StepSeq: a run of
//     register operations with no process code between them) costs no
//     switch at all: the token holder executes the op on its own coroutine
//     and dispatches on, and the process is resumed only when its run ends.
//   - Commuting (Config.Commuting, see commute.go): the adversary's pick
//     opens a batch of waiting processes whose declared register footprints
//     pairwise commute, and each batch member runs up to commuteQuantum steps
//     before the adversary is consulted again.
//
// iter.Pull needs Go 1.23, but the module's go line stays at 1.22: the nested
// perfbench module builds this one through a replace directive and says go
// 1.22 itself, so raising the root line would break its build. This file
// raises its own language version with the go1.23 build constraint above
// instead; building the package needs a Go 1.23 or later toolchain.
//
// The legacy rendezvous engine (Config.Rendezvous, test-only) has a dedicated
// scheduler goroutine mediate every step through an event send plus a grant
// send — two channel crossings per atomic step. It stays as the equivalence
// suites' reference: they prove the dispatcher's executions byte-identical
// to it.
//
// Real concurrency, where processes race as plain goroutines and atomicity
// rests on the register implementations, is the native Substrate (NewNative).
package sched

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
)

// Sentinel errors returned by Run.
var (
	// ErrStepBudget indicates the run exceeded Config.MaxSteps before every
	// live process finished.
	ErrStepBudget = errors.New("sched: step budget exceeded")

	// ErrStalled indicates the adversary refused to schedule any waiting
	// process (all remaining processes are crashed) while at least one
	// process had not finished.
	ErrStalled = errors.New("sched: execution stalled (all waiting processes crashed)")
)

// haltSignal is thrown (via panic) out of Step in a process parked there when
// the run is being torn down (budget exceeded or stall). It is recovered by
// the process wrapper inside Run and never escapes this package.
type haltSignal struct{}

// Proc is the handle a simulated process uses to interact with the scheduler.
// It carries the process identity, a private deterministic random source, and
// the gate through which every atomic step must pass. A Proc belongs to its
// process: it is used by that process's body and, during an inline
// step-sequence op (see StepSeq), by the token holder's coroutine, never
// concurrently.
type Proc struct {
	id    int
	rng   *rand.Rand
	steps int64
	gate  gate

	// Pending footprint declaration for the next Step (see footprint.go).
	// Written by DeclareRead/DeclareWrite immediately before Step and consumed
	// by the commuting policy's gate; a step taken without a declaration has
	// fpKey 0 (undeclared) and is treated as conflicting with everything.
	fpKey   int64
	fpWrite bool

	// races is fixed by the gate: true only on the native gate, whose
	// processes step as free-running goroutines (see Races). It sits in the
	// padding after fpWrite, which keeps a Proc at 64 bytes.
	races bool

	// opGrant is set while the grant for a step-sequence op has been issued
	// ahead of the op's Step: that Step takes it without dispatching, and
	// until then Now reports opInv, the step at which the op was invoked.
	opGrant bool
	opInv   int64
}

// gate abstracts how a Step is granted.
type gate interface {
	step(p *Proc)
	now() int64
}

// ID returns the process identifier in [0, n).
func (p *Proc) ID() int { return p.id }

// Rand returns the process-private deterministic random source. Algorithms
// must draw all randomness from here so runs are reproducible from the seed.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Steps reports how many atomic steps this process has performed so far.
func (p *Proc) Steps() int64 { return p.steps }

// Races reports whether this process's steps race other processes' in real
// time: true only on the native substrate, whose processes run as plain
// goroutines with no arbiter. Every other gate serializes steps through
// coroutine switches or channel handoffs, so an access between one Step and
// the next needs no lock of its own.
func (p *Proc) Races() bool { return p.races }

// Now returns the global step count at the time of the call. It is used by
// instrumentation (history recording) to timestamp operation intervals; it is
// not meant to be consulted by algorithm logic. Inside a step-sequence op
// whose grant was issued ahead of its Step, it reports the step at which the
// op was invoked until that Step, as it would had the process run the op
// itself.
func (p *Proc) Now() int64 {
	if p.opGrant {
		return p.opInv
	}
	return p.gate.now()
}

// Step blocks until the scheduler grants this process its next atomic
// shared-memory action. Register implementations call it internally; most
// algorithm code never needs to call it directly. The Step of a
// step-sequence op whose grant was issued ahead of it takes that grant and
// returns.
func (p *Proc) Step() {
	if p.opGrant {
		p.opGrant = false
	} else {
		p.gate.step(p)
	}
	p.steps++
}

// Seq is a step sequence: a fixed run of atomic steps with no process code
// between them, such as the arrow clears and collects of a scan pass.
type Seq interface {
	// Op performs step k of the run, which is exactly one register operation
	// (one Step), and reports whether the run goes on.
	Op(p *Proc, k int) bool
}

// StepSeq performs ops 0..n-1 of s as p's next n steps, stopping early after
// an op that reports false, and returns how many ops ran. An op that takes no
// Step or more than one panics, naming p and the op index.
//
// Under the sequential policy the process is resumed only when its run ends:
// a grant to a process inside a run executes its op right away on the
// coroutine that issued the grant (DESIGN.md §11, Step sequences). Every other
// gate runs the ops one by one here, exactly as if p called them in a loop.
func (p *Proc) StepSeq(s Seq, n int) int {
	if d, ok := p.gate.(*dispatcher); ok {
		return d.stepSeq(p, s, n)
	}
	for k := 0; k < n; k++ {
		before := p.steps
		more := s.Op(p, k)
		if p.steps != before+1 {
			panic(opFault(p.id, k, p.steps > before))
		}
		if !more {
			return k + 1
		}
	}
	return n
}

// opFault is the panic message for step-sequence op k of process pid that
// took no Step (extra false) or more than one.
func opFault(pid, k int, extra bool) string {
	took := "no step"
	if extra {
		took = "more than one step"
	}
	return fmt.Sprintf("sched: process %d: step-sequence op %d took %s, want exactly one", pid, k, took)
}

// DeclareRead declares that this process's next Step reads the register
// identified by key (from NewFootprintKey). Register implementations call it
// immediately before Step; the commuting grant policy uses the declaration to
// admit provably-commuting steps into one batch. Under every other gate the
// two field stores are the entire cost.
func (p *Proc) DeclareRead(key int64) { p.fpKey, p.fpWrite = key, false }

// DeclareWrite declares that this process's next Step writes the register
// identified by key. See DeclareRead.
func (p *Proc) DeclareWrite(key int64) { p.fpKey, p.fpWrite = key, true }

// newProc builds the per-process handle; the RNG derivation is shared by every
// engine and substrate so a seed reproduces identical private coins
// everywhere.
func newProc(id int, seed int64, g gate) *Proc {
	_, races := g.(*nativeGate)
	return &Proc{
		id:    id,
		rng:   rand.New(newSource(seed ^ int64(id)*0x7E3779B97F4A7C15 ^ 0x5DEECE66D)),
		gate:  g,
		races: races,
	}
}

// Adversary chooses which waiting process performs the next atomic step.
type Adversary interface {
	// Next picks a pid from waiting (sorted ascending, always non-empty) to
	// schedule for the step numbered step (0-based). Returning a pid not in
	// waiting is a programming error and aborts the run. Returning -1 means
	// "refuse to schedule anyone" (every waiting process is considered
	// crashed); if no further process can finish, the run ends with
	// ErrStalled, and processes that already finished keep their results.
	Next(waiting []int, step int64) int
}

// Config configures a scheduled run.
type Config struct {
	// N is the number of processes. Must be >= 1.
	N int

	// Seed seeds the run: the adversary constructors in this package and the
	// per-process random sources are all derived from it.
	Seed int64

	// Adversary picks the interleaving. Nil defaults to round-robin.
	Adversary Adversary

	// MaxSteps bounds the total number of atomic steps; 0 means no bound.
	// Exceeding it aborts the run with ErrStepBudget.
	MaxSteps int64

	// OnStep, if non-nil, is invoked from the scheduling hot path after each
	// grant with the granted pid and the (1-based) global step count.
	// Invocations are serialized; keep the hook cheap.
	OnStep func(pid int, step int64)

	// Sink, if non-nil, receives scheduler-level accounting (sched.grant
	// counts) in the unified observability registry. Grants are counted, not
	// recorded as events — one event per atomic step would drown any trace.
	// The dispatch engine and the native substrate add a run's grants in one
	// update when the run ends, so a mid-run registry read sees them then.
	Sink *obs.Sink

	// Rendezvous selects the legacy per-step rendezvous engine (a dedicated
	// scheduler goroutine, two channel crossings per step) instead of the
	// direct-dispatch engine. The two engines produce byte-identical
	// executions — identical grant sequences, step accounting, traces and
	// decisions per seed. The flag exists only so the equivalence tests can
	// prove that; the rendezvous engine stays as their reference.
	Rendezvous bool

	// Commuting selects the commuting grant policy (see commute.go): each
	// adversary consult opens a batch of pairwise-commuting steps and every
	// batch member receives a run of up to commuteQuantum (64) steps before
	// the adversary is consulted again. Executions remain sequential and
	// deterministic, and every produced schedule replays byte-identically
	// under the sequential policy. Ignored when Rendezvous is set.
	Commuting bool
}

// Result reports what happened during a run.
type Result struct {
	// Steps is the total number of atomic steps granted.
	Steps int64

	// PerProc is the number of steps each process performed.
	PerProc []int64

	// WaitSteps[i] is the contention accounting for process i: the total
	// number of global steps granted to *other* processes while i was parked
	// in Step waiting for a grant. A fairly scheduled process accumulates
	// about (n-1) wait steps per own step; a starved one accumulates far
	// more. Zero on the native substrate, which has no grant queue.
	WaitSteps []int64

	// Finished reports which processes ran their body to completion. A
	// process can be unfinished if it was crashed by the adversary or if the
	// run hit the step budget.
	Finished []bool
}

// procSlot is one process's scheduling state in the dispatcher. Only the
// token holder touches a run's slots.
type procSlot struct {
	yield      func(struct{}) bool // parks the proc's coroutine; false means the run is torn down
	enqueuedAt int64               // global step count when the proc last entered Step
	perProc    int64
	waitSteps  int64

	// The process's step sequence while it is inside StepSeq (seq is nil
	// otherwise): its next op is k of n, and any token holder may run it.
	proc *Proc
	seq  Seq
	k, n int
}

// dispatcher is the direct-dispatch step engine. It owns everything the two
// grant policies share: the per-process slots, parking, per-grant
// bookkeeping, halt, completion and the Result. Run resumes one process
// coroutine at a time, so all mutable scheduling state is owned by whichever
// process is running (the token holder) or, between two resumes, by Run; the
// coroutine switches provide the happens-before edges, so no lock or atomic
// is needed anywhere on the step path.
//
// The dispatcher is itself the sequential policy's gate. Under
// Config.Commuting the processes' gate is com instead, whose step captures
// footprints and whose dispatch forms batches on top of the same engine.
type dispatcher struct {
	n        int
	adv      Adversary
	maxSteps int64
	onStep   func(pid int, step int64)
	sink     *obs.Sink

	slots    []procSlot
	live     []int  // sorted unfinished pids == the adversary's waiting set
	isLive   []bool // isLive[pid]: O(1) validation of adversary picks
	finished []bool

	steps int64
	next  int // pid Run resumes when the running process yields; -1 ends the run

	// err halts the run. A dispatch that sets it grants no one, so next stays
	// -1 and Run's loop ends; Run then stops every coroutine, and each parked
	// process unwinds via haltSignal.
	err     error
	badPick string // deferred adversary-misbehavior panic, rethrown by Run

	// opPid is the process whose step-sequence op is executing on another
	// process's coroutine, or -1. A panic while it is set is raised in its
	// name.
	opPid int

	// com is the commuting grant policy, nil under sequential dispatch. Only
	// grantNext consults it: each policy's gate calls its own dispatch, so
	// the sequential step path never tests it.
	com *commuter
}

func newDispatcher(cfg Config, adv Adversary) *dispatcher {
	d := &dispatcher{
		n:        cfg.N,
		adv:      adv,
		maxSteps: cfg.MaxSteps,
		onStep:   cfg.OnStep,
		sink:     cfg.Sink,
		slots:    make([]procSlot, cfg.N),
		live:     make([]int, cfg.N),
		isLive:   make([]bool, cfg.N),
		finished: make([]bool, cfg.N),
		next:     -1,
		opPid:    -1,
	}
	for i := 0; i < cfg.N; i++ {
		d.live[i] = i
		d.isLive[i] = true
	}
	if cfg.Commuting {
		ext, _ := adv.(Extender)
		d.com = &commuter{
			dispatcher: d,
			ext:        ext,
			fps:        make([]Footprint, cfg.N),
			batch:      make([]int, 0, cfg.N),
		}
	}
	return d
}

func (d *dispatcher) now() int64 { return d.steps }

// step implements gate for the sequential policy. The caller holds the token
// (it is the one process running user code), so it consults the adversary for
// the next grant directly: a self-pick coalesces into a plain return, a
// cross-pick records the target and parks. A second Step in a step-sequence
// op (the first takes the grant issued ahead of it, see Proc.Step) panics
// before it can dispatch, which could park the wrong coroutine.
func (d *dispatcher) step(p *Proc) {
	if s := &d.slots[p.id]; s.seq != nil {
		panic(opFault(p.id, s.k, true))
	}
	if d.enter(p) && d.dispatch(p.id) {
		return // self-grant: the run of steps continues without a switch
	}
	d.park(p.id)
}

// stepSeq is StepSeq under the sequential policy. p publishes its run in its
// slot, then takes each op's Step path: it runs the op itself on a self-grant
// or when Run resumes it with the op's grant, and parks otherwise. While it is
// parked, other token holders run its ops on its behalf (dispatch), and Run
// resumes it once the run has ended.
func (d *dispatcher) stepSeq(p *Proc, seq Seq, n int) int {
	s := &d.slots[p.id]
	if s.seq != nil {
		panic(opFault(p.id, s.k, true)) // StepSeq inside an op
	}
	if n <= 0 {
		return 0
	}
	s.seq, s.k, s.n = seq, 0, n
	for {
		if !d.enter(p) || !d.dispatch(p.id) {
			d.park(p.id)
			if s.seq == nil {
				return s.k // other token holders ran the rest of the run
			}
		}
		if !d.runOp(p.id) {
			return s.k
		}
	}
}

// runOp performs pid's granted step-sequence op on the calling coroutine and
// reports whether the run goes on. The op's Step finds the grant issued, and
// Now reports the op's invocation step until then.
func (d *dispatcher) runOp(pid int) bool {
	s := &d.slots[pid]
	p, k := s.proc, s.k
	p.opGrant, p.opInv = true, s.enqueuedAt
	more := s.seq.Op(p, k)
	if p.opGrant {
		panic(opFault(pid, k, false))
	}
	s.k++
	if more && s.k < s.n {
		return true
	}
	s.seq = nil
	return false
}

// enter records that p reached a Step. It reports whether p holds the token
// and must dispatch the step's grant itself; false means p is at its first
// Step, still in startup, where Run makes the first dispatch once every
// process has arrived.
func (d *dispatcher) enter(p *Proc) bool {
	d.slots[p.id].enqueuedAt = d.steps
	return p.steps > 0
}

// park yields to Run and returns once Run resumes this process with a grant.
// A false yield means Run is stopping the coroutine to tear the run down: the
// process unwinds via haltSignal.
func (d *dispatcher) park(pid int) {
	if !d.slots[pid].yield(struct{}{}) {
		panic(haltSignal{})
	}
}

// dispatch is the sequential grant policy: the adversary picks every grant.
// It reports whether the grant went to self, which is -1 when no process is
// asking (the run's first grant, or one after a completion: the finishing
// process cannot be picked, it has already left the live set).
//
// A grant from a process's Step to another process inside a step sequence
// runs that op here instead of resuming the process, then dispatches the
// grant its next op asks for, and so on until a grant goes to self, to a
// process outside a run, or ends a run (Run then resumes that process). A
// grant no process asks for resumes its process, which runs the op itself:
// no op runs on Run's own goroutine, where a panic in it could not be raised
// in the process's name.
func (d *dispatcher) dispatch(self int) bool {
	for {
		if d.exhausted() {
			d.err = ErrStepBudget
			return false
		}
		pick := d.adv.Next(d.live, d.steps)
		if pick < 0 || pick >= d.n || !d.isLive[pick] {
			d.refuse(pick)
			return false
		}
		if d.issue(pick, self) {
			return true
		}
		if self < 0 || d.slots[pick].seq == nil {
			return false
		}
		d.opPid = pick
		more := d.runOp(pick)
		d.opPid = -1
		if !more {
			return false
		}
		d.next = -1
		d.slots[pick].enqueuedAt = d.steps // pick is at its next op's Step
	}
}

// exhausted reports whether the step budget is spent.
func (d *dispatcher) exhausted() bool { return d.maxSteps > 0 && d.steps >= d.maxSteps }

// refuse halts the run with ErrStalled after the adversary picked no waiting
// process: -1 refuses them all; any other pid is a bad pick, recorded for Run
// to rethrow.
func (d *dispatcher) refuse(pick int) {
	if pick != -1 {
		d.badPick = fmt.Sprintf("sched: adversary picked pid %d not in waiting set %v", pick, d.live)
	}
	d.err = ErrStalled
}

// issue grants the next step to pid: it charges pid's wait, advances the
// clock and reports the grant to OnStep. It reports whether pid is the
// caller; otherwise it records pid as the process Run resumes next. Run
// counts the grants, d.steps of them, when the run ends.
func (d *dispatcher) issue(pid, self int) bool {
	s := &d.slots[pid]
	s.waitSteps += d.steps - s.enqueuedAt
	d.steps++
	s.perProc++
	if d.onStep != nil {
		d.onStep(pid, d.steps)
	}
	if pid == self {
		return true
	}
	d.next = pid
	return false
}

// done records a completed body. A process that has taken at least one step
// holds the token and dispatches the next grant itself; one that finished
// before its first Step did so during startup, where Run makes the first
// dispatch.
func (d *dispatcher) done(p *Proc) {
	pid := p.id
	d.finished[pid] = true
	d.isLive[pid] = false
	for i, v := range d.live {
		if v == pid {
			d.live = append(d.live[:i], d.live[i+1:]...)
			break
		}
	}
	if p.steps > 0 {
		d.grantNext()
	}
}

// grantNext dispatches a grant no process is asking for (the run's first, or
// the one after a completion) under the run's policy, unless every process
// has finished.
func (d *dispatcher) grantNext() {
	switch {
	case len(d.live) == 0:
	case d.com != nil:
		d.com.dispatch(-1)
	default:
		d.dispatch(-1)
	}
}

// Run executes body once per process under the configured adversarial
// scheduler and blocks until every process has finished, crashed, or the step
// budget is exhausted. It returns a Result together with ErrStepBudget or
// ErrStalled when the run did not complete cleanly; the Result is valid in
// all cases. A panic in body is re-raised in the caller's goroutine, once
// every process has been torn down, as a string holding the panic value, the
// pid and the body's stack at the panic.
func Run(cfg Config, body func(*Proc)) (Result, error) {
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("sched: invalid N=%d", cfg.N)
	}
	if cfg.Rendezvous {
		return runRendezvous(cfg, body)
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRoundRobin()
	}
	d := newDispatcher(cfg, adv)
	var g gate = d
	if d.com != nil {
		g = d.com
	}

	// Each body runs as a coroutine, only while Run resumes it. The deferred
	// stops tear the run down on every exit path, including a body panic that
	// resume re-raises here: stopping a parked coroutine makes its pending
	// yield return false, so it unwinds via haltSignal; stopping a finished
	// one is a no-op.
	resume := make([]func() (struct{}, bool), cfg.N)
	for i := range resume {
		p := newProc(i, cfg.Seed, g)
		d.slots[i].proc = p
		next, stop := iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(haltSignal); !ok {
						// Real bug in the algorithm body, or in a step-sequence
						// op this coroutine ran for process opPid. Its stack
						// dies with the coroutine, so the re-raised panic
						// carries it.
						pid := i
						if d.opPid >= 0 {
							pid = d.opPid
						}
						panic(fmt.Sprintf("%v\n\nprocess %d panicked at:\n%s", rec, pid, debug.Stack()))
					}
					// Halt teardown: no completion bookkeeping.
				}
			}()
			d.slots[i].yield = yield
			body(p)
			d.done(p)
		})
		defer stop()
		resume[i] = next
	}
	// Serialized startup: resume the bodies in pid order, each up to its first
	// Step (or to its end, if it never steps). Protocol preambles run user
	// code — and may emit trace events — before the scheduler has any token
	// to hand out; running them in pid order keeps traces byte-deterministic.
	// No grant is issued before every body has arrived, so this order does
	// not affect grant sequences or step counts.
	for _, next := range resume {
		next()
	}
	d.grantNext()
	for d.next >= 0 {
		pid := d.next
		d.next = -1
		resume[pid]()
	}
	d.sink.CountN(obs.SchedGrant, d.steps)
	if d.badPick != "" {
		panic(d.badPick)
	}
	res := Result{
		Steps:     d.steps,
		PerProc:   make([]int64, cfg.N),
		WaitSteps: make([]int64, cfg.N),
		Finished:  d.finished,
	}
	for i := range d.slots {
		res.PerProc[i] = d.slots[i].perProc
		res.WaitSteps[i] = d.slots[i].waitSteps
	}
	return res, d.err
}

// event is how process goroutines talk to the rendezvous scheduler loop.
type event struct {
	pid  int
	done bool // true: body returned (or halted); false: requesting a step
}

// runner implements gate for the legacy rendezvous engine.
type runner struct {
	events  chan event
	grants  []chan bool     // per-pid; false grant means halt
	arrived []chan struct{} // closed at the proc's first Step (or finish without one)
	clock   atomic.Int64
}

func (r *runner) step(p *Proc) {
	if p.steps == 0 {
		// Signal arrival before blocking on the (unbuffered) event channel:
		// during serialized startup the spawner is waiting on this signal and
		// the scheduler loop is not yet consuming events.
		close(r.arrived[p.id])
	}
	r.events <- event{pid: p.id}
	if ok := <-r.grants[p.id]; !ok {
		panic(haltSignal{})
	}
}

func (r *runner) now() int64 { return r.clock.Load() }

// runRendezvous is the legacy engine: a dedicated scheduler goroutine grants
// steps one event/grant rendezvous at a time. Kept behind Config.Rendezvous
// only for the engine-equivalence tests.
func runRendezvous(cfg Config, body func(*Proc)) (Result, error) {
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRoundRobin()
	}

	r := &runner{
		events:  make(chan event),
		grants:  make([]chan bool, cfg.N),
		arrived: make([]chan struct{}, cfg.N),
	}
	res := Result{
		PerProc:   make([]int64, cfg.N),
		WaitSteps: make([]int64, cfg.N),
		Finished:  make([]bool, cfg.N),
	}
	// enqueuedAt[pid] is the global step count when pid last entered the
	// waiting set; the grant charges the elapsed steps as wait time.
	enqueuedAt := make([]int64, cfg.N)

	var wg sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		r.grants[i] = make(chan bool, 1)
		r.arrived[i] = make(chan struct{})
		p := newProc(i, cfg.Seed, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(haltSignal); !ok {
						panic(rec) // real bug in the algorithm body: propagate
					}
					r.events <- event{pid: p.id, done: true}
				}
			}()
			body(p)
			if p.steps == 0 {
				// Never called Step: returning is this proc's arrival. Close
				// before the (blocking) done send so the spawner can proceed.
				close(r.arrived[p.id])
			}
			r.events <- event{pid: p.id, done: true}
		}()
		// Serialized startup, mirroring the dispatch engine: pre-Step
		// preamble code (which may emit trace events) executes in pid order,
		// keeping traces byte-deterministic. Grant order is unaffected — the
		// loop below only consults the adversary once all procs are parked.
		<-r.arrived[i]
	}

	// Scheduler loop. Invariant: inflight counts goroutines that are running
	// user code (granted, or not yet blocked for the first time). We only
	// consult the adversary when inflight == 0, i.e. every live process is
	// parked in Step, so the grant order fully determines the interleaving.
	var err error
	inflight := cfg.N
	live := cfg.N
	waiting := make([]int, 0, cfg.N)
	halted := false

	halt := func() {
		if halted {
			return
		}
		halted = true
		for _, pid := range waiting {
			r.grants[pid] <- false
		}
		inflight += len(waiting) // woken goroutines are now running their halt path
		waiting = waiting[:0]
	}

	for live > 0 {
		for inflight > 0 {
			ev := <-r.events
			if ev.done {
				live--
				inflight--
				if !halted {
					res.Finished[ev.pid] = true
				}
				continue
			}
			if halted {
				// Late Step request after halt began: refuse immediately. The
				// goroutine stays in flight; it will report done via its
				// halt-panic recovery path.
				r.grants[ev.pid] <- false
				continue
			}
			waiting = insertSorted(waiting, ev.pid)
			enqueuedAt[ev.pid] = res.Steps
			inflight--
		}
		if live == 0 {
			break
		}
		if halted {
			continue
		}
		if cfg.MaxSteps > 0 && res.Steps >= cfg.MaxSteps {
			err = ErrStepBudget
			halt()
			continue
		}
		pick := adv.Next(waiting, res.Steps)
		if pick == -1 {
			err = ErrStalled
			halt()
			continue
		}
		idx := indexOf(waiting, pick)
		if idx < 0 {
			panic(fmt.Sprintf("sched: adversary picked pid %d not in waiting set %v", pick, waiting))
		}
		waiting = append(waiting[:idx], waiting[idx+1:]...)
		res.WaitSteps[pick] += res.Steps - enqueuedAt[pick]
		res.Steps++
		res.PerProc[pick]++
		r.clock.Store(res.Steps)
		cfg.Sink.Count(obs.SchedGrant)
		if cfg.OnStep != nil {
			cfg.OnStep(pick, res.Steps)
		}
		inflight++
		r.grants[pick] <- true
	}
	wg.Wait()
	return res, err
}

func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
