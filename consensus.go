// Package consensus is a Go implementation of bounded polynomial randomized
// consensus for asynchronous shared-memory systems, after Attiya, Dolev and
// Shavit, "Bounded Polynomial Randomized Consensus" (PODC 1989).
//
// The package lets n simulated asynchronous processes, communicating only
// through atomic read/write registers, agree on a binary value with:
//
//   - consistency — no two processes decide differently,
//   - validity — a common input is the decision,
//   - finite expected waiting — every process decides in polynomial expected
//     time, against any schedule, and
//   - bounded memory — every register holds values from a fixed finite range,
//     no matter how long the execution runs.
//
// The primary algorithm (Bounded) is the paper's: a bounded scannable memory
// (snapshot) built from single-writer registers plus two-writer "arrow"
// handshake bits, a bounded weak shared coin driven by a random walk with
// truncated counters, and a bounded rounds strip that represents only the
// K-clamped distances between process rounds as a weighted graph maintained
// with per-edge counters modulo 3K.
//
// Three baselines are included for comparison: AspnesHerlihy (polynomial time
// but unbounded memory — the algorithm the paper bounds), LocalCoin (bounded
// memory but exponential expected time — independent local flips), and
// StrongCoin (assumes the atomic global coin-flip primitive of Chor, Israeli
// and Li).
//
// Executions run under a deterministic, seedable adversarial scheduler:
// every atomic register access is one scheduler step, and a pluggable
// adversary chooses the interleaving — including starvation and crash
// failures. Given equal seeds, runs replay exactly.
//
// # Quick start
//
//	res, err := consensus.Solve(consensus.Config{
//		Inputs: []int{0, 1, 1, 0},
//		Seed:   42,
//	})
//	if err != nil { ... }
//	fmt.Println("agreed on", res.Value)
package consensus

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/walk"
)

// Algorithm selects the consensus protocol.
type Algorithm int

// Available algorithms.
const (
	// Bounded is the paper's algorithm: bounded memory, polynomial expected
	// time. The default.
	Bounded Algorithm = iota + 1
	// AspnesHerlihy is the unbounded-memory polynomial-time baseline.
	AspnesHerlihy
	// LocalCoin is the bounded-memory exponential-time baseline using
	// independent local coin flips.
	LocalCoin
	// StrongCoin assumes an atomic global coin-flip primitive (one shared
	// random bit per round).
	StrongCoin
	// Abrahamson is the unbounded-memory exponential-time baseline ([A88]
	// style): explicit round numbers and independent local coin flips — the
	// fourth quadrant of the design matrix the paper's introduction narrates.
	Abrahamson
	// Anonymous is the anonymous-process variant (Gelashvili's setting): no
	// process identifiers anywhere in the shared memory — every register is
	// multi-writer and no payload or index depends on a pid. Registers stay
	// two bits wide but their count grows with rounds, the opposite frontier
	// point from Bounded's n fixed registers of bounded width.
	Anonymous
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Bounded:
		return "bounded"
	case AspnesHerlihy:
		return "aspnes-herlihy"
	case LocalCoin:
		return "local-coin"
	case StrongCoin:
		return "strong-coin"
	case Abrahamson:
		return "abrahamson"
	case Anonymous:
		return "anonymous"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

func (a Algorithm) kind() (core.Kind, error) {
	switch a {
	case Bounded:
		return core.KindBounded, nil
	case AspnesHerlihy:
		return core.KindAHUnbounded, nil
	case LocalCoin:
		return core.KindExpLocal, nil
	case StrongCoin:
		return core.KindStrongCoin, nil
	case Abrahamson:
		return core.KindAbrahamson, nil
	case Anonymous:
		return core.KindAnonymous, nil
	default:
		return 0, fmt.Errorf("consensus: unknown algorithm %d", int(a))
	}
}

// ScheduleKind selects the adversary controlling the interleaving.
type ScheduleKind int

// Available schedule kinds.
const (
	// RoundRobin cycles through processes fairly. The default.
	RoundRobin ScheduleKind = iota + 1
	// RandomSchedule picks a uniformly random runnable process each step.
	RandomSchedule
	// LaggerSchedule starves one victim process, scheduling it only once
	// every Period steps.
	LaggerSchedule
)

// Schedule configures the adversary. The zero value is round-robin with no
// crashes.
type Schedule struct {
	Kind ScheduleKind
	// Victim and Period configure LaggerSchedule.
	Victim int
	Period int
	// CrashAt permanently stops scheduling each listed process once the
	// global step count reaches the given value, on top of any Kind.
	CrashAt map[int]int64
}

// check refuses an unknown schedule kind. It runs when an instance is
// resolved, so a bad kind fails before anything runs, even in a batch whose
// workers build the adversaries later.
func (s Schedule) check() error {
	switch s.Kind {
	case 0, RoundRobin, RandomSchedule, LaggerSchedule:
		return nil
	}
	return fmt.Errorf("consensus: unknown schedule kind %d", int(s.Kind))
}

// adversary builds and seeds the adversary for an instance with seed seed.
// The schedule must have passed check.
func (s Schedule) adversary(seed int64) sched.Adversary {
	var adv sched.Adversary
	switch s.Kind {
	case 0, RoundRobin:
		adv = sched.NewRoundRobin()
	case RandomSchedule:
		adv = sched.NewRandom(seed ^ 0x5ca1ab1e)
	case LaggerSchedule:
		period := s.Period
		if period <= 0 {
			period = 16
		}
		adv = sched.NewLagger(s.Victim, period, seed^0x5ca1ab1e)
	default:
		panic(s.check()) // unreachable: the caller checked the schedule
	}
	if len(s.CrashAt) > 0 {
		adv = sched.NewCrash(adv, s.CrashAt)
	}
	return adv
}

// SubstrateKind selects the execution backend processes run on.
type SubstrateKind int

// Available substrates.
const (
	// SimulatedSubstrate runs processes under the deterministic adversarial
	// step scheduler: one atomic step at a time, byte-reproducible per seed.
	// The default.
	SimulatedSubstrate SubstrateKind = iota + 1
	// NativeSubstrate runs each process as a real goroutine against
	// lock-free cache-line-padded sync/atomic registers with no step
	// arbiter: the Go runtime and the hardware are the adversary. Equal
	// seeds reproduce each process's private coins but not the
	// interleaving, so trace replay does not apply — enable Audit to check
	// correctness online instead. Schedule.Kind is ignored (the hardware
	// schedules), but Schedule.CrashAt and LaggerSchedule's victim/period
	// are emulated at the step gate. Profile is rejected on this substrate.
	NativeSubstrate
)

// String implements fmt.Stringer.
func (s SubstrateKind) String() string {
	switch s {
	case 0, SimulatedSubstrate:
		return "simulated"
	case NativeSubstrate:
		return "native"
	default:
		return fmt.Sprintf("SubstrateKind(%d)", int(s))
	}
}

// substrate builds the sched.Substrate for the config, nil meaning the
// default simulated path (which core executes without indirection).
func (c Config) substrate() (sched.Substrate, error) {
	switch c.Substrate {
	case 0, SimulatedSubstrate:
		return nil, nil
	case NativeSubstrate:
		opts := sched.NativeOptions{
			CrashAt:      c.Schedule.CrashAt,
			PreemptEvery: c.NativePreemptEvery,
			PreemptSeed:  c.Seed ^ 0x5ca1ab1e,
		}
		if c.Schedule.Kind == LaggerSchedule {
			opts.LaggerVictim = c.Schedule.Victim
			opts.LaggerPeriod = c.Schedule.Period
			if opts.LaggerPeriod <= 0 {
				opts.LaggerPeriod = 16
			}
		}
		return sched.NewNative(opts), nil
	default:
		return nil, fmt.Errorf("consensus: unknown substrate kind %d", int(c.Substrate))
	}
}

// algorithm is c.Algorithm with the zero value defaulted to Bounded.
func (c Config) algorithm() Algorithm {
	if c.Algorithm == 0 {
		return Bounded
	}
	return c.Algorithm
}

// instance resolves c into one core instance without its adversary or
// instruments: it checks the inputs and the schedule, maps the algorithm,
// memory and substrate onto their core values, and refuses what the native
// substrate cannot run. Solve and SolveBatch add the instruments, and the
// adversary when the instance is simulated (Substrate nil): the native
// substrate ignores it, and Solve builds it here while SolveBatch's workers
// build it where the instance runs.
func (c Config) instance() (core.Instance, error) {
	if len(c.Inputs) == 0 {
		return core.Instance{}, errors.New("consensus: Config.Inputs must not be empty")
	}
	kind, err := c.algorithm().kind()
	if err != nil {
		return core.Instance{}, err
	}
	memKind, err := c.Memory.kind()
	if err != nil {
		return core.Instance{}, err
	}
	if err := c.Schedule.check(); err != nil {
		return core.Instance{}, err
	}
	sub, err := c.substrate()
	if err != nil {
		return core.Instance{}, err
	}
	if sub != nil && sub.NativeRegisters() && c.Profile {
		return core.Instance{}, errors.New("consensus: Profile requires the simulated substrate (profiler hooks assume serialized steps)")
	}
	if sub != nil && sub.NativeRegisters() && c.ParallelDispatch {
		return core.Instance{}, errors.New("consensus: ParallelDispatch requires the simulated substrate (native runs schedule on the hardware, not the adversary)")
	}
	return core.Instance{
		Kind: kind,
		Cfg: core.Config{
			K:              c.K,
			B:              c.B,
			M:              c.M,
			MemKind:        memKind,
			UseBloomArrows: c.UseBloomArrows,
			FastDecide:     c.FastDecide,
		},
		Inputs:    c.Inputs,
		Seed:      c.Seed,
		MaxSteps:  c.MaxSteps,
		Substrate: sub,
		Commuting: c.ParallelDispatch,
	}, nil
}

// MemoryKind selects the scannable-memory (snapshot) implementation.
type MemoryKind int

// Available memory kinds.
const (
	// ArrowMemory is the paper's bounded arrow-handshake snapshot. The
	// default.
	ArrowMemory MemoryKind = iota + 1
	// SeqSnapMemory is the unbounded sequence-number snapshot baseline.
	SeqSnapMemory
	// WaitFreeMemory is the bounded wait-free atomic snapshot (Afek et al.),
	// the successor construction to the paper's scannable memory: scans
	// cannot be starved by writers.
	WaitFreeMemory
)

func (m MemoryKind) kind() (scan.Kind, error) {
	switch m {
	case 0, ArrowMemory:
		return scan.KindArrow, nil
	case SeqSnapMemory:
		return scan.KindSeqSnap, nil
	case WaitFreeMemory:
		return scan.KindWaitFree, nil
	default:
		return 0, fmt.Errorf("consensus: unknown memory kind %d", int(m))
	}
}

// Config configures one consensus instance.
type Config struct {
	// Inputs holds each process's initial binary value; len(Inputs) is the
	// number of processes. Required.
	Inputs []int

	// Algorithm selects the protocol (default Bounded).
	Algorithm Algorithm

	// Seed makes the run deterministic: process randomness and seeded
	// adversaries derive from it.
	Seed int64

	// Schedule configures the adversarial scheduler (default round-robin).
	Schedule Schedule

	// Substrate selects the execution backend (default SimulatedSubstrate).
	// NativeSubstrate trades determinism for real hardware concurrency; see
	// the SubstrateKind docs for what carries over.
	Substrate SubstrateKind

	// ParallelDispatch enables commuting-step dispatch on the simulated
	// substrate: each adversary pick seeds a batch of steps with pairwise
	// disjoint register footprints (different registers, or read-read on the
	// same register), granted together between adversary consults. Every
	// schedule it produces is a legal sequential grant order — the equivalence
	// suite proves each run's trace byte-identical to replaying its recorded
	// grant sequence through the sequential engine — so agreement, validity
	// and step-accounting semantics are unchanged; only the adversary's
	// consult granularity coarsens (it still picks every batch leader, and
	// eligibility-aware adversaries veto extensions; adversaries without an
	// eligibility notion degrade to exact sequential dispatch). Runs are
	// deterministic and seed-reproducible, but a seed's schedule differs from
	// its sequential-dispatch schedule. It also switches the scan layer to
	// the dirty-bit epoch retry path, which re-checks only tripped registers
	// on failed double collects. Rejected with NativeSubstrate (hardware
	// picks that schedule, there is no dispatcher to batch).
	ParallelDispatch bool

	// NativePreemptEvery > 0 injects a randomized goroutine yield with
	// probability 1/k before each step on the native substrate — a stress
	// knob that forces fine-grained interleavings even on few cores. The
	// preemption coins are separate from protocol randomness, so Seed still
	// reproduces each process's private coins. Ignored on the simulated
	// substrate (its adversary already controls the interleaving).
	NativePreemptEvery int

	// MaxSteps aborts the run after this many atomic steps (0 = no limit).
	// Aborted runs return ErrStepBudget with partial results.
	MaxSteps int64

	// K is the rounds-strip constant (default 2, the paper's choice).
	K int
	// B is the shared-coin barrier multiplier (default 4). Larger B lowers
	// the per-round disagreement probability at the cost of longer walks.
	B int
	// M bounds each coin counter (default: derived from B and n per the
	// paper's Lemma 3.3).
	M int

	// Memory selects the snapshot implementation (default ArrowMemory).
	Memory MemoryKind
	// UseBloomArrows builds the arrow registers from Bloom's 2W2R
	// construction over SWMR registers instead of the direct atomic model.
	UseBloomArrows bool
	// FastDecide enables the footnote-5 style speedup of the Bounded
	// algorithm: deciders publish a decided marker that others adopt
	// immediately. Ignored by the other algorithms.
	FastDecide bool

	// Audit enables the online invariant monitor (internal/obs/audit): range
	// probes on coin counters and strip edges, sampled strip-graph and
	// register-regularity audits, scan handshake checks, and end-of-instance
	// agreement/validity checks. Probes are passive — decisions and step
	// counts are byte-identical with auditing on or off. Violations surface
	// in Result.Violations and each produces a flight-recorder dump.
	Audit bool
	// AuditSampleEvery controls how often the expensive sampled probes run
	// (graph validation, register linearization windows): every Nth
	// opportunity (default 64; 1 = every opportunity, as replay uses).
	AuditSampleEvery int
	// AuditDumpDir, if non-empty, is where flight-recorder dumps are written
	// as JSONL files (see Result.AuditDumps). When empty, dumps are kept
	// in memory only.
	AuditDumpDir string

	// Profile enables the causal step profiler (internal/obs/prof): every
	// granted step is classified as productive / scan-retry / coin-spin /
	// strip-wait, each failed scan pass is blamed on the (writer, register)
	// that tripped the re-check, and the reads-from chain gating the decision
	// is reconstructed. Hooks are passive like the audit probes — profiled
	// runs are byte-identical to unprofiled ones. Results surface as prof.*
	// entries in Result.Counters/Gauges, Result.Matrices, and the full
	// Result.Profile report.
	Profile bool

	// Latency enables wall-clock accounting: the solve's monotonic elapsed
	// time is reported in Result.LatencyNS and observed into the lat.solve
	// histogram (Result.Hists). Measurement happens strictly outside the
	// execution — the clock is read before the first step and after the last,
	// never in between — so metered runs are byte-identical to unmetered ones
	// (same traces, decisions and step counts); only the lat.solve entry and
	// LatencyNS differ, and their values are wall-clock noise, not replayable
	// state. See internal/obs/tail for the batch-level tail machinery.
	Latency bool

	// Space enables the space-accounting meters (internal/obs/space): live
	// and peak register counts, per-layer word layouts, and bits-per-register
	// both declared (information-theoretic width of the value domain — coin
	// counters clamped to ±(M+1), strip counters mod 3K, round numbers
	// unbounded) and measured (widest payload actually stored). Meter hooks
	// are passive — no scheduler steps, no randomness, no events, no
	// allocation — so metered runs are byte-identical to unmetered ones.
	// Results surface in Result.Space and as space.* entries in Result.Gauges.
	Space bool

	// TraceWriter, if non-nil, receives a human-readable protocol event log
	// (round advances, preference changes, coin flips, decisions) in
	// scheduler order — one line per event. Only core-layer (protocol) events
	// are written; the lower layers are too chatty for a human log.
	TraceWriter io.Writer

	// TraceJSONL, if non-nil, receives the full cross-layer event stream —
	// register operations, scan retries, walk steps, strip moves, protocol
	// events — as JSON lines (see internal/obs for the schema). The stream is
	// flushed before Solve returns. Analyze it with cmd/traceview.
	TraceJSONL io.Writer

	// Recorder, if non-nil, receives every event as a value (no encoding) —
	// e.g. an obs.Ring keeping the last N events in memory. It can be
	// combined with TraceWriter and TraceJSONL.
	Recorder obs.Recorder

	// Sink, if non-nil, is the observability hub the run reports into: its
	// metrics registry accumulates across every run sharing the sink, so one
	// snapshot covers a sequence of runs. The trace surfaces above stack on
	// top of any recorder the sink already carries. When nil, Solve builds a
	// private sink and its registry is visible only through Result.
	Sink *obs.Sink
}

// Result reports the outcome of a consensus run.
type Result struct {
	// Value is the agreed value (0 or 1), or -1 if no process decided.
	Value int
	// Decided and Values report each process's individual outcome.
	Decided []bool
	Values  []int

	// Steps is the total number of atomic shared-memory steps taken.
	Steps int64
	// LatencyNS is the wall-clock solve latency in nanoseconds when
	// Config.Latency is set; 0 otherwise. Unlike Steps it is NOT
	// deterministic — equal seeds measure different wall clocks.
	LatencyNS int64
	// PerProcSteps breaks Steps down by process.
	PerProcSteps []int64
	// Rounds is each process's count of round advances.
	Rounds []int64
	// CoinFlips is each process's count of random-walk steps.
	CoinFlips []int64

	// MaxAbsCoin is the largest |coin counter| written (space accounting).
	MaxAbsCoin int64
	// MaxRound is the largest explicit round number written — 0 for the
	// bounded algorithm, which stores none.
	MaxRound int64

	// Counters is the cross-layer event-count registry keyed by stable event
	// identifiers ("register.swmr.read", "scan.retry", "core.decide", ...).
	// Zero-count kinds are omitted. Collected on every run — the counting
	// path is a handful of atomic increments with no allocation.
	Counters map[string]int64
	// Gauges holds the registry's max-gauges ("core.max_abs_coin", ...),
	// zero-valued gauges omitted.
	Gauges map[string]int64
	// Hists holds the registry's histograms keyed by stable identifiers:
	// "core.steps_to_decide", "scan.retries_per_scan", and the per-phase
	// "phase.steps.*" family (one sample per decided process; the family's
	// sums decompose core.steps_to_decide). Empty histograms are omitted.
	Hists map[string]obs.HistSnapshot
	// Matrices holds matrix-valued metrics when Config.Profile is set: the
	// n×n "prof.blame" grid (scans by row pid failed because of column pid's
	// register) and the 1×n "prof.contention" register heatmap. Nil when
	// profiling is off.
	Matrices map[string]obs.MatrixSnapshot

	// Profile is the full profiler report (step classes, per-process ledger,
	// blame and contention matrices, phase slices, and the critical path)
	// when Config.Profile is set; nil otherwise. Export it with
	// prof.WritePerfetto or analyze it with cmd/traceview -prof.
	Profile *prof.Profile

	// Space is the space-accounting report (register counts, per-layer word
	// layouts, declared and measured bits-per-register) when Config.Space is
	// set; nil otherwise. Analyze it with cmd/traceview -space.
	Space *space.Usage

	// Violations counts invariant-probe firings by probe name ("coin.range",
	// "strip.graph", ...) when Config.Audit is set; nil when auditing is off
	// or the run was clean.
	Violations map[string]int64
	// Truncations counts coin-counter saturations at ±(M+1) observed by the
	// monitor (legal per the paper — accounting, not a violation).
	Truncations int64
	// AuditDumps lists the flight-recorder dump files written under
	// Config.AuditDumpDir, in violation order. Feed one to cmd/consensus-audit
	// to replay the instance post-mortem.
	AuditDumps []string
}

// Errors returned by Solve, wrapped from the scheduler.
var (
	// ErrStepBudget reports that MaxSteps elapsed before every process
	// decided.
	ErrStepBudget = sched.ErrStepBudget
	// ErrStalled reports that every remaining process was crashed by the
	// schedule before deciding. Survivors' decisions are still reported.
	ErrStalled = sched.ErrStalled
)

// Solve runs one consensus instance to completion and returns the outcome.
// The error is nil when every process decided; ErrStepBudget or ErrStalled
// (with partial results) otherwise.
func Solve(cfg Config) (Result, error) {
	inst, err := cfg.instance()
	if err != nil {
		return Result{}, err
	}
	if inst.Substrate == nil {
		inst.Adversary = cfg.Schedule.adversary(cfg.Seed)
	}
	// One sink serves every trace surface: the human-readable log filters the
	// shared event stream to the core layer, the JSONL export takes all of
	// it, and the metrics registry counts regardless. With no consumer the
	// sink is metrics-only, which costs atomic increments and no allocation.
	var recs []obs.Recorder
	if cfg.TraceWriter != nil {
		recs = append(recs, obs.FilterLayers(obs.NewTextRecorder(cfg.TraceWriter), obs.LayerCore))
	}
	var jsonl *obs.JSONLRecorder
	if cfg.TraceJSONL != nil {
		jsonl = obs.NewJSONLRecorder(cfg.TraceJSONL)
		recs = append(recs, jsonl)
	}
	if cfg.Recorder != nil {
		recs = append(recs, cfg.Recorder)
	}
	sink := obs.NewSink(obs.Tee(recs...))
	if cfg.Sink != nil {
		// Share the caller's registry; stack this run's trace surfaces onto
		// any recorder the caller's sink already has.
		all := append([]obs.Recorder{cfg.Sink.Recorder()}, recs...)
		sink = cfg.Sink.WithRecorder(obs.Tee(all...))
	}
	var mon *audit.Monitor
	if cfg.Audit {
		mon = audit.New(audit.Options{
			SampleEvery: cfg.AuditSampleEvery,
			DumpDir:     cfg.AuditDumpDir,
		})
		mon.SetRun(runInfoFor(cfg, -1, 0))
	}
	var profiler *prof.Profiler
	if cfg.Profile {
		profiler = prof.New(prof.Options{N: len(cfg.Inputs), RetainSpans: true})
	}
	var meter *space.Meter
	if cfg.Space {
		meter = space.NewMeter()
	}
	solveStart := time.Now() // monotonic; read only when cfg.Latency below
	out, err := core.Execute(inst.Kind, inst.Cfg, core.ExecConfig{
		Inputs:    inst.Inputs,
		Seed:      inst.Seed,
		Adversary: inst.Adversary,
		MaxSteps:  inst.MaxSteps,
		Sink:      sink,
		Monitor:   mon,
		Profiler:  profiler,
		Space:     meter,
		Substrate: inst.Substrate,
		Commuting: inst.Commuting,
	})
	var latencyNS int64
	if cfg.Latency {
		// The clock is read strictly after execution finished, so the meter
		// cannot perturb the run; it lands in the registry before Snapshot.
		latencyNS = time.Since(solveStart).Nanoseconds()
		if h := sink.Registry().Hist(obs.HistLatSolve); h != nil {
			h.Observe(latencyNS)
		}
	}
	if jsonl != nil {
		if ferr := jsonl.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("consensus: flushing JSONL trace: %w", ferr)
		}
	}
	if err != nil {
		return Result{}, err
	}
	value, err := out.Agreement()
	if err != nil {
		// A consistency violation would be a bug in the library, not a user
		// error; surface it loudly.
		return Result{}, err
	}
	snap := sink.Registry().Snapshot()
	if profiler.Enabled() {
		// Registry snapshots never carry matrices; the profiler contributes
		// its prof.* counters, gauges and matrices through the merge.
		snap = obs.MergeSnapshots(snap, profiler.Snapshot())
	}
	res := Result{
		Value:        value,
		Decided:      out.Decided,
		Values:       out.Values,
		Steps:        out.Sched.Steps,
		LatencyNS:    latencyNS,
		PerProcSteps: out.Sched.PerProc,
		Rounds:       out.Metrics.Rounds,
		CoinFlips:    out.Metrics.CoinFlips,
		MaxAbsCoin:   out.Metrics.MaxAbsCoin,
		MaxRound:     out.Metrics.MaxRound,
		Counters:     snap.Counters,
		Gauges:       snap.Gauges,
		Hists:        snap.Hists,
	}
	if mon != nil {
		res.Violations = mon.Violations()
		res.Truncations = mon.Truncations()
		res.AuditDumps = mon.DumpFiles()
	}
	if profiler.Enabled() {
		res.Matrices = snap.Matrices
		res.Profile = profiler.Report()
	}
	if meter.Enabled() {
		u := meter.Usage()
		res.Space = &u
	}
	return res, out.Err
}

// CoinConfig configures a standalone weak shared coin (see FlipCoin).
type CoinConfig struct {
	// N is the number of processes driving the walk. Required.
	N int
	// B is the barrier multiplier (default 4).
	B int
	// M bounds each counter (default: derived; negative = unbounded).
	M int
	// Seed makes the run deterministic.
	Seed int64
	// Schedule configures the adversary (default round-robin).
	Schedule Schedule
}

// CoinResult reports a standalone shared-coin run.
type CoinResult struct {
	// Outcomes[i] is what process i observed: "heads" or "tails". Processes
	// may disagree — that is the coin's weakness, bounded by (n-1)/(2B).
	Outcomes []string
	// Agreed reports whether all processes observed the same outcome.
	Agreed bool
	// WalkSteps is the total number of counter moves.
	WalkSteps int64
	// MaxAbsCounter is the largest |counter| reached.
	MaxAbsCounter int
}

// FlipCoin runs the paper's bounded weak shared coin once, standalone, and
// reports what each process observed.
func FlipCoin(cfg CoinConfig) (CoinResult, error) {
	if cfg.N < 1 {
		return CoinResult{}, fmt.Errorf("consensus: CoinConfig.N must be >= 1, got %d", cfg.N)
	}
	params := walk.Params{N: cfg.N, B: cfg.B, M: cfg.M}
	if params.B == 0 {
		params.B = 4
	}
	if params.M == 0 {
		params.M = params.DefaultM()
	}
	if params.M < 0 {
		params.M = 0 // unbounded
	}
	coin, err := walk.NewSharedCoin(params)
	if err != nil {
		return CoinResult{}, err
	}
	if err := cfg.Schedule.check(); err != nil {
		return CoinResult{}, err
	}
	adv := cfg.Schedule.adversary(cfg.Seed)
	outcomes := make([]walk.Outcome, cfg.N)
	_, err = sched.Run(sched.Config{N: cfg.N, Seed: cfg.Seed, Adversary: adv}, func(p *sched.Proc) {
		outcomes[p.ID()] = coin.Flip(p)
	})
	if err != nil {
		return CoinResult{}, err
	}
	res := CoinResult{
		Outcomes:      make([]string, cfg.N),
		Agreed:        true,
		WalkSteps:     coin.TotalWalkSteps(),
		MaxAbsCounter: coin.MaxAbsCounter(),
	}
	for i, o := range outcomes {
		res.Outcomes[i] = o.String()
		if o != outcomes[0] {
			res.Agreed = false
		}
	}
	return res, nil
}
