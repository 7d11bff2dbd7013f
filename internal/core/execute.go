package core

import (
	"errors"
	"fmt"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/sched"
)

// Protocol is a consensus protocol instance ready to run once: per-process
// bodies that each return a decision, plus post-run metrics.
type Protocol interface {
	// Name identifies the protocol in tables and logs.
	Name() string
	// Run executes one process's side of the protocol and returns its
	// decision. It must be called exactly once per pid, concurrently for all
	// pids of one instance.
	Run(p *sched.Proc, input int) int
	// Metrics returns accounting collected during the run. Call after the
	// run completes.
	Metrics() Metrics
	// install installs a run's instruments on the protocol and the whole
	// stack beneath it, replacing whatever a previous run installed. Call
	// before the run starts.
	install(instruments)
	// installed returns what the last install installed.
	installed() *instruments
}

// Kind names a protocol implementation.
type Kind int

// Protocol kinds.
const (
	KindBounded Kind = iota + 1
	KindAHUnbounded
	KindExpLocal
	KindStrongCoin
	KindAbrahamson
	KindAnonymous
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBounded:
		return "bounded"
	case KindAHUnbounded:
		return "ah-unbounded"
	case KindExpLocal:
		return "exp-local"
	case KindStrongCoin:
		return "strong-coin"
	case KindAbrahamson:
		return "abrahamson"
	case KindAnonymous:
		return "anonymous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New builds a fresh protocol instance of the given kind.
func New(kind Kind, cfg Config) (Protocol, error) {
	switch kind {
	case KindBounded:
		return NewBounded(cfg)
	case KindAHUnbounded:
		return NewAHUnbounded(cfg)
	case KindExpLocal:
		return NewExpLocal(cfg)
	case KindStrongCoin:
		return NewStrongCoin(cfg)
	case KindAbrahamson:
		return NewAbrahamson(cfg)
	case KindAnonymous:
		return NewAnonymous(cfg)
	default:
		return nil, fmt.Errorf("core: unknown protocol kind %d", int(kind))
	}
}

// Outcome is the result of executing one consensus instance.
type Outcome struct {
	// Decided[i] reports whether process i decided; Values[i] is its
	// decision (meaningful only when Decided[i]).
	Decided []bool
	Values  []int
	// Sched is the scheduler-level accounting (total atomic steps etc.).
	Sched sched.Result
	// Metrics is the protocol-level accounting.
	Metrics Metrics
	// Err is nil for a clean run, or sched.ErrStepBudget / sched.ErrStalled.
	Err error
}

// AllDecided reports whether every process decided.
func (o Outcome) AllDecided() bool {
	for _, d := range o.Decided {
		if !d {
			return false
		}
	}
	return true
}

// Agreement checks consistency: no two decided processes hold different
// values. It returns the common decided value (or -1 if nobody decided).
func (o Outcome) Agreement() (int, error) {
	v := -1
	for i, d := range o.Decided {
		if !d {
			continue
		}
		if v == -1 {
			v = o.Values[i]
		} else if v != o.Values[i] {
			return -1, fmt.Errorf("core: consistency violated: processes decided both %d and %d", v, o.Values[i])
		}
	}
	return v, nil
}

// ExecConfig configures one execution of a protocol instance.
type ExecConfig struct {
	// Inputs holds each process's initial value (0 or 1); its length sets N.
	Inputs []int
	// Seed drives all randomness (process coins and seeded adversaries).
	Seed int64
	// Adversary picks the schedule; nil defaults to round-robin.
	Adversary sched.Adversary
	// MaxSteps bounds the run (0 = unbounded).
	MaxSteps int64
	// Sink, if non-nil, is the unified observability sink: it is installed on
	// the protocol and propagated down the whole memory stack (scan layer,
	// registers) and into the scheduler, so one run produces a cross-layer
	// event stream and metrics registry. Nil disables observability at zero
	// cost. Protocol events (round advances, preference changes, coin flips,
	// decisions) reach its recorder in scheduler order; those emitted before
	// a process's first scheduler step (each protocol's initial round
	// advance) arrive in pid order, because the step engine resumes the
	// bodies one at a time in pid order at startup, so the whole event stream
	// is deterministic. Recorder calls are totally ordered with
	// happens-before edges (the coroutine switches of startup and of every
	// token handoff), so a recorder needs no locking of its own. For
	// the same reason a step-serialized run counts its events into a
	// run-local view of the sink (obs.Sink.Local) with plain adds: the
	// counters reach the registry in one flush when the run ends, so a
	// mid-run registry read sees the run's counts then. Native runs count
	// with atomic adds as they go.
	Sink *obs.Sink

	// Commuting selects the commuting-step dispatch engine (see
	// sched.Config.Commuting): the adversary's pick seeds a batch of steps
	// with pairwise-disjoint register footprints, granted together between
	// consults. Every schedule it produces is a legal sequential grant order,
	// so safety results transfer unchanged. Enabling it also switches the scan
	// layer to the dirty-bit epoch retry path (Arrow.SetEpoch), which is where
	// the step savings compound. Incompatible with native substrates (their
	// scheduling is the hardware's, not the adversary's).
	Commuting bool

	// ScanEpoch forces the scan layer's dirty-bit epoch retry path even under
	// sequential dispatch (Commuting implies it). The dispatch-equivalence
	// suite uses it to replay a commuting run's recorded schedule through the
	// sequential engine with the process bodies unchanged — the retry path is
	// body behavior, not engine behavior, so it must match across the pair.
	ScanEpoch bool

	// OnStep, if non-nil, is forwarded to sched.Config.OnStep: it observes
	// every scheduler grant as (pid, step) in grant order. The equivalence
	// suites use it to record a commuting run's schedule for sequential
	// replay.
	OnStep func(pid int, step int64)

	// Substrate selects the execution backend (see sched.Substrate). Nil
	// runs the deterministic simulated step scheduler — the default and the
	// only mode with byte-reproducible traces. A substrate with
	// NativeRegisters() switches the whole register stack to its lock-free
	// sync/atomic storage before the run; determinism is forfeited, so
	// correctness is checked online by the Monitor instead of by replay.
	// The Profiler is incompatible with native substrates (its hooks assume
	// serialized steps) and is rejected.
	Substrate sched.Substrate

	// Monitor, if non-nil, is the invariant monitor (see internal/obs/audit):
	// its probes are installed down the whole stack, its flight-recorder ring
	// is teed into the event stream, and the end-of-instance agreement and
	// validity checks run after the scheduler returns. Probes are passive (no
	// scheduler steps, no process randomness), so decisions and step counts
	// are identical with and without a monitor. Nil disables auditing at one
	// branch per probe site.
	Monitor *audit.Monitor

	// Profiler, if non-nil, is the causal step profiler (see
	// internal/obs/prof): its hooks are installed down the whole stack
	// (phase-span observer on the protocol, write/scan blame hooks on the
	// scan layer). Hooks are passive like the monitor's probes, so profiled
	// runs are byte-identical to unprofiled ones. Nil disables profiling at
	// one branch per hook site.
	Profiler *prof.Profiler

	// Space, if non-nil, is the space meter (see internal/obs/space): it is
	// installed down the whole stack, each layer declares its register count,
	// word layout and value domains, and write sites record measured payload
	// magnitudes. Meter hooks take no scheduler steps, consume no randomness,
	// emit no events and allocate nothing, so metered runs are byte-identical
	// to unmetered ones; after the run the meter's usage is published onto
	// the sink's gauge registry. Nil disables metering at one nil check per
	// hook site. Works on every substrate (all meter state is atomic).
	Space *space.Meter
}

// validateInputs checks that inputs is a non-empty binary vector.
func validateInputs(inputs []int) error {
	if len(inputs) == 0 {
		return fmt.Errorf("core: no inputs")
	}
	for _, v := range inputs {
		if v != 0 && v != 1 {
			return fmt.Errorf("core: inputs must be binary, got %d", v)
		}
	}
	return nil
}

// Execute builds a protocol of the given kind and runs it once under the
// adversarial scheduler, collecting decisions and metrics.
func Execute(kind Kind, cfg Config, ec ExecConfig) (Outcome, error) {
	if err := validateInputs(ec.Inputs); err != nil {
		return Outcome{}, err
	}
	cfg.N = len(ec.Inputs)
	proto, err := New(kind, cfg)
	if err != nil {
		return Outcome{}, err
	}
	return ExecuteProto(proto, ec)
}

// ExecuteProto runs an already-constructed protocol instance once.
func ExecuteProto(proto Protocol, ec ExecConfig) (Outcome, error) {
	native := ec.Substrate != nil && ec.Substrate.NativeRegisters()
	if native && ec.Profiler.Enabled() {
		return Outcome{}, errors.New("core: the step profiler requires the simulated substrate (its hooks assume serialized steps)")
	}
	if native && ec.Commuting {
		return Outcome{}, errors.New("core: commuting dispatch requires the simulated substrate (native runs schedule on the hardware, not the adversary)")
	}
	// Native runs are not step-serialized: register-ops reach the monitor out
	// of linearization order (phantom regularity violations) and hardware
	// preemption stretches the scan-to-write window past what the §4.2
	// sequential-game graph invariants cover. The monitor disables exactly
	// those two probe families; value-based probes stay armed.
	ec.Monitor.SetNonSerialized(native)
	sink := ec.Sink
	if ec.Monitor.Enabled() {
		// Tee the monitor's bounded flight ring into the run's event stream so
		// the most recent events are on hand for violation dumps.
		ring := ec.Monitor.FlightRecorder()
		if sink != nil {
			sink = sink.WithRecorder(obs.Tee(sink.Recorder(), ring))
		} else {
			sink = obs.NewSink(ring)
		}
	}
	if !native {
		// A step-serialized run counts into a run-local view of the sink,
		// reusing the view this protocol's previous run installed, and
		// publishes the counts once, after the end-of-instance checks, on
		// every exit path.
		sink = sink.Local(proto.installed().sink)
		defer sink.Flush()
	}
	// Violations land in the run's registry and trace.
	ec.Monitor.BindSink(sink)
	// Install everything, nil and off included: a pooled instance may have
	// last run with other instruments, on another substrate or under the
	// other dispatch engine.
	proto.install(instruments{
		sink:   sink,
		mon:    ec.Monitor,
		prof:   ec.Profiler,
		spc:    ec.Space,
		native: native,
		epoch:  (ec.Commuting || ec.ScanEpoch) && !native,
	})
	n := len(ec.Inputs)
	out := Outcome{
		Decided: make([]bool, n),
		Values:  make([]int, n),
	}
	runCfg := sched.Config{
		N:         n,
		Seed:      ec.Seed,
		Adversary: ec.Adversary,
		MaxSteps:  ec.MaxSteps,
		Sink:      sink,
		Commuting: ec.Commuting,
		OnStep:    ec.OnStep,
	}
	body := func(p *sched.Proc) {
		v := proto.Run(p, ec.Inputs[p.ID()])
		out.Values[p.ID()] = v
		out.Decided[p.ID()] = true
	}
	var res sched.Result
	var runErr error
	if ec.Substrate != nil {
		res, runErr = ec.Substrate.Run(runCfg, body)
	} else {
		res, runErr = sched.Run(runCfg, body)
	}
	out.Sched = res
	out.Metrics = proto.Metrics()
	out.Err = runErr
	ec.Space.Publish(sink)
	ec.Monitor.EndOfInstance(res.Steps, out.Decided, out.Values, ec.Inputs,
		errors.Is(runErr, sched.ErrStepBudget) && !out.AllDecided())
	return out, nil
}
