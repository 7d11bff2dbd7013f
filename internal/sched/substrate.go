package sched

// Substrate is the execution seam every consensus run passes through: it
// takes one body per process and runs all of them to completion, deciding
// *how* the processes' atomic steps interleave. The direct-dispatch step
// scheduler (Simulated) serializes steps under a pluggable adversary and is
// byte-deterministic per seed; the native backend (Native) runs each body as
// a plain goroutine with no arbiter, so the Go runtime and the hardware's
// memory system pick the interleaving.
//
// Implementations must honor the package's halting contract: a run that
// exceeds cfg.MaxSteps ends with ErrStepBudget, a run whose unfinished
// processes can never be scheduled again ends with ErrStalled, and in both
// cases the returned Result is valid (Finished reports who completed).
type Substrate interface {
	// Name identifies the substrate in flags, reports and bench artifacts
	// ("simulated", "native").
	Name() string
	// NativeRegisters reports whether process goroutines race in real time,
	// requiring registers to use their lock-free sync/atomic storage and
	// forfeiting byte-determinism. False means steps are serialized by a
	// grant arbiter, so registers read and write their plain storage with no
	// lock (see Proc.Races).
	NativeRegisters() bool
	// Run executes body once per process under this substrate, blocking
	// until every process finished, crashed, or the step budget tripped.
	Run(cfg Config, body func(*Proc)) (Result, error)
}

// simulatedSubstrate adapts the adversarial step scheduler (Run) to the
// Substrate interface.
type simulatedSubstrate struct{}

func (simulatedSubstrate) Name() string          { return "simulated" }
func (simulatedSubstrate) NativeRegisters() bool { return false }
func (simulatedSubstrate) Run(cfg Config, body func(*Proc)) (Result, error) {
	return Run(cfg, body)
}

// Simulated returns the deterministic step-scheduler substrate — the default
// everywhere a Substrate is optional.
func Simulated() Substrate { return simulatedSubstrate{} }
