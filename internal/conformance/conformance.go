// Package conformance is the cross-substrate conformance suite: a
// table-driven battery of correctness checks that every execution substrate
// (see sched.Substrate) must pass with every protocol.
//
// The suite is substrate-agnostic on purpose: Run takes any sched.Substrate,
// and the package's own test applies it to the simulated and the native
// substrate. The validity, agreement and budget arms report every failing
// (protocol, n, seed) run, not only the first.
//
// Arms:
//
//   - validity: unanimous inputs must decide that input, on every protocol.
//   - agreement: mixed inputs over many seeds must decide a common binary
//     value everywhere, with the online invariant monitor attached and clean.
//   - budget: observed step totals must stay under core.StepBudget(kind, n)
//     plus the documented per-process overshoot, and a deliberately
//     undersized MaxSteps must surface sched.ErrStepBudget.
//   - audit: a large batch per protocol (sized by Options.AuditInstances)
//     with a per-instance monitor must produce zero probe firings. This is
//     the online correctness oracle for substrates whose interleavings are
//     not replayable.
//   - faults: the crash and lagger fault matrix, emulated with the
//     substrate-appropriate mechanism (adversary wrappers on a serialized
//     substrate, step-gate emulation on the native one). A substrate the
//     suite cannot inject faults into fails this arm.
package conformance

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/sched"
)

// Protocols is every protocol kind the suite covers — the four quadrants of
// the design matrix, the strong-coin baseline, and the anonymous-setting
// variant.
var Protocols = []core.Kind{
	core.KindBounded,
	core.KindAHUnbounded,
	core.KindExpLocal,
	core.KindStrongCoin,
	core.KindAbrahamson,
	core.KindAnonymous,
}

// polynomial reports whether the kind has a polynomial expected-step bound;
// the exponential baselines are exercised only at small n.
func polynomial(k core.Kind) bool {
	return k != core.KindExpLocal && k != core.KindAbrahamson
}

// Options tunes the suite's expensive arms.
type Options struct {
	// AuditInstances is the audit arm's batch size per protocol. 0 picks the
	// default: 5000 on substrates with native registers (the arm is their
	// correctness oracle), 300 on simulated ones (already covered by the
	// replay and PCT suites).
	AuditInstances int
	// AgreementSeeds is the agreement arm's seed count per protocol
	// (default 20).
	AgreementSeeds int
}

// Run executes the full conformance suite against sub. It is the entry
// point a future substrate's own tests should call; the package test applies
// it to the simulated and the native substrate.
func Run(t *testing.T, sub sched.Substrate, opts Options) {
	if opts.AuditInstances == 0 {
		if sub.NativeRegisters() {
			opts.AuditInstances = 5000
		} else {
			opts.AuditInstances = 300
		}
		if testing.Short() {
			opts.AuditInstances /= 10
		}
	}
	if opts.AgreementSeeds == 0 {
		opts.AgreementSeeds = 20
		if testing.Short() {
			opts.AgreementSeeds = 5
		}
	}
	t.Run("validity", func(t *testing.T) { runValidity(t, sub) })
	t.Run("agreement", func(t *testing.T) { runAgreement(t, sub, opts.AgreementSeeds) })
	t.Run("budget", func(t *testing.T) { runBudget(t, sub) })
	t.Run("audit", func(t *testing.T) { runAudit(t, sub, opts.AuditInstances) })
	t.Run("faults", func(t *testing.T) { runFaults(t, sub) })
}

// execute runs one instance on sub. Substrates are stateless, so every run
// of an arm shares one; the fault arm builds its own per run, because fault
// options differ per run.
func execute(t *testing.T, sub sched.Substrate, kind core.Kind, inputs []int, seed int64, mon *audit.Monitor) core.Outcome {
	t.Helper()
	out, err := core.Execute(kind, core.Config{}, core.ExecConfig{
		Inputs:    inputs,
		Seed:      seed,
		MaxSteps:  core.StepBudget(kind, len(inputs)),
		Monitor:   mon,
		Substrate: sub,
	})
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return out
}

// sizesFor is each arm's n sweep: the polynomial protocols cover the bench
// matrix sizes, the exponential baselines stay small.
func sizesFor(kind core.Kind) []int {
	if polynomial(kind) {
		return []int{4, 8, 16}
	}
	return []int{2, 4}
}

// mixedInputs derives a deterministic non-unanimous binary input vector from
// a seed (bit i of the splitmix-mixed seed, patched to contain both values).
func mixedInputs(n int, seed int64) []int {
	bits := uint64(core.InstanceSeed(seed, 0))
	in := make([]int, n)
	for i := range in {
		in[i] = int(bits >> uint(i%64) & 1)
	}
	in[0], in[n-1] = 0, 1
	return in
}

func unanimous(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func runValidity(t *testing.T, sub sched.Substrate) {
	for _, kind := range Protocols {
		for _, n := range sizesFor(kind) {
			for v := 0; v <= 1; v++ {
				out := execute(t, sub, kind, unanimous(n, v), int64(100*n+v), nil)
				if out.Err != nil {
					t.Errorf("%v n=%d: run error: %v", kind, n, out.Err)
					continue
				}
				if !out.AllDecided() {
					t.Errorf("%v n=%d: not all decided", kind, n)
					continue
				}
				got, err := out.Agreement()
				if err != nil {
					t.Errorf("%v n=%d: %v", kind, n, err)
					continue
				}
				if got != v {
					t.Errorf("%v n=%d: unanimous input %d decided %d (validity violated)", kind, n, v, got)
				}
			}
		}
	}
}

func runAgreement(t *testing.T, sub sched.Substrate, seeds int) {
	for _, kind := range Protocols {
		for _, n := range sizesFor(kind) {
			for seed := int64(0); seed < int64(seeds); seed++ {
				mon := audit.New(audit.Options{SampleEvery: 8})
				out := execute(t, sub, kind, mixedInputs(n, seed), seed, mon)
				if out.Err != nil {
					t.Errorf("%v n=%d seed=%d: run error: %v", kind, n, seed, out.Err)
					continue
				}
				if !out.AllDecided() {
					t.Errorf("%v n=%d seed=%d: not all decided", kind, n, seed)
					continue
				}
				v, err := out.Agreement()
				if err != nil {
					t.Errorf("%v n=%d seed=%d: %v", kind, n, seed, err)
					continue
				}
				if v != 0 && v != 1 {
					t.Errorf("%v n=%d seed=%d: non-binary decision %d", kind, n, seed, v)
					continue
				}
				if vio := mon.Violations(); len(vio) != 0 {
					t.Errorf("%v n=%d seed=%d: audit violations %v", kind, n, seed, vio)
				}
			}
		}
	}
}

func runBudget(t *testing.T, sub sched.Substrate) {
	for _, kind := range Protocols {
		for _, n := range sizesFor(kind) {
			budget := core.StepBudget(kind, n)
			out := execute(t, sub, kind, mixedInputs(n, int64(7*n)), int64(7*n), nil)
			if out.Err != nil {
				t.Errorf("%v n=%d: run error under budget %d: %v", kind, n, budget, out.Err)
				continue
			}
			// Substrates may overshoot by up to one step per process before
			// the halt propagates.
			if out.Sched.Steps > budget+int64(n) {
				t.Errorf("%v n=%d: %d steps exceeds budget %d+%d", kind, n, out.Sched.Steps, budget, n)
			}
		}
		// Enforcement: a budget far below any protocol's cost must trip.
		out, err := core.Execute(kind, core.Config{}, core.ExecConfig{
			Inputs:    mixedInputs(4, 3),
			Seed:      3,
			MaxSteps:  16,
			Substrate: sub,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !errors.Is(out.Err, sched.ErrStepBudget) {
			t.Errorf("%v: MaxSteps=16 returned %v, want ErrStepBudget", kind, out.Err)
			continue
		}
		if out.Sched.Steps > 16+4 {
			t.Errorf("%v: tripped budget still took %d steps, want <= 20", kind, out.Sched.Steps)
		}
	}
}

func runAudit(t *testing.T, sub sched.Substrate, instances int) {
	for _, kind := range Protocols {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 4
			insts := make([]core.Instance, instances)
			mons := make([]*audit.Monitor, instances)
			for k := range insts {
				seed := core.InstanceSeed(0xC0FFEE, k)
				mons[k] = audit.New(audit.Options{SampleEvery: 16})
				insts[k] = core.Instance{
					Kind:      kind,
					Inputs:    mixedInputs(n, seed),
					Seed:      seed,
					MaxSteps:  core.StepBudget(kind, n),
					Monitor:   mons[k],
					Substrate: sub,
				}
			}
			outs := core.RunBatch(0, nil, insts)
			for k, bo := range outs {
				if bo.Err != nil {
					t.Fatalf("instance %d: %v", k, bo.Err)
				}
				if bo.Out.Err != nil {
					t.Fatalf("instance %d: run error: %v", k, bo.Out.Err)
				}
				if _, err := bo.Out.Agreement(); err != nil {
					t.Fatalf("instance %d: %v", k, err)
				}
			}
			var total int64
			for k, mon := range mons {
				for probe, c := range mon.Violations() {
					t.Errorf("instance %d: probe %s fired %d times", k, probe, c)
					total += c
				}
			}
			if total > 0 {
				t.Fatalf("%d audit violations over %d instances", total, instances)
			}
		})
	}
}

// faultSubstrate returns how runs on sub take the given crash map and
// lagger. A serialized substrate (not NativeRegisters) takes them through
// the schedule: sub itself runs them under the matching adversary. A native
// one takes them at the step gate: the suite builds a native substrate with
// the matching options, which stands in for sub only if sub is one of the
// same type. ok is false for any other native substrate, which the suite
// cannot inject faults into.
func faultSubstrate(sub sched.Substrate, crashAt map[int]int64, victim, period int) (sched.Substrate, sched.Adversary, bool) {
	if !sub.NativeRegisters() {
		var adv sched.Adversary = sched.NewRoundRobin()
		if period > 0 {
			adv = sched.NewLagger(victim, period, 1)
		}
		if len(crashAt) > 0 {
			adv = sched.NewCrash(adv, crashAt)
		}
		return sub, adv, true
	}
	opts := sched.NativeOptions{CrashAt: crashAt}
	if period > 0 {
		opts.LaggerVictim, opts.LaggerPeriod = victim, period
	}
	nat := sched.NewNative(opts)
	return nat, nil, reflect.TypeOf(sub) == reflect.TypeOf(nat)
}

func runFaults(t *testing.T, sub sched.Substrate) {
	if _, _, ok := faultSubstrate(sub, nil, 0, 0); !ok {
		t.Fatalf("no fault injection for native substrate %q", sub.Name())
	}
	const n = 4
	for _, kind := range Protocols {
		// Crash: the victim stalls early, the survivors must still decide a
		// common valid value and the run must surface ErrStalled. The crash
		// step must precede the protocol's fastest possible decision: the
		// anonymous variant can decide in 5 register operations, so its
		// victim dies at step 3; every other protocol needs well over 10.
		crashStep := int64(10)
		if kind == core.KindAnonymous {
			crashStep = 3
		}
		for victim := 0; victim < n; victim++ {
			faulty, adv, _ := faultSubstrate(sub, map[int]int64{victim: crashStep}, 0, 0)
			out, err := core.Execute(kind, core.Config{}, core.ExecConfig{
				Inputs:    mixedInputs(n, int64(victim)),
				Seed:      int64(victim),
				Adversary: adv,
				MaxSteps:  core.StepBudget(kind, n),
				Substrate: faulty,
			})
			if err != nil {
				t.Fatalf("%v crash victim=%d: %v", kind, victim, err)
			}
			if !errors.Is(out.Err, sched.ErrStalled) {
				t.Fatalf("%v crash victim=%d: err=%v, want ErrStalled", kind, victim, out.Err)
			}
			if out.Decided[victim] {
				t.Fatalf("%v crash victim=%d: crashed process decided", kind, victim)
			}
			for i := range out.Decided {
				if i != victim && !out.Decided[i] {
					t.Fatalf("%v crash victim=%d: survivor %d undecided (wait-freedom violated)", kind, victim, i)
				}
			}
			if _, err := out.Agreement(); err != nil {
				t.Fatalf("%v crash victim=%d: %v", kind, victim, err)
			}
		}
		// Lagger: starvation slows the victim but must never block decisions.
		for _, period := range []int{16, 256} {
			faulty, adv, _ := faultSubstrate(sub, nil, 1, period)
			mon := audit.New(audit.Options{SampleEvery: 8})
			out, err := core.Execute(kind, core.Config{}, core.ExecConfig{
				Inputs:    mixedInputs(n, int64(period)),
				Seed:      int64(period),
				Adversary: adv,
				MaxSteps:  core.StepBudget(kind, n),
				Monitor:   mon,
				Substrate: faulty,
			})
			if err != nil {
				t.Fatalf("%v lagger period=%d: %v", kind, period, err)
			}
			if out.Err != nil || !out.AllDecided() {
				t.Fatalf("%v lagger period=%d: err=%v decided=%v", kind, period, out.Err, out.Decided)
			}
			if _, err := out.Agreement(); err != nil {
				t.Fatalf("%v lagger period=%d: %v", kind, period, err)
			}
			if vio := mon.Violations(); len(vio) != 0 {
				t.Fatalf("%v lagger period=%d: audit violations %v", kind, period, vio)
			}
		}
	}
}

// Name returns the canonical subtest name for a substrate, so every caller
// groups results identically.
func Name(substrate string) string { return fmt.Sprintf("substrate=%s", substrate) }
