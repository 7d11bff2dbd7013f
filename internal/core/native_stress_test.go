package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/sched"
)

// stressAttempts bounds the budget-trip retries per stress run. The scan
// layer is lock-free, not wait-free, so under fine-grained injected
// preemption a run's step total is bounded only in expectation: a rare
// metastable retry storm — every scan pass overlapped by fresh writes —
// can push one run past any fixed budget (typical runs finish in ~1M
// steps at n=16; storms have been observed past 4x the budget under
// -race). A budget trip gets a fresh attempt on a different preemption
// lane; a deterministic livelock would fail every attempt.
const stressAttempts = 3

// nativeStressSizes is the stress grid: the polynomial protocols sweep
// n = 4, 8 and 16, the exponential baselines stay at n=4 (their expected
// time is exponential in n and the preempted interleavings are genuinely
// adversarial).
func nativeStressSizes(kind Kind) []int {
	switch kind {
	case KindExpLocal, KindAbrahamson:
		return []int{4}
	default:
		return []int{4, 8, 16}
	}
}

// stressInputs derives a deterministic mixed input vector from the seed.
func stressInputs(n int, seed int64) []int {
	bits := uint64(InstanceSeed(seed, 0))
	in := make([]int, n)
	for i := range in {
		in[i] = int(bits >> uint(i%64) & 1)
	}
	in[0], in[n-1] = 0, 1
	return in
}

// TestNativePreemptionStress is the native analogue of the PCT sweep: every
// protocol runs on the native substrate with randomized step-gate preemption
// (a goroutine yield with probability 1/3 per step, seeds varied), under a
// GOMAXPROCS sweep covering serial, dual and full parallelism. Each run is
// audited online — the monitor is the correctness oracle, since native
// interleavings cannot be replayed — and must decide a common valid value
// within the conformance step budget. Run under -race (make ci does) this
// doubles as the data-race proof for the whole lock-free register stack.
func TestNativePreemptionStress(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for _, gmp := range gomaxprocsSweep() {
		gmp := gmp
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for _, kind := range allKinds {
				for _, n := range nativeStressSizes(kind) {
					for seed := int64(0); seed < seeds; seed++ {
						var out Outcome
						var mon *audit.Monitor
						for attempt := int64(0); ; attempt++ {
							sub := sched.NewNative(sched.NativeOptions{
								PreemptEvery: 3,
								PreemptSeed:  seed*1000 + int64(n) + attempt*7919,
							})
							mon = audit.New(audit.Options{SampleEvery: 8})
							var err error
							out, err = Execute(kind, Config{}, ExecConfig{
								Inputs:    stressInputs(n, seed),
								Seed:      seed,
								MaxSteps:  StepBudget(kind, n),
								Monitor:   mon,
								Substrate: sub,
							})
							if err != nil {
								t.Fatalf("%v n=%d seed=%d: %v", kind, n, seed, err)
							}
							if !errors.Is(out.Err, sched.ErrStepBudget) || attempt == stressAttempts-1 {
								break
							}
							t.Logf("%v n=%d seed=%d: budget trip (scan-retry storm), retrying on a fresh preemption lane", kind, n, seed)
						}
						if out.Err != nil {
							t.Fatalf("%v n=%d seed=%d: run error: %v", kind, n, seed, out.Err)
						}
						if !out.AllDecided() {
							t.Fatalf("%v n=%d seed=%d: not all decided", kind, n, seed)
						}
						if _, err := out.Agreement(); err != nil {
							t.Fatalf("%v n=%d seed=%d: %v", kind, n, seed, err)
						}
						if vio := mon.Violations(); len(vio) != 0 {
							t.Fatalf("%v n=%d seed=%d: audit violations %v", kind, n, seed, vio)
						}
					}
				}
			}
		})
	}
}

// gomaxprocsSweep is {1, 2, NumCPU} deduplicated in order.
func gomaxprocsSweep() []int {
	sweep := []int{1, 2, runtime.NumCPU()}
	out := sweep[:0]
	seen := map[int]bool{}
	for _, v := range sweep {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestNativeCrashMatrix ports the crash fault matrix to the native substrate
// at every stress size: for each victim, the crashed process must stall, the
// survivors must decide a common value anyway (wait-freedom), and the run
// must surface ErrStalled exactly like the simulated crash adversary.
func TestNativeCrashMatrix(t *testing.T) {
	for _, kind := range allKinds {
		for _, n := range nativeStressSizes(kind) {
			if testing.Short() && n > 4 {
				continue
			}
			for victim := 0; victim < n; victim++ {
				var out Outcome
				for attempt := int64(0); ; attempt++ {
					sub := sched.NewNative(sched.NativeOptions{
						CrashAt:      map[int]int64{victim: 10},
						PreemptEvery: 4,
						PreemptSeed:  int64(victim+1) + attempt*7919,
					})
					var err error
					out, err = Execute(kind, Config{}, ExecConfig{
						Inputs:    stressInputs(n, int64(victim)),
						Seed:      int64(victim),
						MaxSteps:  StepBudget(kind, n),
						Substrate: sub,
					})
					if err != nil {
						t.Fatalf("%v n=%d victim=%d: %v", kind, n, victim, err)
					}
					if !errors.Is(out.Err, sched.ErrStepBudget) || attempt == stressAttempts-1 {
						break
					}
					t.Logf("%v n=%d victim=%d: budget trip (scan-retry storm), retrying on a fresh preemption lane", kind, n, victim)
				}
				if out.Err != sched.ErrStalled {
					t.Fatalf("%v n=%d victim=%d: err=%v, want ErrStalled", kind, n, victim, out.Err)
				}
				if out.Decided[victim] {
					t.Fatalf("%v n=%d victim=%d: crashed process decided", kind, n, victim)
				}
				for i := range out.Decided {
					if i != victim && !out.Decided[i] {
						t.Fatalf("%v n=%d victim=%d: survivor %d undecided", kind, n, victim, i)
					}
				}
				if _, err := out.Agreement(); err != nil {
					t.Fatalf("%v n=%d victim=%d: %v", kind, n, victim, err)
				}
			}
		}
	}
}
