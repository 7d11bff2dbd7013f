package core

import (
	"errors"
	"testing"

	"github.com/dsrepro/consensus/internal/sched"
)

// TestDeterministicProtocolsCanBeDrivenForever is an executable illustration
// of the impossibility result the paper's introduction cites ([AG88, CIL87,
// LA87], implicitly [DDS87, FLP85]): with only atomic reads and writes there
// is no *deterministic* wait-free consensus. We take the local-coin protocol
// and replace its coin with deterministic rules; a plain lockstep scheduler
// then keeps the symmetric two-process configuration bivalent forever — both
// processes mirror each other's moves and never separate. The same schedule
// against the *randomized* coin terminates almost surely (checked as a
// control).
//
// This is a demonstration on a specific protocol shape, not a proof of the
// general theorem — but the mechanism (the adversary exploits symmetry that
// determinism cannot break) is exactly the one the proofs formalize.
func TestDeterministicProtocolsCanBeDrivenForever(t *testing.T) {
	deterministicRules := map[string]func(p *sched.Proc, cur int8) int8{
		// Each process deterministically re-adopts its own identity's bit:
		// under lockstep the configuration stays split forever.
		"own-id": func(p *sched.Proc, _ int8) int8 { return int8(p.ID() % 2) },
		// The complementary fixed assignment: same bivalence, mirrored.
		"opposite-id": func(p *sched.Proc, _ int8) int8 { return int8(1 - p.ID()%2) },
		// A value-symmetric rule that breaks the tie identically for all
		// processes converges — the contrast case showing determinism per se
		// is not the problem; it is determinism that preserves the split.
		"always-zero": func(_ *sched.Proc, _ int8) int8 { return 0 },
	}
	for name, rule := range deterministicRules {
		name, rule := name, rule
		t.Run(name, func(t *testing.T) {
			for _, budget := range []int64{50_000, 500_000} {
				proto, err := NewExpLocal(Config{N: 2})
				if err != nil {
					t.Fatal(err)
				}
				proto.coin = stripFlip(rule)
				out, err := ExecuteProto(proto, ExecConfig{
					Inputs:    []int{0, 1},
					Seed:      1,
					Adversary: sched.NewRoundRobin(),
					MaxSteps:  budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				if name == "always-zero" {
					// A rule that sends every conflicted process to the same
					// value converges; it exists as the contrast case.
					continue
				}
				if !errors.Is(out.Err, sched.ErrStepBudget) {
					t.Fatalf("budget %d: deterministic %q protocol terminated (err=%v, decided=%v) — lockstep failed to keep it bivalent",
						budget, name, out.Err, out.Decided)
				}
			}
		})
	}

	// Control: the genuinely randomized coin terminates under the exact same
	// lockstep schedule.
	proto, err := NewExpLocal(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteProto(proto, ExecConfig{
		Inputs:    []int{0, 1},
		Seed:      1,
		Adversary: sched.NewRoundRobin(),
		MaxSteps:  50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || !out.AllDecided() {
		t.Fatalf("randomized control failed to terminate: %v", out.Err)
	}
}
