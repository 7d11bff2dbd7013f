package consensus

import (
	"testing"

	"github.com/dsrepro/consensus/internal/obs/space"
)

// TestBoundedStaticSpaceBounds is the automated form of experiment E6's
// bounded half: across many seeds, the bounded protocol's measured payloads
// must respect the paper's *static* bounds — coin counters clamp to ±(M+1)
// and strip edge counters live mod 3K — even with an aggressively small M
// that forces truncations. The space meters observe every typed mutation
// site, so a single clamp miss anywhere fails the run it happened in.
func TestBoundedStaticSpaceBounds(t *testing.T) {
	const (
		n, b, m = 4, 1, 6 // barrier b·n = 4, so the tight M+1 = 7 bound binds
		k       = 2       // protocol default, made explicit for the 3K bound
		seeds   = 40
	)
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := Solve(Config{
			Inputs:   []int{0, 1, 1, 0},
			Seed:     seed,
			Schedule: Schedule{Kind: RandomSchedule},
			B:        b, M: m, K: k,
			MaxSteps: 100_000_000,
			Space:    true,
		})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Space == nil {
			t.Fatalf("seed %d: no space usage", seed)
		}
		walk := res.Space.Layers["walk"]
		if walk.MaxAbs > m+1 {
			t.Errorf("seed %d: walk |counter| %d exceeds the static bound M+1 = %d", seed, walk.MaxAbs, m+1)
		}
		if walk.DeclaredBits <= 0 {
			t.Errorf("seed %d: bounded walk declared no bounded domain (bits %d)", seed, walk.DeclaredBits)
		}
		strip := res.Space.Layers["strip"]
		if strip.MaxAbs >= 3*k {
			t.Errorf("seed %d: strip counter %d escaped mod 3K = %d", seed, strip.MaxAbs, 3*k)
		}
		if core := res.Space.Layers["core"]; core.DeclaredBits == space.UnboundedBits {
			t.Errorf("seed %d: bounded core declared an unbounded domain", seed)
		}
	}
}

// TestUnboundedCoinGrowsWithTrials is E6's other half: the unbounded
// baseline's coin counters (the strip entries it spins on) have no static
// bound, so their cumulative measured maximum keeps growing as more trials
// sample the geometric tail. Batch usage merges per-instance meters by max
// and instance seeds derive only from (batch seed, index), so the 10-trial
// prefix of the big batch is exactly the small batch — the comparison is a
// true cumulative max over one trial sequence.
func TestUnboundedCoinGrowsWithTrials(t *testing.T) {
	run := func(instances int) space.Usage {
		res, err := SolveBatch(BatchConfig{
			Instances: instances,
			Seed:      7,
			Base: Config{
				Inputs:    []int{0, 1, 1, 0},
				Algorithm: AspnesHerlihy,
				B:         1,
				MaxSteps:  100_000_000,
				Space:     true,
			},
		})
		if err != nil {
			t.Fatalf("SolveBatch(%d): %v", instances, err)
		}
		if res.ErrCount > 0 {
			t.Fatalf("SolveBatch(%d): %d failed instances", instances, res.ErrCount)
		}
		if res.Space == nil {
			t.Fatalf("SolveBatch(%d): no space usage", instances)
		}
		return *res.Space
	}
	small := run(10)
	big := run(200)

	if w := small.Layers["walk"]; w.DeclaredBits != space.UnboundedBits {
		t.Errorf("unbounded baseline's walk layer declared a bounded domain (bits %d)", w.DeclaredBits)
	}
	smallMax := small.Layers["walk"].MaxAbs
	bigMax := big.Layers["walk"].MaxAbs
	if bigMax < smallMax {
		t.Fatalf("cumulative max shrank: %d at 10 trials, %d at 200", smallMax, bigMax)
	}
	if bigMax == smallMax {
		t.Errorf("coin counter max did not grow from 10 to 200 trials (stuck at %d); the unbounded tail should keep being sampled", smallMax)
	}
	// The bounded protocol at the same barrier holds |coin| <= M+1 = 7 (the
	// test above); the unbounded baseline must blow through that same bound.
	if bigMax <= 7 {
		t.Errorf("unbounded coin max %d never exceeded the bounded protocol's tight M+1 = 7", bigMax)
	}
}
