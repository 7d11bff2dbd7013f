package consensus

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/obs"
)

func batchConfig(m, parallel int) BatchConfig {
	return BatchConfig{
		Instances: m,
		Base: Config{
			Inputs:   []int{0, 1, 1, 0},
			Schedule: Schedule{Kind: RandomSchedule},
			MaxSteps: 5_000_000,
		},
		Seed:     42,
		Parallel: parallel,
	}
}

// TestSolveBatchDeterministicAcrossParallelism is the engine's core
// guarantee: per-instance decisions, step counts, and the merged metrics
// registry are identical at parallel = 1, 4 and 8.
func TestSolveBatchDeterministicAcrossParallelism(t *testing.T) {
	const m = 12
	base, err := SolveBatch(batchConfig(m, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 8} {
		got, err := SolveBatch(batchConfig(m, par))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Decisions, base.Decisions) {
			t.Errorf("parallel=%d: decisions %v, want %v", par, got.Decisions, base.Decisions)
		}
		if !reflect.DeepEqual(got.Steps, base.Steps) {
			t.Errorf("parallel=%d: steps %v, want %v", par, got.Steps, base.Steps)
		}
		if got.ErrCount != base.ErrCount {
			t.Errorf("parallel=%d: ErrCount %d, want %d", par, got.ErrCount, base.ErrCount)
		}
		if !reflect.DeepEqual(got.Counters, base.Counters) {
			t.Errorf("parallel=%d: merged counters diverge:\n got %v\nwant %v", par, got.Counters, base.Counters)
		}
		if !reflect.DeepEqual(got.Gauges, base.Gauges) {
			t.Errorf("parallel=%d: merged gauges diverge: got %v want %v", par, got.Gauges, base.Gauges)
		}
		if !reflect.DeepEqual(got.Hists, base.Hists) {
			t.Errorf("parallel=%d: merged histograms (incl. phase.steps.*) diverge:\n got %v\nwant %v",
				par, got.Hists, base.Hists)
		}
	}
}

// TestSolveBatchMatchesSerialSolve: instance k of a batch is exactly
// Solve(Base with Seed = InstanceSeed(batchSeed, k)).
func TestSolveBatchMatchesSerialSolve(t *testing.T) {
	const m = 6
	cfg := batchConfig(m, 0)
	batch, err := SolveBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < m; k++ {
		single := cfg.Base
		single.Seed = InstanceSeed(cfg.Seed, k)
		res, err := Solve(single)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		if res.Value != batch.Decisions[k] {
			t.Errorf("instance %d: batch decided %d, serial Solve decided %d", k, batch.Decisions[k], res.Value)
		}
		if res.Steps != batch.Steps[k] {
			t.Errorf("instance %d: batch took %d steps, serial Solve took %d", k, batch.Steps[k], res.Steps)
		}
	}
}

// TestSolveBatchPerInstance varies the algorithm per instance and checks the
// customization sticks (unbounded algorithms report MaxRound; bounded ones
// cannot).
func TestSolveBatchPerInstance(t *testing.T) {
	cfg := batchConfig(4, 2)
	cfg.PerInstance = func(k int, c *Config) {
		if k%2 == 1 {
			c.Algorithm = StrongCoin
		}
	}
	res, err := SolveBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrCount != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	for k, d := range res.Decisions {
		if d != 0 && d != 1 {
			t.Errorf("instance %d decided %d, want 0 or 1", k, d)
		}
	}
	if res.Gauges["core.max_round"] == 0 {
		t.Error("strong-coin instances should have raised core.max_round")
	}
}

// TestSolveBatchAggregates sanity-checks the merged registry and the
// steps-to-decide histogram: every process of every clean instance
// contributes one decision and one histogram observation.
func TestSolveBatchAggregates(t *testing.T) {
	const m, n = 5, 4
	res, err := SolveBatch(batchConfig(m, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrCount != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	if got := res.Counters["core.decide"]; got != m*n {
		t.Errorf("core.decide = %d, want %d", got, m*n)
	}
	h, ok := res.Hists["core.steps_to_decide"]
	if !ok {
		t.Fatal("missing core.steps_to_decide histogram")
	}
	if h.Count != m*n {
		t.Errorf("steps-to-decide count = %d, want %d", h.Count, m*n)
	}
	// Phase decomposition: each phase histogram carries one sample per
	// decided process, and the family's sums partition steps-to-decide.
	var phaseSum int64
	for _, name := range []string{"phase.steps.prefer", "phase.steps.coin", "phase.steps.strip", "phase.steps.decide"} {
		ph, ok := res.Hists[name]
		if !ok {
			t.Fatalf("missing %s histogram", name)
		}
		if ph.Count != m*n {
			t.Errorf("%s count = %d, want %d", name, ph.Count, m*n)
		}
		phaseSum += ph.Sum
	}
	if phaseSum != h.Sum {
		t.Errorf("phase sums total %d, steps_to_decide sum %d — every step must belong to exactly one phase",
			phaseSum, h.Sum)
	}
}

// TestSolveBatchProgressAndSink exercises the caller-supplied sink, ring tail
// and progress probe SolveBatch accepts.
func TestSolveBatchProgressAndSink(t *testing.T) {
	cfg := batchConfig(6, 3)
	ring := obs.NewRing(64)
	cfg.Sink = obs.NewSink(ring)
	cfg.Progress = &obs.BatchProgress{}
	res, err := SolveBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrCount != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	// Results must match a plain run: the sink, ring and probe are
	// reporting-only.
	plain, err := SolveBatch(batchConfig(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Decisions, plain.Decisions) || !reflect.DeepEqual(res.Steps, plain.Steps) {
		t.Errorf("sink/progress perturbed results: %v/%v vs %v/%v",
			res.Decisions, res.Steps, plain.Decisions, plain.Steps)
	}
	if !reflect.DeepEqual(res.Counters, plain.Counters) {
		t.Errorf("caller sink counters diverge from private-sink counters")
	}
	snap := cfg.Progress.Snapshot()
	if snap.Total != 6 || snap.Completed != 6 {
		t.Errorf("progress after batch: %+v, want total=6 completed=6", snap)
	}
	if ring.Len() == 0 {
		t.Error("ring recorder saw no events")
	}
}

func TestSolveBatchValidation(t *testing.T) {
	if _, err := SolveBatch(BatchConfig{}); err == nil {
		t.Error("zero instances must be rejected")
	}
	cfg := batchConfig(2, 1)
	cfg.Base.Inputs = nil
	if _, err := SolveBatch(cfg); err == nil {
		t.Error("empty inputs must be rejected")
	}
	cfg = batchConfig(2, 1)
	cfg.Base.TraceWriter = &bytes.Buffer{}
	if _, err := SolveBatch(cfg); err == nil {
		t.Error("trace surfaces must be rejected")
	}
	cfg = batchConfig(2, 1)
	cfg.PerInstance = func(k int, c *Config) { c.TraceJSONL = &bytes.Buffer{} }
	if _, err := SolveBatch(cfg); err == nil {
		t.Error("trace surfaces injected via PerInstance must be rejected")
	}
	// The workers build the adversaries, but an unknown schedule kind must
	// still fail the batch before any instance runs.
	cfg = batchConfig(3, 2)
	cfg.Progress = &obs.BatchProgress{}
	cfg.PerInstance = func(k int, c *Config) {
		if k == 2 {
			c.Schedule.Kind = 99
		}
	}
	if _, err := SolveBatch(cfg); err == nil {
		t.Error("an unknown schedule kind injected via PerInstance must be rejected")
	}
	if snap := cfg.Progress.Snapshot(); snap.Total != 0 || snap.Completed != 0 {
		t.Errorf("instances ran before the bad schedule was refused: %+v", snap)
	}
}

// TestSolveBatchCrashMapAsPerInstanceLeftIt: each instance's adversary is
// built when it runs, yet it must see the crash steps PerInstance set for it,
// even when PerInstance reuses one map and changes it for later instances.
func TestSolveBatchCrashMapAsPerInstanceLeftIt(t *testing.T) {
	const m = 6
	run := func(reuse bool) BatchResult {
		cfg := batchConfig(m, 2)
		shared := map[int]int64{}
		cfg.PerInstance = func(k int, c *Config) {
			crash := shared
			if !reuse {
				crash = map[int]int64{}
			}
			crash[0] = int64(5 + 40*k)
			c.Schedule.CrashAt = crash
		}
		res, err := SolveBatch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh, reused := run(false), run(true)
	if !reflect.DeepEqual(fresh.Steps, reused.Steps) || !reflect.DeepEqual(fresh.Decisions, reused.Decisions) {
		t.Fatalf("a reused crash map changed the batch:\nreused map: steps %v decisions %v\nfresh maps: steps %v decisions %v",
			reused.Steps, reused.Decisions, fresh.Steps, fresh.Decisions)
	}
	for k, err := range fresh.Errors {
		if !errors.Is(err, ErrStalled) || !errors.Is(reused.Errors[k], ErrStalled) {
			t.Fatalf("instance %d: errors %v and %v, want the crash to stall both", k, err, reused.Errors[k])
		}
	}
}

// anonBatch is perfbench's anon-n8 batch shape: m anonymous n-process
// instances on the random schedule, each with its own uniform random inputs.
func anonBatch(m, n, parallel int, seed int64) BatchConfig {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]int, m)
	for k := range inputs {
		inputs[k] = make([]int, n)
		for i := range inputs[k] {
			inputs[k][i] = rng.Intn(2)
		}
	}
	return BatchConfig{
		Instances: m,
		Base: Config{
			Inputs:    inputs[0],
			Algorithm: Anonymous,
			Schedule:  Schedule{Kind: RandomSchedule},
			MaxSteps:  core.StepBudget(core.KindAnonymous, n),
		},
		Seed:        seed,
		Parallel:    parallel,
		PerInstance: func(k int, c *Config) { c.Inputs = inputs[k] },
	}
}

// TestSolveBatchAllocationPerInstance guards a simulated instance's
// allocation in steady state: an anonymous n=8 batch at Parallel 1 may
// allocate at most 20 KB per instance. Each process generator is 4.9 KB; the
// processes take theirs from a pool, and the random adversary's is built when
// its instance runs. Allocating the eight process generators per instance and
// holding every adversary until the batch ends comes to about 56 KB.
func TestSolveBatchAllocationPerInstance(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool drops a quarter of what it is handed, so pooled generators are allocated again")
	}
	const m, maxPerInstance = 1000, 20_000
	// The warm-up builds the worker's arena shape and fills the pool.
	if _, err := SolveBatch(anonBatch(50, 8, 1, 3)); err != nil {
		t.Fatal(err)
	}
	cfg := anonBatch(m, 8, 1, 11)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SolveBatch(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrCount != 0 {
		t.Fatalf("%d instances failed", res.ErrCount)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / m
	if per > maxPerInstance {
		t.Fatalf("%d B allocated per instance, want at most %d", per, maxPerInstance)
	}
	t.Logf("%d B allocated per instance", per)
}

func TestBatchResultStepsPercentile(t *testing.T) {
	r := BatchResult{Steps: []int64{50, 10, 40, 20, 30}}
	cases := []struct {
		p    float64
		want int64
	}{
		{1, 10}, {20, 10}, {50, 30}, {80, 40}, {99, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := r.StepsPercentile(c.p); got != c.want {
			t.Errorf("StepsPercentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := (BatchResult{}).StepsPercentile(50); got != 0 {
		t.Errorf("empty batch percentile = %d, want 0", got)
	}
}
