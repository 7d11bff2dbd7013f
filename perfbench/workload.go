package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"

	"github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/core"
)

// workload is one input family the benchmark runs. Why each exists, and which
// layer change it should and should not show, is in README.md.
type workload struct {
	name      string
	alg       consensus.Algorithm
	kind      core.Kind
	n         int
	native    bool
	commuting bool
	// workers is the SolveBatch worker count; 0 means one per CPU.
	workers int
	// chunk is the number of instances per SolveBatch call. A run repeats
	// chunks until its time is up, so it is sized to take well under a second.
	chunk int
}

var workloads = []workload{
	{name: "seq-n8", alg: consensus.Bounded, kind: core.KindBounded, n: 8, workers: 1, chunk: 4},
	{name: "commute-n16", alg: consensus.Bounded, kind: core.KindBounded, n: 16, commuting: true, workers: 1, chunk: 8},
	{name: "anon-n8", alg: consensus.Anonymous, kind: core.KindAnonymous, n: 8, chunk: 400},
	{name: "native-n4", alg: consensus.Bounded, kind: core.KindBounded, n: 4, native: true, workers: 1, chunk: 1000},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (w workload) parallel() int {
	if w.workers > 0 {
		return w.workers
	}
	return runtime.NumCPU()
}

func (w workload) budget() int64 { return core.StepBudget(w.kind, w.n) }

// warmupSeed fixes the warm-up batch, so set-up does the same work whatever
// seed a run measures.
const warmupSeed = 0x5e7

// chunkInput is one chunk's generated inputs: the SolveBatch seed and every
// instance's input vector.
type chunkInput struct {
	seed   int64
	inputs [][]int
}

// nextChunk draws the next chunk from the run's input generator. Inputs are
// uniform random bits per process, so some instances start unanimous (the
// validity check then pins the decision) and most start split.
func (w workload) nextChunk(rng *rand.Rand) chunkInput {
	c := chunkInput{seed: rng.Int63(), inputs: make([][]int, w.chunk)}
	for k := range c.inputs {
		in := make([]int, w.n)
		for i := range in {
			in[i] = rng.Intn(2)
		}
		c.inputs[k] = in
	}
	return c
}

// batchConfig is the public-API configuration of one chunk.
func (w workload) batchConfig(c chunkInput) consensus.BatchConfig {
	sub := consensus.SimulatedSubstrate
	if w.native {
		sub = consensus.NativeSubstrate
	}
	return consensus.BatchConfig{
		Instances: len(c.inputs),
		Seed:      c.seed,
		Parallel:  w.parallel(),
		Base: consensus.Config{
			Inputs:           c.inputs[0],
			Algorithm:        w.alg,
			Schedule:         consensus.Schedule{Kind: consensus.RandomSchedule},
			Substrate:        sub,
			ParallelDispatch: w.commuting,
			MaxSteps:         w.budget(),
		},
		PerInstance: func(k int, cfg *consensus.Config) { cfg.Inputs = c.inputs[k] },
	}
}

// Failure kinds, in report order.
const (
	failBudget = iota
	failStall
	failDisagreement
	failValidity
	numFailKinds
)

var failNames = [numFailKinds]string{"budget", "stall", "disagreement", "validity"}

// verdict is one instance's outcome as the benchmark sees it.
type verdict struct {
	decision int
	steps    int64
}

// check classifies one instance: -1 when it is clean, otherwise the failure
// kind. A clean instance decided one value at every process (SolveBatch
// reports disagreement as an error), within the step budget, and that value
// was some process's input — for binary consensus, the validity condition.
func (w workload) check(inputs []int, v verdict, err error) int {
	switch {
	case errors.Is(err, consensus.ErrStepBudget):
		return failBudget
	case errors.Is(err, consensus.ErrStalled):
		return failStall
	case err != nil:
		return failDisagreement
	}
	// The native substrate may overshoot MaxSteps by one step per process
	// before the halt propagates.
	if v.steps > w.budget()+int64(w.n) {
		return failBudget
	}
	for _, in := range inputs {
		if in == v.decision {
			return -1
		}
	}
	return failValidity
}

// tally accumulates failure counts by kind.
type tally [numFailKinds]int

func (t *tally) total() int {
	s := 0
	for _, c := range t {
		s += c
	}
	return s
}

func (t *tally) String() string {
	parts := make([]string, numFailKinds)
	for k, c := range t {
		parts[k] = fmt.Sprintf("%s=%d", failNames[k], c)
	}
	return strings.Join(parts, " ")
}

// fingerprint hashes per-instance (decision, steps) pairs in instance order.
// On the simulated substrate both are deterministic per seed, so equal
// fingerprints mean the same executions.
func fingerprint(vs []verdict) string {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%d:%d;", v.decision, v.steps)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
