package consensus

// This file holds the benchmark harness required by DESIGN.md §5: one
// benchmark per experiment (E1..E10 — the paper's quantitative lemmas and
// claims; the preliminary paper has no numbered tables or figures, so the
// per-lemma experiments play that role), plus micro-benchmarks for the
// library's hot paths. Regenerate all experiment tables with
//
//	go run ./cmd/experiments
//
// and the benchmark numbers with
//
//	go test -bench=. -benchmem ./...

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/harness"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
	"github.com/dsrepro/consensus/internal/walk"
)

// benchExperiment runs one experiment in quick mode per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.RunAndRender(e, harness.RunOpts{Quick: true, Trials: 3, Seed: int64(i + 1)}, io.Discard)
	}
}

func BenchmarkE1CoinAgreement(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2CoinSteps(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Overflow(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4Rounds(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5TotalWork(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6Space(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7ScanRetries(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8Strip(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9Adversary(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10WalkTrace(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11Ablations(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Quadrants(b *testing.B)    { benchExperiment(b, "E12") }

// BenchmarkSolve measures one full consensus instance (mixed inputs, random
// schedule) at several sizes and for each algorithm.
func BenchmarkSolve(b *testing.B) {
	cases := []struct {
		name string
		alg  Algorithm
		n    int
	}{
		{"bounded/n=2", Bounded, 2},
		{"bounded/n=4", Bounded, 4},
		{"bounded/n=8", Bounded, 8},
		{"aspnes-herlihy/n=4", AspnesHerlihy, 4},
		{"local-coin/n=4", LocalCoin, 4},
		{"strong-coin/n=4", StrongCoin, 4},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			inputs := make([]int, c.n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Solve(Config{
					Inputs:    inputs,
					Algorithm: c.alg,
					Seed:      int64(i + 1),
					Schedule:  Schedule{Kind: RandomSchedule},
					MaxSteps:  200_000_000,
					B:         2,
				})
				if err != nil {
					b.Fatalf("Solve: %v", err)
				}
				if res.Value != 0 && res.Value != 1 {
					b.Fatalf("bad decision %d", res.Value)
				}
			}
		})
	}
}

// BenchmarkSolveDispatch compares sequential and commuting dispatch on the
// sizes where scan retries dominate — the n-scaling wall the commuting
// engine exists to crack.
func BenchmarkSolveDispatch(b *testing.B) {
	for _, c := range []struct {
		name     string
		n        int
		parallel bool
	}{
		{"sequential/n=8", 8, false},
		{"commuting/n=8", 8, true},
		{"sequential/n=16", 16, false},
		{"commuting/n=16", 16, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			inputs := make([]int, c.n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Solve(Config{
					Inputs:           inputs,
					Seed:             int64(i + 1),
					Schedule:         Schedule{Kind: RandomSchedule},
					MaxSteps:         200_000_000,
					B:                2,
					ParallelDispatch: c.parallel,
				})
				if err != nil {
					b.Fatalf("Solve: %v", err)
				}
				if res.Value != 0 && res.Value != 1 {
					b.Fatalf("bad decision %d", res.Value)
				}
			}
		})
	}
}

// BenchmarkSolveBatch measures batch throughput. The parallel=N cases run
// 32 bounded n=4 instances per iteration, seed-sharded, at several worker
// counts. Speedup over parallel=1 scales with hardware threads (the
// per-instance scheduler is itself goroutine-heavy, so a 1-core machine shows
// ~1x across the board); the per-op numbers report honestly whatever the
// machine provides.
func BenchmarkSolveBatch(b *testing.B) {
	// anonymous/n=8 is perfbench's anon-n8 chunk: 400 anonymous n=8 instances
	// with random inputs, one worker per CPU. Its instances take about 75
	// steps each, so per-instance set-up and generator state dominate.
	b.Run("anonymous/n=8", func(b *testing.B) {
		cfg := anonBatch(400, 8, runtime.NumCPU(), 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i + 1)
			res, err := SolveBatch(cfg)
			if err != nil {
				b.Fatalf("SolveBatch: %v", err)
			}
			if res.ErrCount != 0 {
				b.Fatalf("batch errors: %v", res.Errors)
			}
		}
	})
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := SolveBatch(BatchConfig{
					Instances: 32,
					Base: Config{
						Inputs:   []int{0, 1, 1, 0},
						Schedule: Schedule{Kind: RandomSchedule},
						MaxSteps: 200_000_000,
						B:        2,
					},
					Seed:     int64(i + 1),
					Parallel: par,
				})
				if err != nil {
					b.Fatalf("SolveBatch: %v", err)
				}
				if res.ErrCount != 0 {
					b.Fatalf("batch errors: %v", res.Errors)
				}
			}
		})
	}
}

// BenchmarkSolveObservability quantifies the observability overhead on a full
// Bounded solve: the default metrics-only path (atomic counters, no recorder)
// against a ring-buffer recorder and a JSONL export to io.Discard.
func BenchmarkSolveObservability(b *testing.B) {
	run := func(b *testing.B, mutate func(*Config)) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := Config{
				Inputs:   []int{0, 1, 1, 0},
				Seed:     int64(i + 1),
				B:        2,
				MaxSteps: 200_000_000,
			}
			if mutate != nil {
				mutate(&cfg)
			}
			if _, err := Solve(cfg); err != nil {
				b.Fatalf("Solve: %v", err)
			}
		}
	}
	b.Run("metrics-only", func(b *testing.B) { run(b, nil) })
	b.Run("ring-recorder", func(b *testing.B) {
		run(b, func(c *Config) { c.Recorder = obs.NewRing(4096) })
	})
	b.Run("jsonl-discard", func(b *testing.B) {
		run(b, func(c *Config) { c.TraceJSONL = io.Discard })
	})
}

// BenchmarkSharedCoinFlip measures a standalone weak shared coin resolution.
func BenchmarkSharedCoinFlip(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run("n="+string(rune('0'+n)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FlipCoin(CoinConfig{N: n, B: 2, Seed: int64(i + 1)}); err != nil {
					b.Fatalf("FlipCoin: %v", err)
				}
			}
		})
	}
}

// BenchmarkSnapshotScan measures the arrow scannable memory's scan cost with
// quiescent writers (the clean fast path). The scanner runs alone, so every
// grant is a self-pick.
func BenchmarkSnapshotScan(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mem := scan.NewArrow[int](n, register.DirectFactory)
			b.ReportAllocs()
			b.ResetTimer()
			_, err := sched.Run(sched.Config{N: n, Seed: 1}, func(p *sched.Proc) {
				if p.ID() != 0 {
					return
				}
				for i := 0; i < b.N; i++ {
					mem.Scan(p)
				}
			})
			if err != nil {
				b.Fatalf("Run: %v", err)
			}
		})
	}
}

// BenchmarkIncRow measures one rounds-strip advance (graph decode + max-path
// analysis + counter increment), the protocol's per-round bookkeeping cost.
func BenchmarkIncRow(b *testing.B) {
	for _, n := range []int{4, 16, 32} {
		name := map[int]string{4: "n=4", 16: "n=16", 32: "n=32"}[n]
		b.Run(name, func(b *testing.B) {
			e := strip.CounterMatrix(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, err := strip.IncRow(i%n, e, 2)
				if err != nil {
					b.Fatalf("IncRow: %v", err)
				}
				e[i%n] = row
			}
		})
	}
}

// BenchmarkWalkValue measures the pure coin_value evaluation.
func BenchmarkWalkValue(b *testing.B) {
	params := walk.Params{N: 32, B: 4, M: 1024}
	c := make([]int, 32)
	for i := range c {
		c[i] = i - 16
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = params.Value(c)
	}
}

// bareSteps is a step sequence of bare steps.
type bareSteps struct{}

func (bareSteps) Op(p *sched.Proc, _ int) bool {
	p.Step()
	return true
}

// BenchmarkSchedulerStep measures the raw cost of one scheduled atomic step,
// the simulation's unit of time, on each of the step engine's grant paths:
// "self" runs one process, so every grant is a self-pick that coalesces into
// a plain return; "handoff" runs eight under round-robin, so every grant
// moves the token to another process; "seq" runs the same eight with each
// process's steps as one step sequence, so every grant crosses but runs its
// op on the granting coroutine without a switch.
func BenchmarkSchedulerStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		seq  bool
	}{{"self", 1, false}, {"handoff", 8, false}, {"seq", 8, true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := sched.Config{N: bc.n, Seed: 1, Adversary: sched.NewRoundRobin()}
			res, err := sched.Run(cfg, func(p *sched.Proc) {
				if bc.seq {
					p.StepSeq(bareSteps{}, (b.N-p.ID()+bc.n-1)/bc.n)
					return
				}
				for i := p.ID(); i < b.N; i += bc.n {
					p.Step()
				}
			})
			if err != nil {
				b.Fatalf("Run: %v", err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.Steps), "ns/step")
		})
	}
}

// BenchmarkExecuteBoundedBloom measures the full stack over Bloom-constructed
// arrow registers (deepest substrate).
func BenchmarkExecuteBoundedBloom(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := core.Execute(core.KindBounded, core.Config{B: 2, UseBloomArrows: true}, core.ExecConfig{
			Inputs:    []int{0, 1},
			Seed:      int64(i + 1),
			Adversary: sched.NewRandom(int64(i)),
			MaxSteps:  200_000_000,
		})
		if err != nil || out.Err != nil {
			b.Fatalf("Execute: %v / %v", err, out.Err)
		}
	}
}
