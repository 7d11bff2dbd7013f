package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/sched"
)

// InstanceSeed derives the seed of instance k from a batch seed via a
// splitmix64 mix. The derivation depends only on (batchSeed, k) — never on
// worker count or completion order — so instance k of a batch replays
// identically at any parallelism.
func InstanceSeed(batchSeed int64, k int) int64 {
	z := uint64(batchSeed) + (uint64(k)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Instance is one consensus execution of a batch: everything Execute needs,
// pre-derived so running it is order-independent.
type Instance struct {
	Kind      Kind
	Cfg       Config // N is overwritten from len(Inputs)
	Inputs    []int
	Seed      int64
	Adversary sched.Adversary
	MaxSteps  int64
	// Monitor, if non-nil, audits this instance (see ExecConfig.Monitor).
	// Each instance needs its own monitor — flight rings and violation
	// counters are per-instance state.
	Monitor *audit.Monitor
	// Profiler, if non-nil, profiles this instance (see ExecConfig.Profiler).
	// Like monitors, profilers are per-instance state: aggregate across a
	// batch by merging their Snapshots in instance order.
	Profiler *prof.Profiler
	// Space, if non-nil, meters this instance's space (see ExecConfig.Space).
	// Meters are per-instance state; aggregate across a batch with
	// space.Merge, which is a commutative element-wise max — deterministic at
	// any parallelism.
	Space *space.Meter
	// Substrate selects the execution backend (see ExecConfig.Substrate);
	// nil runs the simulated step scheduler. Substrates are stateless across
	// runs, so one value may be shared by every instance of a batch.
	Substrate sched.Substrate
	// Commuting selects commuting-step dispatch (see ExecConfig.Commuting).
	// Rejected when Substrate is native.
	Commuting bool
	// Latency, when set, records this instance's wall-clock solve latency
	// into the sink's lat.solve histogram. The elapsed time is always
	// measured (BatchOutcome.ElapsedNS); the flag only controls whether it
	// enters the metrics registry, so determinism suites that DeepEqual
	// merged histograms across parallelism keep passing with the flag off.
	Latency bool
}

// BatchOutcome pairs one instance's outcome with its setup error. Out is
// meaningful only when Err is nil (Out.Err separately carries the run-level
// budget/stall error, as with Execute).
type BatchOutcome struct {
	Out Outcome
	Err error
	// ElapsedNS is the instance's wall-clock solve latency in nanoseconds
	// (validation through ExecuteProto return), measured on the monotonic
	// clock. Populated for every instance, including failed ones. Not
	// deterministic: re-running measures a different value.
	ElapsedNS int64
}

// RunBatch executes the instances over a pool of parallel workers, each
// owning an Arena so consecutive same-shaped instances reuse one protocol's
// register fabric. parallel <= 0 means GOMAXPROCS; parallel == 1 runs inline
// on the calling goroutine. Results are indexed by instance, so the output is
// identical at any parallelism provided each Instance is self-contained
// (seeded adversary, own inputs).
//
// sink, if non-nil, is installed on every instance; workers emit into it
// concurrently, so its recorder, if any, must synchronize itself (obs.Ring
// does).
func RunBatch(parallel int, sink *obs.Sink, instances []Instance) []BatchOutcome {
	return RunBatchProgress(parallel, sink, nil, len(instances), func(k int) Instance { return instances[k] })
}

// RunBatchProgress is RunBatch over m instances that the workers build
// themselves: the worker that runs instance k calls instance(k) just before
// k's latency clock starts, so what it builds (an adversary's generator, say)
// lives only while k runs and its set-up stays out of k's latency. instance
// is called once per k, concurrently from up to parallel workers, so it must
// depend on k alone. prog (nil allowed) is re-armed for the batch and counts
// every finished execution, so a reporter can show completion while the
// batch runs. The probe is reporting-only and does not affect scheduling or
// results.
func RunBatchProgress(parallel int, sink *obs.Sink, prog *obs.BatchProgress, m int, instance func(k int) Instance) []BatchOutcome {
	out := make([]BatchOutcome, m)
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > m {
		parallel = m
	}
	prog.Begin(m)

	run1 := func(arena *Arena, k int) {
		defer prog.InstanceDone()
		inst := instance(k)
		start := time.Now() // monotonic; elapsed survives wall-clock jumps
		defer func() {
			elapsed := time.Since(start).Nanoseconds()
			out[k].ElapsedNS = elapsed
			// Metering is observation-only: the elapsed value is read after
			// the instance finished, so it cannot feed back into execution.
			if inst.Latency && sink != nil {
				if h := sink.Registry().Hist(obs.HistLatSolve); h != nil {
					h.Observe(elapsed)
				}
			}
		}()
		if err := validateInputs(inst.Inputs); err != nil {
			out[k] = BatchOutcome{Err: err}
			return
		}
		cfg := inst.Cfg
		cfg.N = len(inst.Inputs)
		proto, err := arena.Protocol(inst.Kind, cfg)
		if err != nil {
			out[k] = BatchOutcome{Err: err}
			return
		}
		o, err := ExecuteProto(proto, ExecConfig{
			Inputs:    inst.Inputs,
			Seed:      inst.Seed,
			Adversary: inst.Adversary,
			MaxSteps:  inst.MaxSteps,
			Sink:      sink,
			Monitor:   inst.Monitor,
			Profiler:  inst.Profiler,
			Space:     inst.Space,
			Substrate: inst.Substrate,
			Commuting: inst.Commuting,
		})
		out[k] = BatchOutcome{Out: o, Err: err}
	}

	if parallel <= 1 {
		arena := NewArena()
		for k := range m {
			run1(arena, k)
		}
		return out
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewArena()
			for {
				k := int(next.Add(1)) - 1
				if k >= m {
					return
				}
				run1(arena, k)
			}
		}()
	}
	wg.Wait()
	return out
}
