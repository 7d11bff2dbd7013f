package consensus

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/obs/tail"
)

// InstanceSeed derives the seed of batch instance k from the batch seed. The
// derivation (a splitmix64 mix) depends only on (batchSeed, k), so
// Solve(cfg with Seed: InstanceSeed(s, k)) reproduces exactly what instance k
// of SolveBatch with Seed s computed — regardless of worker count or
// completion order.
func InstanceSeed(batchSeed int64, k int) int64 {
	return core.InstanceSeed(batchSeed, k)
}

// BatchConfig configures SolveBatch: M independent consensus instances fanned
// over a worker pool.
type BatchConfig struct {
	// Instances is the number of independent runs. Required.
	Instances int

	// Base is the configuration template every instance starts from. Its Seed
	// is ignored (instance k runs with InstanceSeed(Seed, k)) and its trace
	// surfaces (TraceWriter, TraceJSONL, Recorder) must be nil — per-event
	// recording from concurrent workers would interleave streams; trace a
	// single instance with Solve instead.
	Base Config

	// Seed is the batch seed all instance seeds derive from.
	Seed int64

	// Parallel is the worker count: 0 means GOMAXPROCS, 1 runs serially on
	// the calling goroutine. Results are identical at any setting.
	Parallel int

	// PerInstance, if non-nil, customizes instance k's config after seeding
	// and before the batch starts (e.g. vary inputs or schedule per instance).
	// It is called serially in instance order, so customization cannot depend
	// on scheduling either.
	PerInstance func(k int, cfg *Config)

	// Sink, if non-nil, replaces the batch's private metrics sink: every
	// instance reports into its registry, so a caller holding the same sink
	// (say, to keep a tail ring's drop count beside the batch's counters)
	// reads one registry for the whole batch. A recorder on the sink
	// receives events from all workers with no ordering guarantee between
	// instances — use a self-synchronizing recorder such as obs.Ring, and
	// treat it as a debugging tail, not a faithful trace. The registry
	// path stays deterministic regardless (atomic sums and maxes commute).
	Sink *obs.Sink

	// Progress, if non-nil, is re-armed for this batch and counts instances
	// as they finish — the probe behind consensus-load's -progress lines.
	// Reporting-only; results are unaffected.
	Progress *obs.BatchProgress

	// Stragglers, when > 0, keeps a digest of the k slowest instances by
	// wall-clock latency in BatchResult.Stragglers — seed, latency, step
	// count and decision per entry, everything needed to replay the instance
	// deterministically with full instrumentation (see ReplayStraggler). The
	// digest is computed after the batch from the per-instance latencies, so
	// it never affects execution.
	Stragglers int
}

// BatchResult aggregates a batch: per-instance decisions, step counts and
// errors, plus the merged cross-layer metrics registry of all instances.
type BatchResult struct {
	// Decisions[k] is instance k's agreed value, or -1 if it did not decide.
	Decisions []int
	// Steps[k] is instance k's total atomic shared-memory steps.
	Steps []int64
	// Errors[k] is instance k's error (setup, ErrStepBudget/ErrStalled, or a
	// consistency violation), nil for a clean run.
	Errors []error
	// ErrCount is the number of non-nil entries in Errors.
	ErrCount int

	// Latencies[k] is instance k's wall-clock solve latency in nanoseconds,
	// measured on the monotonic clock around the instance's execution. Always
	// populated (the measurement is observation-only and free); unlike every
	// other per-instance column it is NOT deterministic — re-running the
	// batch measures different values. Summarize with LatencySummary.
	Latencies []int64
	// Stragglers digests the BatchConfig.Stragglers slowest instances,
	// slowest first (latency ties break toward the lower index). Nil when the
	// knob is 0. Each entry replays deterministically via ReplayStraggler.
	Stragglers []tail.Straggler

	// Counters and Gauges merge the observability registries of every
	// instance (event counts sum; gauges take the batch-wide maximum).
	Counters map[string]int64
	Gauges   map[string]int64
	// Hists holds the merged histograms; "core.steps_to_decide" aggregates
	// per-process steps-to-decision across the whole batch.
	Hists map[string]obs.HistSnapshot
	// Matrices holds the merged matrix-valued metrics when Base.Profile is
	// set: "prof.blame" and "prof.contention", summed element-wise across
	// instances in instance order (deterministic at any Parallel). Nil when
	// profiling is off.
	Matrices map[string]obs.MatrixSnapshot

	// Space is the batch-wide space-accounting report when Base.Space is set:
	// per-instance usages combined with space.Merge (an element-wise max), in
	// instance order — deterministic at any Parallel, since max commutes. Nil
	// when metering is off.
	Space *space.Usage

	// Violations sums invariant-probe firings by probe name across every
	// instance when Base.Audit is set; nil when auditing is off or the batch
	// was clean. Instance attribution is in the dumps (AuditDumps).
	Violations map[string]int64
	// Truncations sums coin-counter saturations across the batch.
	Truncations int64
	// AuditDumps lists every flight-recorder dump file written under
	// Base.AuditDumpDir, in instance order (deterministic at any Parallel).
	AuditDumps []string
}

// LatencySummary summarizes the per-instance wall-clock latencies with exact
// nearest-rank quantiles (p50/p90/p99/p999), the distribution behind the
// bench artifact's latency block.
func (r BatchResult) LatencySummary() tail.Summary {
	return tail.Summarize(r.Latencies)
}

// StepsPercentile returns the exact nearest-rank p-th percentile (0 < p <=
// 100) of the per-instance step totals, or 0 for an empty batch.
func (r BatchResult) StepsPercentile(p float64) int64 {
	if len(r.Steps) == 0 {
		return 0
	}
	s := append([]int64(nil), r.Steps...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// SolveBatch runs cfg.Instances independent consensus instances over a pool
// of cfg.Parallel workers and aggregates the outcomes. Each worker owns an
// arena of pooled protocol state, so consecutive same-shaped instances reuse
// one register fabric instead of reallocating it. Every instance's config is
// resolved and checked before any runs; the worker that runs a simulated
// instance builds its adversary just before starting it, so a queued
// instance holds no generator state.
//
// The returned error reports configuration problems only; per-instance
// failures (step budget, stalls) land in BatchResult.Errors.
func SolveBatch(cfg BatchConfig) (BatchResult, error) {
	if cfg.Instances < 1 {
		return BatchResult{}, fmt.Errorf("consensus: BatchConfig.Instances must be >= 1, got %d", cfg.Instances)
	}
	instances := make([]core.Instance, cfg.Instances)
	// scheds[k] is instance k's schedule as PerInstance left it; the worker
	// that runs a simulated instance builds its adversary from it.
	scheds := make([]Schedule, cfg.Instances)
	var mons []*audit.Monitor  // indexed by instance; nil when auditing is off
	var profs []*prof.Profiler // indexed by instance; nil when profiling is off
	var meters []*space.Meter  // indexed by instance; nil when metering is off
	for k := range instances {
		c := cfg.Base
		c.Seed = InstanceSeed(cfg.Seed, k)
		if cfg.PerInstance != nil {
			cfg.PerInstance(k, &c)
		}
		if c.TraceWriter != nil || c.TraceJSONL != nil || c.Recorder != nil {
			return BatchResult{}, fmt.Errorf("consensus: trace surfaces are not supported in SolveBatch; trace a single instance with Solve (batch instance %d)", k)
		}
		// The adversary is built when the instance runs, so take the crash
		// steps now: PerInstance may go on to change a map it reuses.
		c.Schedule.CrashAt = maps.Clone(c.Schedule.CrashAt)
		inst, err := c.instance()
		if err != nil {
			return BatchResult{}, fmt.Errorf("%w (batch instance %d)", err, k)
		}
		// Each audited instance gets its own monitor: flight rings and
		// violation counters are per-instance state, so workers never share.
		if c.Audit {
			inst.Monitor = audit.New(audit.Options{
				SampleEvery: c.AuditSampleEvery,
				DumpDir:     c.AuditDumpDir,
			})
			inst.Monitor.SetRun(runInfoFor(c, k, cfg.Seed))
			if mons == nil {
				mons = make([]*audit.Monitor, cfg.Instances)
			}
			mons[k] = inst.Monitor
		}
		// Each profiled instance gets its own profiler (per-instance matrices
		// and chains); spans are not retained — batch aggregation merges only
		// counters and matrices.
		if c.Profile {
			inst.Profiler = prof.New(prof.Options{N: len(c.Inputs)})
			if profs == nil {
				profs = make([]*prof.Profiler, cfg.Instances)
			}
			profs[k] = inst.Profiler
		}
		// Each metered instance gets its own meter: declared layouts accumulate
		// per install, so a shared meter would double-count pooled instances.
		if c.Space {
			inst.Space = space.NewMeter()
			if meters == nil {
				meters = make([]*space.Meter, cfg.Instances)
			}
			meters[k] = inst.Space
		}
		inst.Latency = c.Latency
		instances[k] = inst
		scheds[k] = c.Schedule
	}

	// One sink serves the whole batch: every registry mutation path is an
	// atomic add or max, which commutes, so the merged registry is
	// deterministic even though workers emit concurrently. By default it is
	// metrics-only; a caller-supplied cfg.Sink may carry a concurrent-safe
	// recorder (see BatchConfig.Sink).
	sink := cfg.Sink
	if sink == nil {
		sink = obs.NewSink(nil)
	}
	outs := core.RunBatchProgress(cfg.Parallel, sink, cfg.Progress, cfg.Instances, func(k int) core.Instance {
		inst := instances[k]
		if inst.Substrate == nil {
			inst.Adversary = scheds[k].adversary(inst.Seed)
		}
		return inst
	})

	res := BatchResult{
		Decisions: make([]int, cfg.Instances),
		Steps:     make([]int64, cfg.Instances),
		Errors:    make([]error, cfg.Instances),
		Latencies: make([]int64, cfg.Instances),
	}
	for k, bo := range outs {
		res.Decisions[k] = -1
		res.Latencies[k] = bo.ElapsedNS
		err := bo.Err
		if err == nil {
			res.Steps[k] = bo.Out.Sched.Steps
			if bo.Out.Err != nil {
				err = bo.Out.Err
			}
			if v, aerr := bo.Out.Agreement(); aerr != nil {
				err = aerr
			} else {
				res.Decisions[k] = v
			}
		}
		if err != nil {
			res.Errors[k] = err
			res.ErrCount++
		}
	}
	if cfg.Stragglers > 0 {
		// Build the digest in instance order from the post-run columns; given
		// the measured latencies the selection is a pure function, so any
		// Parallel produces the same digest for the same measurements.
		tk := tail.TopK{K: cfg.Stragglers}
		for k := range outs {
			s := tail.Straggler{
				Index:     k,
				Seed:      instances[k].Seed, // post-PerInstance, the seed that actually ran
				LatencyNS: res.Latencies[k],
				Steps:     res.Steps[k],
				Decision:  res.Decisions[k],
			}
			if res.Errors[k] != nil {
				s.Err = res.Errors[k].Error()
			}
			tk.Add(s)
		}
		res.Stragglers = tk.Sorted()
	}
	snap := sink.Registry().Snapshot()
	if profs != nil {
		// Merge per-instance profiler snapshots in instance order: counter
		// sums, gauge maxes and padded matrix addition all commute, so the
		// result is identical at any Parallel.
		merged := make([]obs.Snapshot, 0, len(profs)+1)
		merged = append(merged, snap)
		for _, pr := range profs {
			if pr.Enabled() {
				merged = append(merged, pr.Snapshot())
			}
		}
		snap = obs.MergeSnapshots(merged...)
		res.Matrices = snap.Matrices
	}
	res.Counters = snap.Counters
	res.Gauges = snap.Gauges
	res.Hists = snap.Hists
	if meters != nil {
		// Merge per-instance usages in instance order; element-wise max
		// commutes, so the result is identical at any Parallel.
		var u space.Usage
		for _, sm := range meters {
			if sm != nil {
				u = space.Merge(u, sm.Usage())
			}
		}
		res.Space = &u
	}
	// Aggregate per-instance audit results in instance order, so the merged
	// view is deterministic at any parallelism.
	for _, mon := range mons {
		if mon == nil {
			continue
		}
		res.Violations = audit.MergeViolations(res.Violations, mon.Violations())
		res.Truncations += mon.Truncations()
		res.AuditDumps = append(res.AuditDumps, mon.DumpFiles()...)
	}
	return res, nil
}
