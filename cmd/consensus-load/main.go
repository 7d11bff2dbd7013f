// Command consensus-load drives the batch engine at full throughput and
// reports instances/sec plus the step-count distribution — the repo's load
// generator. With -json it writes one machine-readable report
// (internal/benchfmt), which traceview -tail renders.
//
// Usage examples:
//
//	consensus-load -instances 200
//	consensus-load -alg strong-coin -n 8 -instances 50 -parallel 4
//	consensus-load -instances 400 -seed 42 -json > report.json
//	consensus-load -instances 5000 -progress 1s   # progress + ETA on stderr
//	consensus-load -instances 500 -stragglers 3 -straggler-replay   # forensic bundles + blame
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/benchfmt"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		instances = flag.Int("instances", 100, "independent consensus instances to run")
		parallel  = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial); decisions are identical at any setting")
		n         = flag.Int("n", 4, "processes per instance (alternating binary inputs)")
		algFlag   = flag.String("alg", "bounded", "algorithm: bounded | aspnes-herlihy | local-coin | strong-coin | abrahamson | anonymous")
		schedFlag = flag.String("schedule", "random", "schedule: round-robin | random (ignored by -substrate native: the hardware schedules)")
		subFlag   = flag.String("substrate", "simulated", "execution backend: simulated | native (real goroutines on lock-free registers; not deterministic)")
		dispFlag  = flag.String("dispatch", "sequential", "dispatch engine: sequential | commuting (batch disjoint-footprint steps between adversary consults; simulated substrate only)")
		seed      = flag.Int64("seed", 1, "batch seed (instance k replays with Seed = InstanceSeed(seed, k))")
		maxSteps  = flag.Int64("max-steps", 100_000_000, "per-instance step budget")
		b         = flag.Int("b", 4, "shared-coin barrier multiplier")
		kFlag     = flag.Int("k", 0, "rounds-strip constant (0 = algorithm default)")
		mFlag     = flag.Int("m", 0, "coin-counter bound (0 = algorithm default)")
		jsonOut   = flag.Bool("json", false, "emit one machine-readable JSON object instead of text")
		tail      = flag.Int("tail", 0, "keep the last N events in a ring for post-run inspection (0 = off; ordering across workers is unspecified)")
		profOn    = flag.Bool("prof", false, "run the step profiler on every instance: prof.* counters plus blame/contention matrices in the report")
		auditOn   = flag.Bool("audit", false, "run the online invariant monitor on every instance; non-zero exit if any probe fires")
		auditN    = flag.Int("audit-sample", 0, "audit: run sampled probes every N opportunities (0 = default 64, 1 = every)")
		auditDir  = flag.String("audit-dir", "", "audit: write flight-recorder dumps to this directory (replay with consensus-audit)")

		latency     = flag.Bool("latency", true, "meter per-instance wall-clock latency (the lat.solve histogram and the report's latency block); values jitter run to run, identities stay deterministic")
		stragglers  = flag.Int("stragglers", 0, "keep a digest of the N slowest instances per workload (seed, latency, steps, decision) in the report")
		stragReplay = flag.Bool("straggler-replay", false, "deterministically re-execute each straggler with trace+prof+audit into a forensic bundle (simulated substrate only)")
		stragDir    = flag.String("straggler-dir", "stragglers", "directory for -straggler-replay bundles (one subdirectory per straggler)")
		progEvery   = flag.Duration("progress", 0, "print batch progress with ETA to stderr at this interval (0 = off)")
	)
	flag.Parse()

	schedule, err := parseSchedule(*schedFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		return 2
	}

	// The progress printer reads the batch's progress probe: completion
	// fraction, windowed rate, and the ETA estimate.
	var prog *obs.BatchProgress
	if *progEvery > 0 {
		prog = &obs.BatchProgress{}
		stopProg := make(chan struct{})
		defer close(stopProg)
		go func() {
			tick := time.NewTicker(*progEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopProg:
					return
				case <-tick.C:
					s := prog.Snapshot()
					if s.Total == 0 {
						continue
					}
					fmt.Fprintf(os.Stderr, "consensus-load: progress %d/%d (%.1f%%), %.1f/s, eta %s\n",
						s.Completed, s.Total, 100*float64(s.Completed)/float64(s.Total),
						s.WindowPerSec, etaLabel(s.ETASec))
				}
			}
		}()
	}

	opts := workloadOpts{
		schedule:   schedule,
		seed:       *seed,
		maxSteps:   *maxSteps,
		b:          *b,
		parallel:   *parallel,
		prog:       prog,
		profile:    *profOn,
		latency:    *latency,
		stragglers: *stragglers,
	}
	if *auditOn || *auditDir != "" || *auditN > 0 {
		opts.audit = true
		opts.auditSample = *auditN
		opts.auditDir = *auditDir
	}

	if *n < 1 {
		fmt.Fprintf(os.Stderr, "consensus-load: -n must be >= 1\n")
		return 2
	}
	// The optional ring is a debugging tail: concurrency-safe, but with no
	// cross-worker ordering guarantee.
	var ring *obs.Ring
	if *tail > 0 {
		ring = obs.NewRing(*tail)
	}
	r, res, base, code := runWorkload(workloadSpec{Alg: *algFlag, N: *n, Instances: *instances, Substrate: *subFlag, Dispatch: *dispFlag, K: *kFlag, M: *mFlag}, opts, ring)
	if code == 2 {
		return 2
	}
	reconcileTailDrops(&r, ring)
	bad := 0
	if *stragReplay {
		bad = replayStragglers(base, r, *stragDir)
	}

	if *jsonOut {
		if err := benchfmt.Write(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
			return 1
		}
	} else {
		printReport(r, ring)
	}
	if bad+reportErrors(res)+int(reportViolations(res)) > 0 {
		return 1
	}
	return 0
}

// replayStragglers re-executes each straggler of a workload's digest into a
// forensic bundle under dir (one subdirectory per straggler, keyed by the
// workload and instance index) and prints one line per straggler with its
// blame cell. Native workloads are skipped with a notice — hardware
// interleavings are not replayable — and replay failures count toward the
// exit status without aborting the remaining stragglers.
func replayStragglers(base consensus.Config, r benchfmt.Report, dir string) int {
	if len(r.Stragglers) == 0 {
		return 0
	}
	if base.Substrate == consensus.NativeSubstrate {
		fmt.Fprintf(os.Stderr, "consensus-load: %s/n=%d: straggler digest is print-only on the native substrate (no deterministic replay)\n", r.Algorithm, r.N)
		return 0
	}
	bad := 0
	for _, s := range r.Stragglers {
		name := fmt.Sprintf("%s-n%d-i%d", r.Algorithm, r.N, s.Index)
		b, err := consensus.ReplayStraggler(base, s, filepath.Join(dir, name))
		var blame string
		if err == nil {
			blame, err = blameCell(b)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "consensus-load: straggler %s: %v\n", name, err)
			bad++
			continue
		}
		fmt.Fprintf(os.Stderr, "consensus-load: straggler %s: %d steps, decision %d, %s, bundle %s\n",
			name, b.ReplaySteps, b.ReplayDecision, blame, b.Dir)
	}
	return bad
}

// blameCell reads a replay bundle's summary and renders the shares of the
// replayed steps that were productive, scan-retry and coin-spin.
func blameCell(b consensus.StragglerBundle) (string, error) {
	data, err := os.ReadFile(b.SummaryPath)
	if err != nil {
		return "", err
	}
	sum, err := consensus.ParseStragglerSummary(data)
	if err != nil {
		return "", err
	}
	if b.ReplaySteps <= 0 {
		return "no steps", nil
	}
	share := func(key string) float64 {
		n, _ := sum[key].(json.Number) // every number of a parsed summary is one
		v, _ := n.Float64()
		return 100 * v / float64(b.ReplaySteps)
	}
	return fmt.Sprintf("prod %.0f%% retry %.0f%% coin %.0f%%",
		share("steps_productive"), share("steps_scan_retry"), share("steps_coin_spin")), nil
}

// etaLabel renders an ETA estimate: "?" before any completion establishes a
// rate, otherwise a rounded duration.
func etaLabel(sec float64) string {
	if sec < 0 {
		return "?"
	}
	return (time.Duration(sec * float64(time.Second))).Round(100 * time.Millisecond).String()
}

// workloadSpec names one batch workload: an algorithm, a process count, a
// substrate ("" = simulated), a dispatch mode ("" = sequential), how many
// instances to run, and optional K/M overrides (0 = defaults).
type workloadSpec struct {
	Alg       string
	N         int
	Instances int
	Substrate string
	Dispatch  string
	K         int
	M         int
}

// workloadOpts carries the run settings that are not part of a workload's
// spec.
type workloadOpts struct {
	schedule    consensus.Schedule
	seed        int64
	maxSteps    int64
	b           int
	parallel    int
	prog        *obs.BatchProgress
	audit       bool
	auditSample int
	auditDir    string
	profile     bool
	latency     bool
	stragglers  int
}

// reconcileTailDrops folds the ring's final drop total into the report. The
// batch counters were snapshotted inside SolveBatch, but the ring can still
// overwrite events after that snapshot (a racing worker's last emissions), so
// the authoritative count is the ring's own — take it last and raise the
// obs.trace_dropped counter to match, never lowering it.
func reconcileTailDrops(r *benchfmt.Report, ring *obs.Ring) {
	if ring == nil {
		return
	}
	d := ring.Dropped()
	r.Dropped = d
	if d == 0 {
		return
	}
	if r.Counters == nil {
		r.Counters = map[string]int64{}
	}
	if c := r.Counters[obs.TraceDropped.ID()]; c < d {
		r.Counters[obs.TraceDropped.ID()] = d
	}
}

// runWorkload runs one batch workload into a fresh sink and builds its
// report. It also returns the base config the batch ran with, so straggler
// digests can be replayed against exactly the configuration that produced
// them. The returned code is 0 on success and 2 on a usage/config error
// (already printed); per-instance errors are in the result, not the code.
func runWorkload(ws workloadSpec, opts workloadOpts, ring *obs.Ring) (benchfmt.Report, consensus.BatchResult, consensus.Config, int) {
	alg, err := parseAlg(ws.Alg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		return benchfmt.Report{}, consensus.BatchResult{}, consensus.Config{}, 2
	}
	sub, err := parseSubstrate(ws.Substrate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		return benchfmt.Report{}, consensus.BatchResult{}, consensus.Config{}, 2
	}
	commuting, err := parseDispatch(ws.Dispatch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		return benchfmt.Report{}, consensus.BatchResult{}, consensus.Config{}, 2
	}
	if sub == consensus.NativeSubstrate && commuting {
		fmt.Fprintf(os.Stderr, "consensus-load: %s/n=%d: commuting dispatch requires the simulated substrate\n", ws.Alg, ws.N)
		return benchfmt.Report{}, consensus.BatchResult{}, consensus.Config{}, 2
	}
	profile := opts.profile
	if sub == consensus.NativeSubstrate && profile {
		// The step profiler requires serialized steps; a native workload runs
		// unprofiled rather than failing.
		fmt.Fprintf(os.Stderr, "consensus-load: %s/n=%d: profiler disabled on the native substrate\n", ws.Alg, ws.N)
		profile = false
	}
	inputs := make([]int, ws.N)
	for i := range inputs {
		inputs[i] = i % 2
	}

	// The batch reports into a caller-owned sink so the tail ring's overwrites
	// count into the same registry the report reads.
	var rec obs.Recorder
	if ring != nil {
		rec = ring
	}
	sink := obs.NewSink(rec)
	if ring != nil {
		// Account ring overwrites into the registry so trace loss is visible
		// in the report counters (obs.trace_dropped).
		ring.CountDropsInto(sink)
	}

	base := consensus.Config{
		Inputs:           inputs,
		Algorithm:        alg,
		Schedule:         opts.schedule,
		Substrate:        sub,
		ParallelDispatch: commuting,
		MaxSteps:         opts.maxSteps,
		B:                opts.b,
		K:                ws.K,
		M:                ws.M,
		Audit:            opts.audit,
		AuditSampleEvery: opts.auditSample,
		AuditDumpDir:     opts.auditDir,
		Profile:          profile,
		Space:            true,
		Latency:          opts.latency,
	}
	start := time.Now()
	res, err := consensus.SolveBatch(consensus.BatchConfig{
		Instances:  ws.Instances,
		Base:       base,
		Seed:       opts.seed,
		Parallel:   opts.parallel,
		Sink:       sink,
		Progress:   opts.prog,
		Stragglers: opts.stragglers,
	})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		return benchfmt.Report{}, consensus.BatchResult{}, consensus.Config{}, 2
	}

	workers := opts.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dispatch := ""
	if commuting {
		dispatch = "commuting"
	}
	r := benchfmt.Report{
		Algorithm:       ws.Alg,
		N:               ws.N,
		K:               ws.K,
		M:               ws.M,
		Substrate:       sub.String(),
		Dispatch:        dispatch,
		Instances:       ws.Instances,
		Parallel:        workers,
		Seed:            opts.seed,
		ElapsedSec:      elapsed.Seconds(),
		InstancesPerSec: float64(ws.Instances) / elapsed.Seconds(),
		Errors:          res.ErrCount,
		Steps:           summarize(res),
		Counters:        res.Counters,
		Gauges:          res.Gauges,
		Hists:           res.Hists,
		Matrices:        res.Matrices,
		Derived:         derivedStats(res.Counters),
	}
	if res.Space != nil {
		r.Space = benchfmt.SpaceFromUsage(*res.Space)
	}
	if opts.latency {
		lat := res.LatencySummary()
		r.Latency = &lat
		// Wall-clock numbers are only comparable between matching
		// environments, so the stamp travels with them.
		r.Env = benchfmt.CurrentEnv()
	}
	r.Stragglers = res.Stragglers
	for _, v := range res.Violations {
		r.Violations += v
	}
	return r, res, base, 0
}

// derivedStats computes the informational ratios carried in Report.Derived.
// scan.retry_ratio is retries per clean double-collect — the scan-layer
// contention indicator the harness tables and the reports both surface.
func derivedStats(counters map[string]int64) map[string]float64 {
	clean, retry := counters["scan.clean"], counters["scan.retry"]
	if clean <= 0 {
		return nil
	}
	return map[string]float64{"scan.retry_ratio": float64(retry) / float64(clean)}
}

// printReport renders one workload's report in the human text format.
func printReport(r benchfmt.Report, ring *obs.Ring) {
	fmt.Printf("algorithm     : %s (n=%d, %s substrate, %s dispatch)\n",
		r.Algorithm, r.N, benchfmt.NormSubstrate(r.Substrate), benchfmt.NormDispatch(r.Dispatch))
	if r.K != 0 || r.M != 0 {
		fmt.Printf("knobs         : K=%d M=%d (0 = default)\n", r.K, r.M)
	}
	fmt.Printf("instances     : %d over %d workers\n", r.Instances, r.Parallel)
	fmt.Printf("elapsed       : %.3fs (%.1f instances/sec)\n", r.ElapsedSec, r.InstancesPerSec)
	fmt.Printf("steps/instance: p50 %d, p90 %d, p99 %d (mean %.1f, min %d, max %d)\n",
		r.Steps.P50, r.Steps.P90, r.Steps.P99, r.Steps.Mean, r.Steps.Min, r.Steps.Max)
	if line := phaseMeansLine(r.Hists); line != "" {
		fmt.Printf("phase means   : %s\n", line)
	}
	if ratio, ok := r.Derived["scan.retry_ratio"]; ok {
		fmt.Printf("scan retries  : %.3f per clean double-collect\n", ratio)
	}
	if total := r.Counters[prof.CounterStepsTotal]; total > 0 {
		fmt.Printf("prof classes  : productive %d, scan-retry %d, coin-spin %d, strip-wait %d (of %d)\n",
			r.Counters[prof.CounterStepsProductive], r.Counters[prof.CounterStepsScanRetry],
			r.Counters[prof.CounterStepsCoinSpin], r.Counters[prof.CounterStepsStripWait], total)
	}
	if r.Space != nil {
		fmt.Printf("space         : %d regs peak (%d live), %d words, %s/register\n",
			r.Space.PeakRegs, r.Space.LiveRegs, r.Space.PeakWords, bitsLabel(r.Space.MaxBits))
	}
	if r.Latency != nil && r.Latency.Count > 0 {
		fmt.Printf("latency       : p50 %s, p90 %s, p99 %s, p999 %s (max %s)\n",
			nsLabel(r.Latency.P50NS), nsLabel(r.Latency.P90NS), nsLabel(r.Latency.P99NS),
			nsLabel(r.Latency.P999NS), nsLabel(r.Latency.MaxNS))
	}
	for _, s := range r.Stragglers {
		fmt.Printf("straggler     : instance %d, %s, %d steps, decision %d (seed %d)\n",
			s.Index, nsLabel(s.LatencyNS), s.Steps, s.Decision, s.Seed)
	}
	fmt.Printf("errors        : %d\n", r.Errors)
	if r.Violations > 0 {
		fmt.Printf("audit         : %d VIOLATIONS (see stderr for probes and dumps)\n", r.Violations)
	}
	if ring != nil {
		fmt.Printf("tail          : kept %d events, dropped %d\n", ring.Len(), ring.Dropped())
	}
}

// reportErrors prints every per-instance error and returns how many there
// were.
func reportErrors(res consensus.BatchResult) int {
	if res.ErrCount > 0 {
		for k, e := range res.Errors {
			if e != nil {
				fmt.Fprintf(os.Stderr, "consensus-load: instance %d: %v\n", k, e)
			}
		}
	}
	return res.ErrCount
}

// reportViolations prints the batch's invariant violations by probe plus the
// flight dumps written, and returns the total count.
func reportViolations(res consensus.BatchResult) int64 {
	var total int64
	keys := make([]string, 0, len(res.Violations))
	for k, v := range res.Violations {
		keys = append(keys, k)
		total += v
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "consensus-load: audit violation %s x%d\n", k, res.Violations[k])
	}
	for _, f := range res.AuditDumps {
		fmt.Fprintf(os.Stderr, "consensus-load: audit dump %s (replay with: go run ./cmd/consensus-audit %s)\n", f, f)
	}
	return total
}

// phaseMeansLine renders the phase.steps.* family as "prefer 1234.5, coin
// 67.8, ..." in stable phase order (empty when the family is absent).
func phaseMeansLine(hists map[string]obs.HistSnapshot) string {
	type pm struct {
		phase string
		mean  float64
	}
	var parts []pm
	for key, h := range hists {
		if ph, ok := strings.CutPrefix(key, obs.PhaseStepsPrefix); ok {
			parts = append(parts, pm{ph, h.Mean})
		}
	}
	if len(parts) == 0 {
		return ""
	}
	order := map[string]int{"prefer": 0, "coin": 1, "strip": 2, "decide": 3}
	sort.Slice(parts, func(i, j int) bool { return order[parts[i].phase] < order[parts[j].phase] })
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %.1f", p.phase, p.mean)
	}
	return sb.String()
}

func summarize(res consensus.BatchResult) benchfmt.StepsSummary {
	s := benchfmt.StepsSummary{
		P50: res.StepsPercentile(50),
		P90: res.StepsPercentile(90),
		P99: res.StepsPercentile(99),
	}
	if len(res.Steps) == 0 {
		return s
	}
	s.Min, s.Max = res.Steps[0], res.Steps[0]
	var sum int64
	for _, v := range res.Steps {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = float64(sum) / float64(len(res.Steps))
	return s
}

func parseAlg(s string) (consensus.Algorithm, error) {
	switch s {
	case "bounded":
		return consensus.Bounded, nil
	case "aspnes-herlihy", "ah":
		return consensus.AspnesHerlihy, nil
	case "local-coin", "local":
		return consensus.LocalCoin, nil
	case "strong-coin", "strong":
		return consensus.StrongCoin, nil
	case "abrahamson", "a88":
		return consensus.Abrahamson, nil
	case "anonymous", "anon":
		return consensus.Anonymous, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

// nsLabel renders a nanosecond latency as a rounded duration.
func nsLabel(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// bitsLabel renders a bit width, with space.UnboundedBits as "unbounded bits".
func bitsLabel(bits int) string {
	if bits < 0 {
		return "unbounded bits"
	}
	return fmt.Sprintf("%d bits", bits)
}

func parseSubstrate(s string) (consensus.SubstrateKind, error) {
	switch s {
	case "", "simulated", "sim":
		return consensus.SimulatedSubstrate, nil
	case "native":
		return consensus.NativeSubstrate, nil
	default:
		return 0, fmt.Errorf("unknown substrate %q (want simulated | native)", s)
	}
}

func parseDispatch(s string) (bool, error) {
	switch s {
	case "", "sequential", "seq":
		return false, nil
	case "commuting":
		return true, nil
	default:
		return false, fmt.Errorf("unknown dispatch %q (want sequential | commuting)", s)
	}
}

func parseSchedule(kind string) (consensus.Schedule, error) {
	switch kind {
	case "round-robin", "rr":
		return consensus.Schedule{Kind: consensus.RoundRobin}, nil
	case "random":
		return consensus.Schedule{Kind: consensus.RandomSchedule}, nil
	default:
		return consensus.Schedule{}, fmt.Errorf("unknown schedule %q (batch supports round-robin | random)", kind)
	}
}
