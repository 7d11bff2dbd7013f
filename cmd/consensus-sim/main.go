// Command consensus-sim runs one consensus instance and reports the outcome
// and cost, exposing every knob of the public API.
//
// Usage examples:
//
//	consensus-sim -inputs 0,1,1,0
//	consensus-sim -inputs 0,1 -alg aspnes-herlihy -schedule random -seed 7
//	consensus-sim -inputs 1,0,1 -schedule lagger -victim 0 -period 64
//	consensus-sim -inputs 0,1,1 -crash 1:200,2:800
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/walk"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		inputsFlag = flag.String("inputs", "0,1", "comma-separated binary inputs, one per process")
		algFlag    = flag.String("alg", "bounded", "algorithm: bounded | aspnes-herlihy | local-coin | strong-coin | abrahamson | anonymous")
		schedFlag  = flag.String("schedule", "round-robin", "schedule: round-robin | random | lagger")
		subFlag    = flag.String("substrate", "simulated", "execution backend: simulated | native (real goroutines on lock-free registers; -crash and lagger starvation are emulated, other schedule kinds and replay do not apply)")
		dispFlag   = flag.String("dispatch", "sequential", "dispatch engine: sequential (one adversary grant per step) | commuting (batch steps with disjoint register footprints between consults; simulated substrate only)")
		victim     = flag.Int("victim", 0, "lagger: starved process id")
		period     = flag.Int("period", 16, "lagger: victim scheduled once per period steps")
		crashFlag  = flag.String("crash", "", "crashes as pid:step,pid:step")
		seed       = flag.Int64("seed", 1, "random seed (runs replay exactly for equal seeds)")
		maxSteps   = flag.Int64("max-steps", 100_000_000, "abort after this many atomic steps")
		b          = flag.Int("b", 4, "shared-coin barrier multiplier")
		m          = flag.Int("m", 0, "coin counter bound (0 = derived default)")
		k          = flag.Int("k", 0, "rounds-strip constant (0 = default 2)")
		bloom      = flag.Bool("bloom", false, "build arrow registers from Bloom's 2W2R construction")
		trace      = flag.Bool("trace", false, "print the protocol event log to stderr (round advances, preference changes, coin flips, decisions)")
		traceOut   = flag.String("trace-out", "", "write the full cross-layer event stream (register/scan/walk/strip/core) as JSONL to this file")
		metrics    = flag.Bool("metrics", false, "print the cross-layer observability counters after the run")
		profFlag   = flag.Bool("prof", false, "run the step profiler and print the step-class/blame/critical-path summary (implied by -prof-out/-prof-json)")
		profOut    = flag.String("prof-out", "", "write the profiled run as a Chrome-trace-event/Perfetto JSON file (open in ui.perfetto.dev)")
		profJSON   = flag.String("prof-json", "", "write the raw profile (classes, blame matrix, critical path) as JSON to this file (analyse with: traceview -prof)")
		spaceFlag  = flag.Bool("space", false, "meter space usage and print the per-layer accounting table; for -alg bounded, non-zero exit if a measured payload exceeds the static bounds (|coin| > M+1 or a strip counter >= 3K)")
		spaceJSON  = flag.String("space-json", "", "write the space usage snapshot as JSON to this file (analyse with: traceview -space); implies -space")
		auditFlag  = flag.Bool("audit", false, "run the online invariant monitor; non-zero exit if any probe fires")
		auditEvery = flag.Int("audit-sample", 0, "audit: run sampled probes every N opportunities (0 = default 64, 1 = every)")
		auditDir   = flag.String("audit-dir", "", "audit: write flight-recorder dumps to this directory (replay with consensus-audit)")
	)
	flag.Parse()

	inputs, err := parseInputs(*inputsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		return 2
	}
	alg, err := parseAlg(*algFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		return 2
	}
	schedule, err := parseSchedule(*schedFlag, *victim, *period, *crashFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		return 2
	}
	substrate, err := parseSubstrate(*subFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		return 2
	}
	commuting, err := parseDispatch(*dispFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		return 2
	}

	cfg := consensus.Config{
		Inputs:           inputs,
		Algorithm:        alg,
		Seed:             *seed,
		Schedule:         schedule,
		Substrate:        substrate,
		ParallelDispatch: commuting,
		MaxSteps:         *maxSteps,
		B:                *b,
		M:                *m,
		K:                *k,
		UseBloomArrows:   *bloom,
	}
	if *spaceJSON != "" {
		*spaceFlag = true
	}
	cfg.Space = *spaceFlag
	if *auditFlag || *auditDir != "" || *auditEvery > 0 {
		cfg.Audit = true
		cfg.AuditSampleEvery = *auditEvery
		cfg.AuditDumpDir = *auditDir
	}
	if *profOut != "" || *profJSON != "" {
		*profFlag = true
	}
	cfg.Profile = *profFlag
	if *trace {
		cfg.TraceWriter = os.Stderr
	}
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
			return 2
		}
		cfg.TraceJSONL = traceFile
	}
	res, err := consensus.Solve(cfg)
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: run ended early: %v\n", err)
	}

	fmt.Printf("algorithm : %v\n", alg)
	if substrate == consensus.NativeSubstrate {
		fmt.Printf("substrate : native (hardware interleaving — not replayable)\n")
	}
	if commuting {
		fmt.Printf("dispatch  : commuting (batched disjoint-footprint grants; deterministic, seed-reproducible)\n")
	}
	fmt.Printf("inputs    : %v\n", inputs)
	fmt.Printf("decision  : %d\n", res.Value)
	fmt.Printf("steps     : %d (per process %v)\n", res.Steps, res.PerProcSteps)
	fmt.Printf("rounds    : %v\n", res.Rounds)
	fmt.Printf("coinflips : %v\n", res.CoinFlips)
	fmt.Printf("max|coin| : %d\n", res.MaxAbsCoin)
	if res.MaxRound > 0 {
		fmt.Printf("max round : %d (unbounded round numbers!)\n", res.MaxRound)
	} else {
		fmt.Printf("max round : none stored (bounded rounds strip)\n")
	}
	for i, d := range res.Decided {
		if !d {
			fmt.Printf("process %d : UNDECIDED (crashed or budget)\n", i)
		}
	}
	if *metrics {
		printMetrics(res)
	}
	spaceExceeded := false
	if *spaceFlag {
		if res.Space == nil {
			fmt.Fprintln(os.Stderr, "consensus-sim: metering produced no space report")
			return 1
		}
		printSpace(*res.Space)
		if *spaceJSON != "" {
			data, jerr := json.MarshalIndent(res.Space, "", "  ")
			if jerr == nil {
				jerr = os.WriteFile(*spaceJSON, append(data, '\n'), 0o644)
			}
			if jerr != nil {
				fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", jerr)
				return 1
			}
			fmt.Printf("space-json: %s (analyse with: go run ./cmd/traceview -space %s)\n", *spaceJSON, *spaceJSON)
		}
		if alg == consensus.Bounded {
			spaceExceeded = checkStaticBounds(*res.Space, len(inputs), *b, *m, *k)
		}
	}
	if *profFlag {
		if code := reportProfile(res.Profile, *profOut, *profJSON); code != 0 {
			return code
		}
	}
	if traceFile != nil {
		fmt.Printf("trace     : %s (analyse with: go run ./cmd/traceview %s)\n", *traceOut, *traceOut)
	}
	violated := false
	if cfg.Audit {
		if len(res.Violations) == 0 {
			fmt.Printf("audit     : clean (%d coin truncations)\n", res.Truncations)
		} else {
			violated = true
			fmt.Printf("audit     : VIOLATIONS\n")
			for _, k := range sortedKeys(res.Violations) {
				fmt.Printf("  %-16s %d\n", k, res.Violations[k])
			}
			for _, f := range res.AuditDumps {
				fmt.Printf("  dump: %s (replay with: go run ./cmd/consensus-audit %s)\n", f, f)
			}
		}
	}
	if err != nil || violated || spaceExceeded {
		return 1
	}
	return 0
}

// printSpace renders the per-layer accounting table in enum order, with the
// totals line first to match the rest of the summary.
func printSpace(u space.Usage) {
	fmt.Printf("space     : %d regs (%d live), %d words, %d bits/register max\n",
		u.Regs, u.LiveRegs, u.PeakWords, u.MaxBits)
	fmt.Printf("  %-9s %5s %5s %6s  %-9s %-9s %7s\n",
		"layer", "regs", "live", "words", "declared", "measured", "max|v|")
	for _, name := range space.LayerNames() {
		lu, ok := u.Layers[name]
		if !ok {
			continue
		}
		fmt.Printf("  %-9s %5d %5d %6d  %-9s %-9s %7d\n",
			name, lu.Regs, lu.LiveRegs, lu.Words,
			widthLabel(lu.DeclaredBits), widthLabel(lu.MeasuredBits), lu.MaxAbs)
	}
}

// widthLabel renders a bit width, with space.UnboundedBits as "unbound".
func widthLabel(bits int) string {
	if bits == space.UnboundedBits {
		return "unbound"
	}
	return fmt.Sprintf("%d bit", bits)
}

// checkStaticBounds verifies the bounded protocol's measured payloads against
// the paper's static bounds — coin counters clamp to ±(M+1), strip counters
// live mod 3K — and reports (printing the verdict) whether any was exceeded.
// This is the teeth behind scripts/space_smoke.sh.
func checkStaticBounds(u space.Usage, n, b, m, k int) bool {
	if k <= 0 {
		k = 2 // the protocol default
	}
	exceeded := false
	if m >= 0 { // m < 0 runs the walk unbounded: no static bound to hold
		if m == 0 {
			m = (walk.Params{N: n, B: b}).DefaultM()
		}
		if got := u.Layers["walk"].MaxAbs; got > int64(m)+1 {
			exceeded = true
			fmt.Printf("space     : BOUND EXCEEDED: walk |counter| %d > M+1 = %d\n", got, m+1)
		}
	}
	if got := u.Layers["strip"].MaxAbs; got >= int64(3*k) {
		exceeded = true
		fmt.Printf("space     : BOUND EXCEEDED: strip counter %d >= 3K = %d\n", got, 3*k)
	}
	if !exceeded {
		fmt.Printf("space     : static bounds hold (|coin| <= M+1, strip < 3K)\n")
	}
	return exceeded
}

// reportProfile prints the three-line profile summary and writes the optional
// Perfetto and raw-JSON artifacts. Non-zero return is an I/O failure.
func reportProfile(p *prof.Profile, perfettoPath, jsonPath string) int {
	if p == nil {
		fmt.Fprintln(os.Stderr, "consensus-sim: profiling produced no profile")
		return 1
	}
	c := p.Classes
	fmt.Printf("prof      : %d steps = %d productive + %d scan-retry + %d coin-spin + %d strip-wait\n",
		c.Total, c.Productive, c.ScanRetry, c.CoinSpin, c.StripWait)
	if scanner, writer, v := hottestCell(p.Blame); v > 0 {
		_, reg, rv := hottestCell(p.Contention)
		fmt.Printf("blame     : worst pair scanner %d <- writer %d (%d retries); hottest register %d (%d)\n",
			scanner, writer, v, reg, rv)
	}
	if cp := p.CriticalPath; cp.Decider >= 0 {
		fmt.Printf("crit path : chain length %d (%d joins) ends at process %d deciding at step %d\n",
			cp.Len, len(cp.Nodes)-1, cp.Decider, cp.DecideStep)
	}
	if perfettoPath != "" {
		f, err := os.Create(perfettoPath)
		if err == nil {
			err = prof.WritePerfetto(f, p)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
			return 1
		}
		fmt.Printf("perfetto  : %s (open in ui.perfetto.dev)\n", perfettoPath)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(p, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
			return 1
		}
		fmt.Printf("profile   : %s (analyse with: go run ./cmd/traceview -prof %s)\n", jsonPath, jsonPath)
	}
	return 0
}

// hottestCell returns the row, column and value of the matrix's maximum cell
// (first in row-major order on ties; value 0 when the matrix is empty).
func hottestCell(m obs.MatrixSnapshot) (row, col int, v int64) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if cv := m.At(r, c); cv > v {
				row, col, v = r, c, cv
			}
		}
	}
	return row, col, v
}

func printMetrics(res consensus.Result) {
	fmt.Println("observability counters:")
	for _, k := range sortedKeys(res.Counters) {
		fmt.Printf("  %-22s %d\n", k, res.Counters[k])
	}
	for _, k := range sortedKeys(res.Gauges) {
		fmt.Printf("  %-22s %d (max)\n", k, res.Gauges[k])
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func parseInputs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || (v != 0 && v != 1) {
			return nil, fmt.Errorf("invalid input %q (want 0 or 1)", p)
		}
		out = append(out, v)
	}
	return out, nil
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

func parseSchedule(kind string, victim, period int, crash string) (consensus.Schedule, error) {
	var s consensus.Schedule
	switch kind {
	case "round-robin", "rr":
		s.Kind = consensus.RoundRobin
	case "random":
		s.Kind = consensus.RandomSchedule
	case "lagger":
		s.Kind = consensus.LaggerSchedule
		s.Victim, s.Period = victim, period
	default:
		return s, fmt.Errorf("unknown schedule %q", kind)
	}
	if crash != "" {
		s.CrashAt = make(map[int]int64)
		for _, part := range strings.Split(crash, ",") {
			var pid int
			var step int64
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &pid, &step); err != nil {
				return s, fmt.Errorf("invalid crash spec %q (want pid:step)", part)
			}
			s.CrashAt[pid] = step
		}
	}
	return s, nil
}
