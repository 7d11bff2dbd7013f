package consensus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/dsrepro/consensus/internal/obs/audit"
)

// This file is the single source of truth for the dump ↔ Config mapping: a
// flight dump's RunInfo header carries everything needed to rebuild the
// exact run, and ReplayConfig inverts it. cmd/consensus-audit uses the pair
// for deterministic post-mortem replay.

// runInfoFor encodes an effective Config as the self-describing replay
// header stamped into flight dumps. instance is the batch instance index (-1
// for a single Solve run); batchSeed is the batch-level seed instance seeds
// derive from (0 for single runs).
func runInfoFor(cfg Config, instance int, batchSeed int64) audit.RunInfo {
	var replayable *bool
	substrate := ""
	if cfg.Substrate == NativeSubstrate {
		// Native interleavings are chosen by the hardware, not the seed: the
		// dump documents the failure but cannot re-derive the schedule.
		substrate = "native"
		f := false
		replayable = &f
	}
	dispatch := ""
	if cfg.ParallelDispatch {
		dispatch = "commuting"
	}
	return audit.RunInfo{
		Algorithm:  cfg.algorithm().String(),
		N:          len(cfg.Inputs),
		Seed:       cfg.Seed,
		Instance:   instance,
		BatchSeed:  batchSeed,
		Inputs:     append([]int(nil), cfg.Inputs...),
		Schedule:   scheduleString(cfg.Schedule),
		Crash:      crashString(cfg.Schedule.CrashAt),
		K:          cfg.K,
		B:          cfg.B,
		M:          cfg.M,
		Memory:     memoryString(cfg.Memory),
		Bloom:      cfg.UseBloomArrows,
		FastPath:   cfg.FastDecide,
		MaxSteps:   cfg.MaxSteps,
		Mutation:   audit.ActiveMutation(),
		Substrate:  substrate,
		Dispatch:   dispatch,
		Replayable: replayable,
	}
}

// ReplayConfig inverts a flight dump's RunInfo back into a Config that
// replays the dumped instance deterministically, with auditing enabled and
// every sampled probe escalated to run at each opportunity (SampleEvery 1).
// The caller is responsible for re-enabling info.Mutation (see
// audit.EnableMutation) when the dump came from a fault-injected run, and
// for attaching trace surfaces before Solve.
func ReplayConfig(info audit.RunInfo) (Config, error) {
	if !info.IsReplayable() {
		return Config{}, fmt.Errorf("consensus: dump from the %s substrate is not replayable (the interleaving was chosen by the hardware, not the seed)", info.Substrate)
	}
	alg, err := algorithmForName(info.Algorithm)
	if err != nil {
		return Config{}, err
	}
	schedule, err := parseScheduleString(info.Schedule)
	if err != nil {
		return Config{}, err
	}
	schedule.CrashAt, err = parseCrashString(info.Crash)
	if err != nil {
		return Config{}, err
	}
	mem, err := memoryForName(info.Memory)
	if err != nil {
		return Config{}, err
	}
	if len(info.Inputs) == 0 {
		return Config{}, fmt.Errorf("consensus: replay info has no inputs")
	}
	if info.N != 0 && info.N != len(info.Inputs) {
		return Config{}, fmt.Errorf("consensus: replay info n=%d but %d inputs", info.N, len(info.Inputs))
	}
	if info.Dispatch != "" && info.Dispatch != "sequential" && info.Dispatch != "commuting" {
		return Config{}, fmt.Errorf("consensus: unknown dispatch mode %q", info.Dispatch)
	}
	return Config{
		Inputs:           append([]int(nil), info.Inputs...),
		Algorithm:        alg,
		Seed:             info.Seed,
		Schedule:         schedule,
		MaxSteps:         info.MaxSteps,
		K:                info.K,
		B:                info.B,
		M:                info.M,
		Memory:           mem,
		UseBloomArrows:   info.Bloom,
		FastDecide:       info.FastPath,
		ParallelDispatch: info.Dispatch == "commuting",
		Audit:            true,
		AuditSampleEvery: 1,
	}, nil
}

// algorithmForName inverts Algorithm.String.
func algorithmForName(name string) (Algorithm, error) {
	for _, a := range []Algorithm{Bounded, AspnesHerlihy, LocalCoin, StrongCoin, Abrahamson, Anonymous} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("consensus: unknown algorithm %q", name)
}

// memoryString encodes a MemoryKind for RunInfo ("" = default arrow).
func memoryString(m MemoryKind) string {
	switch m {
	case 0, ArrowMemory:
		return "arrow"
	case SeqSnapMemory:
		return "seqsnap"
	case WaitFreeMemory:
		return "waitfree"
	default:
		return fmt.Sprintf("memory-%d", int(m))
	}
}

// memoryForName inverts memoryString ("" picks the default).
func memoryForName(name string) (MemoryKind, error) {
	switch name {
	case "", "arrow":
		return ArrowMemory, nil
	case "seqsnap":
		return SeqSnapMemory, nil
	case "waitfree":
		return WaitFreeMemory, nil
	default:
		return 0, fmt.Errorf("consensus: unknown memory kind %q", name)
	}
}

// scheduleString encodes a Schedule's kind (crashes are carried separately
// by crashString).
func scheduleString(s Schedule) string {
	switch s.Kind {
	case 0, RoundRobin:
		return "round-robin"
	case RandomSchedule:
		return "random"
	case LaggerSchedule:
		return fmt.Sprintf("lagger:%d:%d", s.Victim, s.Period)
	default:
		return fmt.Sprintf("kind-%d", int(s.Kind))
	}
}

// parseScheduleString inverts scheduleString ("" picks the default).
func parseScheduleString(str string) (Schedule, error) {
	switch {
	case str == "" || str == "round-robin":
		return Schedule{Kind: RoundRobin}, nil
	case str == "random":
		return Schedule{Kind: RandomSchedule}, nil
	case strings.HasPrefix(str, "lagger:"):
		parts := strings.Split(str, ":")
		if len(parts) != 3 {
			return Schedule{}, fmt.Errorf("consensus: bad lagger schedule %q (want lagger:victim:period)", str)
		}
		victim, err := strconv.Atoi(parts[1])
		if err != nil {
			return Schedule{}, fmt.Errorf("consensus: bad lagger victim in %q: %w", str, err)
		}
		period, err := strconv.Atoi(parts[2])
		if err != nil {
			return Schedule{}, fmt.Errorf("consensus: bad lagger period in %q: %w", str, err)
		}
		return Schedule{Kind: LaggerSchedule, Victim: victim, Period: period}, nil
	default:
		return Schedule{}, fmt.Errorf("consensus: unknown schedule %q", str)
	}
}

// crashString encodes a CrashAt map as "pid@step,pid@step", sorted by pid so
// the encoding is deterministic.
func crashString(crashAt map[int]int64) string {
	if len(crashAt) == 0 {
		return ""
	}
	pids := make([]int, 0, len(crashAt))
	for pid := range crashAt {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	parts := make([]string, len(pids))
	for i, pid := range pids {
		parts[i] = fmt.Sprintf("%d@%d", pid, crashAt[pid])
	}
	return strings.Join(parts, ",")
}

// parseCrashString inverts crashString ("" means no crashes).
func parseCrashString(str string) (map[int]int64, error) {
	if str == "" {
		return nil, nil
	}
	out := make(map[int]int64)
	for _, part := range strings.Split(str, ",") {
		pidStr, stepStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("consensus: bad crash spec %q (want pid@step)", part)
		}
		pid, err := strconv.Atoi(pidStr)
		if err != nil {
			return nil, fmt.Errorf("consensus: bad crash pid in %q: %w", part, err)
		}
		step, err := strconv.ParseInt(stepStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("consensus: bad crash step in %q: %w", part, err)
		}
		out[pid] = step
	}
	return out, nil
}
