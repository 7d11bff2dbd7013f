package consensus

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/obs/audit"
)

// Mutation recipes: each runtime fault hook paired with a config whose
// execution provably trips the matching probe (seeds found empirically;
// deterministic thereafter).
var mutationRecipes = []struct {
	mutation string
	probe    string
	cfg      Config
}{
	// Double-applied walk move with saturation skipped: a counter at ±M jumps
	// to ±(M+2). Needs a small explicit M so counters actually reach the bound.
	{"walk.unclamped", "coin.range", Config{
		Inputs: []int{0, 1, 1, 0}, Seed: 1, M: 8, MaxSteps: 20_000_000,
	}},
	// Un-reduced strip counter (wrap without Mod3K): every moved row entry
	// escapes {0..3K-1} immediately, on any execution that advances a round.
	{"strip.skipmod", "strip.range", Config{
		Inputs: []int{0, 1, 1, 0}, Seed: 1, Schedule: Schedule{Kind: RandomSchedule},
		MaxSteps: 20_000_000,
	}},
	// Torn double collect returned as clean: the handshake audit re-compares
	// the two collects' toggles. AspnesHerlihy tolerates torn views enough to
	// keep running (the bounded protocols can panic decoding them).
	{"scan.torn", "scan.handshake", Config{
		Inputs: []int{0, 1, 1, 0}, Algorithm: AspnesHerlihy, Seed: 1,
		Schedule: Schedule{Kind: RandomSchedule}, MaxSteps: 20_000_000,
	}},
}

// TestMutationsFireProbes injects each runtime fault and asserts the paired
// probe fires — the monitor's end-to-end detection test. Each recipe also
// exercises the flight recorder: a dump file lands in the audit dir and
// replays to the same violation via ReplayConfig.
func TestMutationsFireProbes(t *testing.T) {
	for _, rec := range mutationRecipes {
		t.Run(rec.mutation, func(t *testing.T) {
			dir := t.TempDir()
			if err := audit.EnableMutation(rec.mutation); err != nil {
				t.Fatal(err)
			}
			defer audit.DisableAll()
			cfg := rec.cfg
			cfg.Audit = true
			cfg.AuditDumpDir = dir
			res, err := Solve(cfg)
			if err != nil {
				t.Fatalf("Solve under %s: %v", rec.mutation, err)
			}
			if res.Violations[rec.probe] == 0 {
				t.Fatalf("%s did not fire %s: violations = %v", rec.mutation, rec.probe, res.Violations)
			}
			if len(res.AuditDumps) == 0 {
				t.Fatalf("%s produced no flight dumps", rec.mutation)
			}

			// Post-mortem loop: the dump's RunInfo header must rebuild a config
			// that reproduces the violation deterministically.
			d, err := audit.ReadDumpFile(res.AuditDumps[0])
			if err != nil {
				t.Fatal(err)
			}
			if d.Probe != rec.probe {
				t.Fatalf("dump probe = %q, want %q", d.Probe, rec.probe)
			}
			if d.Info.Mutation != rec.mutation {
				t.Fatalf("dump mutation = %q, want %q", d.Info.Mutation, rec.mutation)
			}
			replayCfg, err := ReplayConfig(d.Info)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := Solve(replayCfg)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if replay.Violations[rec.probe] != res.Violations[rec.probe] {
				t.Fatalf("replay violations[%s] = %d, original run had %d",
					rec.probe, replay.Violations[rec.probe], res.Violations[rec.probe])
			}
		})
	}
}

// TestMutationsOffByDefault locks the zero-cost default: with no mutation
// enabled, the recipes above run violation-free.
func TestMutationsOffByDefault(t *testing.T) {
	if active := audit.ActiveMutation(); active != "" {
		t.Fatalf("mutation %q enabled at test start", active)
	}
	for _, rec := range mutationRecipes {
		cfg := rec.cfg
		cfg.Audit = true
		res, err := Solve(cfg)
		if err != nil {
			t.Fatalf("%s recipe config failed clean: %v", rec.mutation, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s recipe config violated without the fault: %v", rec.mutation, res.Violations)
		}
	}
}

// TestReplayConfigRoundTrip checks runInfoFor and ReplayConfig are inverses
// over the encodable schedule/crash/memory space.
func TestReplayConfigRoundTrip(t *testing.T) {
	cfgs := []Config{
		{Inputs: []int{0, 1}, Seed: 3},
		{Inputs: []int{1, 0, 1}, Algorithm: StrongCoin, Seed: 9,
			Schedule: Schedule{Kind: RandomSchedule}, Memory: SeqSnapMemory, MaxSteps: 1000},
		{Inputs: []int{0, 1, 1, 0}, Algorithm: Abrahamson, Seed: -4,
			Schedule: Schedule{Kind: LaggerSchedule, Victim: 2, Period: 64},
			Memory:   WaitFreeMemory, K: 3, B: 2, M: 99, UseBloomArrows: true, FastDecide: true},
		{Inputs: []int{1, 1, 0}, Algorithm: AspnesHerlihy, Seed: 7,
			Schedule: Schedule{Kind: RandomSchedule, CrashAt: map[int]int64{2: 500, 0: 40}}},
	}
	for _, cfg := range cfgs {
		info := runInfoFor(cfg, -1, 0)
		got, err := ReplayConfig(info)
		if err != nil {
			t.Fatalf("ReplayConfig(%+v): %v", info, err)
		}
		if !got.Audit || got.AuditSampleEvery != 1 {
			t.Fatalf("replay config not escalated: %+v", got)
		}
		// Normalize the fields ReplayConfig intentionally sets or canonicalizes
		// before comparing against the original.
		got.Audit, got.AuditSampleEvery = false, 0
		want := cfg
		want.Algorithm = cfg.algorithm()
		if want.Memory == 0 {
			want.Memory = ArrowMemory
		}
		if want.Schedule.Kind == 0 {
			want.Schedule.Kind = RoundRobin
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestReplayConfigRejectsBadInfo(t *testing.T) {
	for _, info := range []audit.RunInfo{
		{Algorithm: "bounded"},                                           // no inputs
		{Algorithm: "nope", Inputs: []int{0}},                            // unknown algorithm
		{Algorithm: "bounded", Inputs: []int{0, 1}, N: 3},                // n mismatch
		{Algorithm: "bounded", Inputs: []int{0}, Schedule: "warp"},       // unknown schedule
		{Algorithm: "bounded", Inputs: []int{0}, Schedule: "lagger:x:2"}, // bad lagger
		{Algorithm: "bounded", Inputs: []int{0}, Crash: "1-2"},           // bad crash spec
		{Algorithm: "bounded", Inputs: []int{0}, Memory: "tape"},         // unknown memory
	} {
		if _, err := ReplayConfig(info); err == nil {
			t.Fatalf("ReplayConfig(%+v) accepted bad info", info)
		}
	}
}

// TestBatchAuditDeterministicAcrossParallel runs an audited fault-injected
// batch at Parallel 1 and 4: merged violation counts, truncations and the
// dump-file list (instance order) must be identical.
func TestBatchAuditDeterministicAcrossParallel(t *testing.T) {
	if err := audit.EnableMutation("strip.skipmod"); err != nil {
		t.Fatal(err)
	}
	defer audit.DisableAll()
	run := func(parallel int) BatchResult {
		dir := t.TempDir()
		res, err := SolveBatch(BatchConfig{
			Instances: 8,
			Parallel:  parallel,
			Seed:      21,
			Base: Config{
				Inputs:       []int{0, 1, 1, 0},
				Schedule:     Schedule{Kind: RandomSchedule},
				MaxSteps:     20_000_000,
				Audit:        true,
				AuditDumpDir: dir,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Dump paths embed the per-run temp dir; compare basenames only.
		for i, p := range res.AuditDumps {
			res.AuditDumps[i] = filepath.Base(p)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	if serial.ErrCount != 0 {
		t.Fatalf("batch errors: %v", serial.Errors)
	}
	if len(serial.Violations) == 0 {
		t.Fatal("fault-injected batch reported no violations")
	}
	if !reflect.DeepEqual(serial.Violations, parallel.Violations) {
		t.Fatalf("violations diverged across Parallel: %v vs %v", serial.Violations, parallel.Violations)
	}
	if serial.Truncations != parallel.Truncations {
		t.Fatalf("truncations diverged: %d vs %d", serial.Truncations, parallel.Truncations)
	}
	if !reflect.DeepEqual(serial.AuditDumps, parallel.AuditDumps) {
		t.Fatalf("dump lists diverged:\n %v\n %v", serial.AuditDumps, parallel.AuditDumps)
	}
	if !reflect.DeepEqual(serial.Decisions, parallel.Decisions) ||
		!reflect.DeepEqual(serial.Steps, parallel.Steps) {
		t.Fatal("batch outcomes diverged across Parallel")
	}
}

// TestAuditDumpFilesOnDisk checks the dump naming contract under DumpDir:
// audit-i<instance>-<probe>-<seq>.jsonl, parseable by ReadDumpFile.
func TestAuditDumpFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	if err := audit.EnableMutation("walk.unclamped"); err != nil {
		t.Fatal(err)
	}
	defer audit.DisableAll()
	res, err := Solve(Config{
		Inputs: []int{0, 1, 1, 0}, Seed: 1, M: 8, MaxSteps: 20_000_000,
		Audit: true, AuditDumpDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AuditDumps) == 0 {
		t.Fatal("no dumps written")
	}
	want := filepath.Join(dir, "audit-i0-coin.range-0.jsonl")
	if res.AuditDumps[0] != want {
		t.Fatalf("dump path = %q, want %q", res.AuditDumps[0], want)
	}
	if _, err := os.Stat(want); err != nil {
		t.Fatal(err)
	}
	d, err := audit.ReadDumpFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if d.Info.Algorithm != "bounded" || d.Info.M != 8 || len(d.Events) == 0 {
		t.Fatalf("dump = %+v", d)
	}
}
