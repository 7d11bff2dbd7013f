package consensus

import (
	"bytes"
	"strings"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
)

// everyAlgorithm lists all six protocols for the cross-protocol suites.
var everyAlgorithm = []Algorithm{Bounded, AspnesHerlihy, LocalCoin, StrongCoin, Abrahamson, Anonymous}

// TestInstrumentsDoNotPerturb locks every instrument's core contract: an
// instrumented run is byte-identical to a plain one. Instruments take no
// scheduler steps, draw no process randomness and emit no events of their
// own on a healthy run, so for every protocol and base config switching any
// one of them on must leave the decision, the step count and the registry
// counters of a run with no recorder at all unchanged (the profiler adds its
// prof.* family and nothing else), and the full cross-layer JSONL trace — every
// register operation, scan, coin flip and decision in order — byte-identical
// to a plain run that writes JSONL too. Each row also checks that its
// instrument observed the run.
func TestInstrumentsDoNotPerturb(t *testing.T) {
	random := Schedule{Kind: RandomSchedule}
	bases := []struct {
		name string
		cfg  Config
	}{
		{"rr-seed11", Config{Inputs: []int{1, 0, 1, 0}, Seed: 11}},
		{"random-seed11", Config{Inputs: []int{0, 1, 1, 0}, Seed: 11, Schedule: random, MaxSteps: 20_000_000}},
		{"random-seed1989", Config{Inputs: []int{1, 0, 1, 0}, Seed: 1989, Schedule: random}},
		{"random-seed42", Config{Inputs: []int{0, 1, 1, 0}, Seed: 42, Schedule: random, MaxSteps: 200_000_000}},
	}
	instruments := []struct {
		name  string
		on    func(*Config)
		check func(*testing.T, Config, Result)
	}{
		{"ring", func(c *Config) { c.Recorder = obs.NewRing(1024) }, func(t *testing.T, c Config, _ Result) {
			if c.Recorder.(*obs.Ring).Len() == 0 {
				t.Error("ring recorder received no events")
			}
		}},
		{"audit", func(c *Config) { c.Audit, c.AuditSampleEvery = true, 1 }, func(t *testing.T, _ Config, r Result) {
			if len(r.Violations) > 0 {
				t.Errorf("healthy run reported violations: %v", r.Violations)
			}
		}},
		{"prof", func(c *Config) { c.Profile = true }, func(t *testing.T, _ Config, r Result) {
			if r.Profile == nil {
				t.Fatal("profiled run returned no Profile")
			}
			if r.Profile.Classes.Total == 0 {
				t.Error("profile classified zero steps")
			}
		}},
		{"space", func(c *Config) { c.Space = true }, func(t *testing.T, _ Config, r Result) {
			if r.Space == nil || r.Space.Empty() {
				t.Error("metered run produced no space usage")
			}
		}},
		{"latency", func(c *Config) { c.Latency = true }, func(t *testing.T, _ Config, r Result) {
			if r.LatencyNS <= 0 {
				t.Error("metered run reported no latency")
			}
		}},
	}
	solve := func(t *testing.T, cfg Config) Result {
		t.Helper()
		res, err := Solve(cfg)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return res
	}
	for _, alg := range everyAlgorithm {
		for _, base := range bases {
			base.cfg.Algorithm = alg
			t.Run(alg.String()+"/"+base.name, func(t *testing.T) {
				plain := solve(t, base.cfg)
				if plain.Space != nil || plain.LatencyNS != 0 || plain.Profile != nil {
					t.Fatal("plain run reported a space usage, a latency or a profile")
				}
				var plainTrace bytes.Buffer
				traced := base.cfg
				traced.TraceJSONL = &plainTrace
				solve(t, traced)
				for _, in := range instruments {
					t.Run(in.name, func(t *testing.T) {
						var trace bytes.Buffer
						cfg := base.cfg
						cfg.TraceJSONL = &trace
						in.on(&cfg)
						res := solve(t, cfg)
						if res.Value != plain.Value || res.Steps != plain.Steps {
							t.Fatalf("%s changed the run: value/steps %d/%d vs %d/%d",
								in.name, res.Value, res.Steps, plain.Value, plain.Steps)
						}
						for k, v := range plain.Counters {
							if res.Counters[k] != v {
								t.Errorf("counter %s: %d plain, %d with %s", k, v, res.Counters[k], in.name)
							}
						}
						for k := range res.Counters {
							if _, ok := plain.Counters[k]; !ok && !(cfg.Profile && strings.HasPrefix(k, "prof.")) {
								t.Errorf("%s added counter %s", in.name, k)
							}
						}
						if !bytes.Equal(trace.Bytes(), plainTrace.Bytes()) {
							t.Fatalf("%s changed the JSONL trace (%d vs %d bytes)", in.name, trace.Len(), plainTrace.Len())
						}
						if !cfg.Space && res.Space != nil {
							t.Error("unmetered run produced a space usage")
						}
						if !cfg.Latency && res.LatencyNS != 0 {
							t.Error("unmetered run reported a latency")
						}
						in.check(t, cfg, res)
					})
				}
			})
		}
	}
}
