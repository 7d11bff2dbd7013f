package consensus

import (
	"bytes"
	"fmt"
	"reflect"
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
//
// The batch arm runs each protocol's batch through SolveBatch at Parallel 1
// and 4, plain and with each instrument on (the ring on the batch's sink).
// Decisions, steps, errors, counters, gauges (an instrument may add its own
// prof.* or space.* family) and every histogram but lat.solve match the
// plain batch at the same Parallel. A metered batch observes lat.solve once
// per instance and digests 3 stragglers, an unmetered one neither, and the
// merged space usage is the same at both worker counts.
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
	const batchInstances = 16
	solveBatch := func(t *testing.T, base Config, parallel int) BatchResult {
		t.Helper()
		bc := BatchConfig{Instances: batchInstances, Seed: 9, Parallel: parallel, Base: base}
		if base.Recorder != nil {
			bc.Sink, bc.Base.Recorder = obs.NewSink(base.Recorder), nil
		}
		if base.Latency {
			bc.Stragglers = 3
		}
		res, err := SolveBatch(bc)
		if err != nil {
			t.Fatalf("SolveBatch(parallel=%d): %v", parallel, err)
		}
		if len(res.Latencies) != batchInstances {
			t.Errorf("parallel=%d: %d latencies, want one per instance", parallel, len(res.Latencies))
		}
		lat := res.Hists[obs.LatSolveKey].Count
		if base.Latency && (lat != batchInstances || len(res.Stragglers) != 3) {
			t.Errorf("parallel=%d: metered batch observed lat.solve %d times and digested %d stragglers, want %d and 3",
				parallel, lat, len(res.Stragglers), batchInstances)
		}
		if !base.Latency && (lat != 0 || res.Stragglers != nil) {
			t.Errorf("parallel=%d: unmetered batch observed lat.solve %d times or digested stragglers %v", parallel, lat, res.Stragglers)
		}
		if base.Space != (res.Space != nil) || res.Space != nil && res.Space.Empty() {
			t.Errorf("parallel=%d: Space %v produced usage %+v", parallel, base.Space, res.Space)
		}
		return res
	}
	for _, alg := range everyAlgorithm {
		t.Run(alg.String()+"/batch", func(t *testing.T) {
			base := Config{Inputs: []int{0, 1, 1, 0}, Algorithm: alg, MaxSteps: 200_000_000}
			serial := map[string]BatchResult{}
			for _, parallel := range []int{1, 4} {
				plain := solveBatch(t, base, parallel)
				for _, in := range instruments {
					t.Run(fmt.Sprintf("parallel=%d/%s", parallel, in.name), func(t *testing.T) {
						cfg := base
						in.on(&cfg)
						res := solveBatch(t, cfg, parallel)
						if !reflect.DeepEqual(res.Decisions, plain.Decisions) || !reflect.DeepEqual(res.Steps, plain.Steps) ||
							res.ErrCount != plain.ErrCount {
							t.Fatalf("%s changed the batch's decisions, steps or error count", in.name)
						}
						for _, m := range []struct {
							kind        string
							plain, with map[string]int64
						}{{"counter", plain.Counters, res.Counters}, {"gauge", plain.Gauges, res.Gauges}} {
							for k, v := range m.plain {
								if m.with[k] != v {
									t.Errorf("%s %s: %d plain, %d with %s", m.kind, k, v, m.with[k], in.name)
								}
							}
							for k := range m.with {
								own := cfg.Profile && strings.HasPrefix(k, "prof.") || cfg.Space && strings.HasPrefix(k, "space.")
								if _, ok := m.plain[k]; !ok && !own {
									t.Errorf("%s added %s %s", in.name, m.kind, k)
								}
							}
						}
						for k, h := range res.Hists {
							if k != obs.LatSolveKey && !reflect.DeepEqual(h, plain.Hists[k]) {
								t.Errorf("histogram %s differs with %s", k, in.name)
							}
						}
						for k := range plain.Hists {
							if _, ok := res.Hists[k]; !ok {
								t.Errorf("%s dropped histogram %s", in.name, k)
							}
						}
						if s, ok := serial[in.name]; !ok {
							serial[in.name] = res
						} else if !reflect.DeepEqual(res.Space, s.Space) {
							t.Errorf("%s: merged space usage differs across worker counts:\nparallel=1: %+v\nparallel=%d: %+v",
								in.name, s.Space, parallel, res.Space)
						}
					})
				}
			}
		})
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
