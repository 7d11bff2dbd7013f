package consensus

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsrepro/consensus/internal/obs/tail"
)

// TestStragglerReplayDeterministic is the forensics acceptance criterion: for
// every protocol, replaying a straggler digest reproduces the original
// instance's decision and step count exactly, and the bundle's trace is
// byte-identical to an equally-instrumented Solve of the same seed — wall
// clock differs, identity does not.
func TestStragglerReplayDeterministic(t *testing.T) {
	for _, alg := range everyAlgorithm {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			base := Config{
				Inputs:    []int{0, 1, 1, 0},
				Algorithm: alg,
				Schedule:  Schedule{Kind: RandomSchedule},
				MaxSteps:  200_000_000,
				Latency:   true,
			}
			res, err := SolveBatch(BatchConfig{
				Instances:  12,
				Base:       base,
				Seed:       7,
				Stragglers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stragglers) != 2 {
				t.Fatalf("got %d stragglers, want 2", len(res.Stragglers))
			}
			for _, s := range res.Stragglers {
				dir := filepath.Join(t.TempDir(), "bundle")
				b, err := ReplayStraggler(base, s, dir)
				if err != nil {
					t.Fatalf("instance %d: %v", s.Index, err)
				}
				if b.ReplaySteps != s.Steps || b.ReplayDecision != s.Decision {
					t.Fatalf("instance %d: replay fingerprint (%d steps, decision %d) != recorded (%d, %d)",
						s.Index, b.ReplaySteps, b.ReplayDecision, s.Steps, s.Decision)
				}
				if s.Seed != InstanceSeed(7, s.Index) {
					t.Errorf("instance %d: digest seed %d != InstanceSeed(7, %d)", s.Index, s.Seed, s.Index)
				}

				// The bundle's trace must byte-match a fresh equally-
				// instrumented run of the same seed: the straggler's identity
				// is fully determined by (config, seed).
				bundleTrace, err := os.ReadFile(b.TracePath)
				if err != nil {
					t.Fatal(err)
				}
				var ref bytes.Buffer
				cfg := base
				cfg.Seed = s.Seed
				cfg.TraceJSONL = &ref
				cfg.Profile = true
				cfg.Audit = true
				cfg.AuditSampleEvery = 1
				refRes, err := Solve(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bundleTrace, ref.Bytes()) {
					t.Errorf("instance %d: bundle trace (%d bytes) != reference trace (%d bytes)",
						s.Index, len(bundleTrace), len(ref.Bytes()))
				}
				if refRes.Steps != s.Steps || refRes.Value != s.Decision {
					t.Errorf("instance %d: reference run diverged from digest", s.Index)
				}

				// The bundle summary parses and records the match verdict.
				sumData, err := os.ReadFile(b.SummaryPath)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := ParseStragglerSummary(sumData)
				if err != nil {
					t.Fatal(err)
				}
				if sum["algorithm"] != alg.String() {
					t.Errorf("summary algorithm = %v, want %s", sum["algorithm"], alg)
				}
			}
		})
	}
}

// TestStragglerDigestDeterministicAcrossParallelism locks the selection:
// given the same measured latencies the top-k digest is a pure function, so
// replaying both digests must land on the same (seed, steps, decision)
// identities even though the measured latencies (and possibly the chosen
// instances) differ between runs. The identity invariants are what the
// forensics workflow depends on.
func TestStragglerDigestIdentities(t *testing.T) {
	base := Config{
		Inputs:   []int{0, 1, 0, 1},
		Schedule: Schedule{Kind: RandomSchedule},
		Latency:  true,
	}
	res, err := SolveBatch(BatchConfig{Instances: 20, Base: base, Seed: 3, Parallel: 4, Stragglers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stragglers) != 5 {
		t.Fatalf("got %d stragglers, want 5", len(res.Stragglers))
	}
	for i, s := range res.Stragglers {
		if s.Seed != InstanceSeed(3, s.Index) {
			t.Errorf("straggler %d: seed %d != InstanceSeed(3, %d)", i, s.Seed, s.Index)
		}
		if s.Steps != res.Steps[s.Index] || s.Decision != res.Decisions[s.Index] {
			t.Errorf("straggler %d: digest identity diverged from batch columns", i)
		}
		if i > 0 && s.LatencyNS > res.Stragglers[i-1].LatencyNS {
			t.Errorf("digest not sorted slowest-first at %d", i)
		}
	}
}

// TestParseStragglerSummaryKeepsSeedExact pins the numeric decoding:
// straggler seeds are full-range int64s that float64 corrupts past 2^53, so
// the parsed map must carry numbers as json.Number with the digits intact —
// a user copying the rendered seed must land on the same instance.
func TestParseStragglerSummaryKeepsSeedExact(t *testing.T) {
	const seed = "-2548818271126279034" // rounds to ...168 through float64
	data := []byte(`{
		"straggler": {"index": 40, "seed": ` + seed + `, "latency_ns": 1, "steps": 2, "decision": 1},
		"algorithm": "bounded", "n": 4, "schedule": "random",
		"replay_steps": 2, "replay_decision": 1, "replay_latency_ns": 1, "match": true}`)
	sum, err := ParseStragglerSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := sum["straggler"].(map[string]any)
	if !ok {
		t.Fatalf("no straggler object in %v", sum)
	}
	n, ok := s["seed"].(json.Number)
	if !ok {
		t.Fatalf("seed decoded as %T (%v), want json.Number", s["seed"], s["seed"])
	}
	if n.String() != seed {
		t.Fatalf("seed decoded as %s, want %s", n, seed)
	}
}

// TestReplayStragglerRefusesNative pins the refusal: native interleavings are
// hardware-chosen, so there is no deterministic instance to replay.
func TestReplayStragglerRefusesNative(t *testing.T) {
	base := Config{Inputs: []int{0, 1}, Substrate: NativeSubstrate}
	_, err := ReplayStraggler(base, tail.Straggler{Index: 1, Seed: 5}, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "simulated substrate") {
		t.Fatalf("expected a native-substrate refusal, got %v", err)
	}
}

// TestReplayStragglerDetectsDivergence pins the fingerprint check: replaying
// a digest against a config that does not describe the original batch is an
// error, not a silently wrong bundle.
func TestReplayStragglerDetectsDivergence(t *testing.T) {
	base := Config{Inputs: []int{0, 1, 0, 1}, Schedule: Schedule{Kind: RandomSchedule}, Latency: true}
	res, err := SolveBatch(BatchConfig{Instances: 4, Base: base, Seed: 11, Stragglers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stragglers[0]
	wrong := base
	wrong.Inputs = []int{1, 1, 1, 1} // unanimous inputs decide differently/faster
	if _, err := ReplayStraggler(wrong, s, t.TempDir()); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("expected a divergence error, got %v", err)
	}
}
