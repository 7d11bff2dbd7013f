package consensus

import (
	"bytes"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
)

// solveJSONL runs Solve with a JSONL trace attached and returns the raw bytes.
func solveJSONL(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.TraceJSONL = &buf
	if _, err := Solve(cfg); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return buf.Bytes()
}

// TestSolveTraceDeterministic: equal seeds replay exactly, so the full
// cross-layer event stream — not just the outcome — must be byte-identical.
func TestSolveTraceDeterministic(t *testing.T) {
	cfg := Config{Inputs: []int{0, 1, 1, 0}, Seed: 42}
	a := solveJSONL(t, cfg)
	b := solveJSONL(t, cfg)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event streams")
	}
	c := solveJSONL(t, Config{Inputs: []int{0, 1, 1, 0}, Seed: 43})
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event streams (suspicious)")
	}
}

// TestSolveTraceCoversLayers: the exported stream must carry events from the
// whole stack, not just the protocol layer.
func TestSolveTraceCoversLayers(t *testing.T) {
	raw := solveJSONL(t, Config{Inputs: []int{0, 1, 1}, Seed: 7})
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	layers := map[obs.Layer]bool{}
	for _, e := range events {
		layers[e.Kind.Layer()] = true
	}
	for _, l := range []obs.Layer{obs.LayerRegister, obs.LayerScan, obs.LayerWalk, obs.LayerCore, obs.LayerPhase} {
		if !layers[l] {
			t.Errorf("no %v-layer events in trace (layers seen: %v)", l, layers)
		}
	}
}

// TestSolveResultPhaseHists: the Result carries the phase-span histogram
// family, and the phase sums partition steps-to-decide exactly.
func TestSolveResultPhaseHists(t *testing.T) {
	res, err := Solve(Config{Inputs: []int{0, 1, 1}, Seed: 9})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	total, ok := res.Hists["core.steps_to_decide"]
	if !ok {
		t.Fatal("missing core.steps_to_decide in Result.Hists")
	}
	var phaseSum int64
	for ph := obs.PhaseID(0); ph < obs.NumPhases; ph++ {
		h, ok := res.Hists[obs.PhaseStepsPrefix+ph.String()]
		if !ok {
			t.Fatalf("missing %s%s in Result.Hists", obs.PhaseStepsPrefix, ph)
		}
		if h.Count != total.Count {
			t.Errorf("phase %s count = %d, want one span set per decided process (%d)",
				ph, h.Count, total.Count)
		}
		phaseSum += h.Sum
	}
	if phaseSum != total.Sum {
		t.Errorf("phase sums total %d, steps_to_decide sum %d", phaseSum, total.Sum)
	}
}

// TestSolveResultCounters: the Result carries the registry snapshot.
func TestSolveResultCounters(t *testing.T) {
	res, err := Solve(Config{Inputs: []int{0, 1}, Seed: 3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, key := range []string{"core.decide", "sched.grant", "scan.clean"} {
		if res.Counters[key] == 0 {
			t.Errorf("Counters[%q] = 0, want > 0 (got %v)", key, res.Counters)
		}
	}
	if res.Counters["core.decide"] != 2 {
		t.Errorf("core.decide = %d, want one per process (2)", res.Counters["core.decide"])
	}
	if res.Gauges["core.max_abs_coin"] != res.MaxAbsCoin {
		t.Errorf("gauge %d disagrees with Result.MaxAbsCoin %d",
			res.Gauges["core.max_abs_coin"], res.MaxAbsCoin)
	}
}
