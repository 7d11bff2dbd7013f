package main

import (
	"strings"
	"testing"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/benchfmt"
	"github.com/dsrepro/consensus/internal/obs"
)

// TestReconcileTailDrops is the regression test for the -tail drain race:
// the batch counters are snapshotted inside SolveBatch, so ring overwrites
// that land after that snapshot used to be reported in Dropped but missing
// from the obs.trace_dropped counter. Reconciliation must take the ring's
// final total and raise the counter to match.
func TestReconcileTailDrops(t *testing.T) {
	ring := obs.NewRing(2)
	sink := obs.NewSink(nil)
	ring.CountDropsInto(sink)
	for i := 0; i < 5; i++ { // 3 counted overwrites
		ring.Record(obs.Event{Step: int64(i)})
	}

	// The "final snapshot": counters frozen with 3 drops.
	r := benchfmt.Report{Counters: sink.Registry().Snapshot().Counters}

	// Two more overwrites land after the snapshot (the drain race).
	ring.Record(obs.Event{Step: 5})
	ring.Record(obs.Event{Step: 6})

	reconcileTailDrops(&r, ring)
	if r.Dropped != 5 {
		t.Errorf("Dropped = %d, want the ring's final total 5", r.Dropped)
	}
	if got := r.Counters[obs.TraceDropped.ID()]; got != 5 {
		t.Errorf("counter %s = %d, want raised to 5", obs.TraceDropped.ID(), got)
	}
}

// TestReconcileTailDropsEdges: nil ring is a no-op; a dropless ring reports
// zero without inventing a counters map; an existing higher counter (another
// ring feeding the same sink) is never lowered.
func TestReconcileTailDropsEdges(t *testing.T) {
	r := benchfmt.Report{}
	reconcileTailDrops(&r, nil)
	if r.Dropped != 0 || r.Counters != nil {
		t.Errorf("nil ring mutated report: %+v", r)
	}

	reconcileTailDrops(&r, obs.NewRing(4))
	if r.Dropped != 0 || r.Counters != nil {
		t.Errorf("dropless ring mutated counters: %+v", r)
	}

	ring := obs.NewRing(1)
	ring.Record(obs.Event{Step: 1})
	ring.Record(obs.Event{Step: 2}) // 1 drop
	r = benchfmt.Report{Counters: map[string]int64{obs.TraceDropped.ID(): 9}}
	reconcileTailDrops(&r, ring)
	if r.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", r.Dropped)
	}
	if got := r.Counters[obs.TraceDropped.ID()]; got != 9 {
		t.Errorf("counter lowered to %d, want kept at 9", got)
	}
}

// TestEtaLabel pins the -progress line's ETA rendering: the probe's -1
// sentinel (no rate yet) prints "?", a finished batch prints "0s", and any
// other estimate rounds to the nearest 100 ms.
func TestEtaLabel(t *testing.T) {
	for _, c := range []struct {
		name string
		sec  float64
		want string
	}{
		{"no-rate", -1, "?"},
		{"done", 0, "0s"},
		{"rounded", 12.36, "12.4s"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := etaLabel(c.sec); got != c.want {
				t.Errorf("etaLabel(%v) = %q, want %q", c.sec, got, c.want)
			}
		})
	}
}

// TestParseAlg: every spelling the -alg help and the matrix rows use, plus
// the short aliases, selects its algorithm; anything else is a usage error.
func TestParseAlg(t *testing.T) {
	for _, c := range []struct {
		flag string
		want consensus.Algorithm
	}{
		{"bounded", consensus.Bounded},
		{"aspnes-herlihy", consensus.AspnesHerlihy},
		{"ah", consensus.AspnesHerlihy},
		{"local-coin", consensus.LocalCoin},
		{"local", consensus.LocalCoin},
		{"strong-coin", consensus.StrongCoin},
		{"strong", consensus.StrongCoin},
		{"abrahamson", consensus.Abrahamson},
		{"a88", consensus.Abrahamson},
		{"anonymous", consensus.Anonymous},
		{"anon", consensus.Anonymous},
	} {
		t.Run(c.flag, func(t *testing.T) {
			got, err := parseAlg(c.flag)
			if err != nil || got != c.want {
				t.Errorf("parseAlg(%q) = %v, %v; want %v", c.flag, got, err, c.want)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := parseAlg("paxos"); err == nil {
			t.Error("parseAlg accepted an unknown algorithm")
		}
	})
}

// TestParseSubstrate: the empty spelling is the matrix rows' default and
// must mean the simulated substrate.
func TestParseSubstrate(t *testing.T) {
	for _, c := range []struct {
		name, flag string
		want       consensus.SubstrateKind
	}{
		{"default", "", consensus.SimulatedSubstrate},
		{"simulated", "simulated", consensus.SimulatedSubstrate},
		{"sim", "sim", consensus.SimulatedSubstrate},
		{"native", "native", consensus.NativeSubstrate},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseSubstrate(c.flag)
			if err != nil || got != c.want {
				t.Errorf("parseSubstrate(%q) = %v, %v; want %v", c.flag, got, err, c.want)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := parseSubstrate("gpu"); err == nil {
			t.Error("parseSubstrate accepted an unknown substrate")
		}
	})
}

// TestParseDispatch: the empty spelling is the matrix rows' default and must
// mean sequential dispatch; only "commuting" turns batching on.
func TestParseDispatch(t *testing.T) {
	for _, c := range []struct {
		name, flag string
		want       bool
	}{
		{"default", "", false},
		{"sequential", "sequential", false},
		{"seq", "seq", false},
		{"commuting", "commuting", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseDispatch(c.flag)
			if err != nil || got != c.want {
				t.Errorf("parseDispatch(%q) = %v, %v; want %v", c.flag, got, err, c.want)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := parseDispatch("parallel"); err == nil {
			t.Error("parseDispatch accepted an unknown dispatch mode")
		}
	})
}

// TestParseSchedule: the batch CLI offers only the two oblivious schedules;
// the adaptive adversaries are library-only and must be refused.
func TestParseSchedule(t *testing.T) {
	for _, c := range []struct {
		flag string
		want consensus.ScheduleKind
	}{
		{"round-robin", consensus.RoundRobin},
		{"rr", consensus.RoundRobin},
		{"random", consensus.RandomSchedule},
	} {
		t.Run(c.flag, func(t *testing.T) {
			got, err := parseSchedule(c.flag)
			if err != nil || got.Kind != c.want {
				t.Errorf("parseSchedule(%q) = %+v, %v; want kind %v", c.flag, got, err, c.want)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := parseSchedule("lagger"); err == nil {
			t.Error("parseSchedule accepted a schedule the batch CLI does not offer")
		}
	})
}

// TestNsLabel: latencies round to a precision that suits their magnitude.
func TestNsLabel(t *testing.T) {
	for _, c := range []struct {
		name string
		ns   int64
		want string
	}{
		{"nanoseconds", 1_234, "1.2µs"},
		{"milliseconds", 12_345_678, "12.35ms"},
		{"seconds", 2_345_678_901, "2.35s"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := nsLabel(c.ns); got != c.want {
				t.Errorf("nsLabel(%d) = %q, want %q", c.ns, got, c.want)
			}
		})
	}
}

// TestRunWorkload runs one small workload the way single-workload mode does,
// with a -tail ring and a -progress probe: the report describes the batch,
// the probe ends the batch complete with a zero ETA, the ring caught events
// and its drops reach the report. Configurations the CLI refuses return the
// usage code 2 without running.
func TestRunWorkload(t *testing.T) {
	const instances = 8
	prog := &obs.BatchProgress{}
	ring := obs.NewRing(16)
	opts := workloadOpts{
		schedule: consensus.Schedule{Kind: consensus.RandomSchedule},
		seed:     1,
		maxSteps: 1_000_000,
		b:        4,
		parallel: 2,
		prog:     prog,
	}
	r, res, base, code := runWorkload(workloadSpec{Alg: "bounded", N: 4, Instances: instances}, opts, ring)
	if code != 0 {
		t.Fatalf("runWorkload code = %d, want 0", code)
	}
	if r.Algorithm != "bounded" || r.N != 4 || r.Instances != instances || r.Parallel != 2 || r.Seed != 1 {
		t.Errorf("report header = %+v", r)
	}
	if r.Errors != 0 || res.ErrCount != 0 {
		t.Errorf("errors = %d (result %d), want 0", r.Errors, res.ErrCount)
	}
	if r.Substrate != consensus.SimulatedSubstrate.String() || r.Dispatch != "" {
		t.Errorf("substrate/dispatch = %q/%q, want simulated sequential", r.Substrate, r.Dispatch)
	}
	if s := r.Steps; s.Min <= 0 || s.Min > s.P50 || s.P50 > s.Max {
		t.Errorf("steps summary out of order: %+v", s)
	}
	if len(base.Inputs) != 4 || base.Inputs[0] != 0 || base.Inputs[1] != 1 {
		t.Errorf("base inputs = %v, want alternating 0,1", base.Inputs)
	}
	if s := prog.Snapshot(); s.Total != instances || s.Completed != instances || s.ETASec != 0 {
		t.Errorf("progress after the batch = %+v, want %d of %d with ETA 0", s, instances, instances)
	}
	if ring.Len() == 0 {
		t.Error("tail ring caught no events")
	}
	reconcileTailDrops(&r, ring)
	if r.Dropped != ring.Dropped() || r.Dropped == 0 {
		t.Errorf("report Dropped = %d, ring dropped %d; want equal and nonzero", r.Dropped, ring.Dropped())
	}

	for _, c := range []struct {
		name string
		ws   workloadSpec
	}{
		{"unknown-alg", workloadSpec{Alg: "paxos", N: 4, Instances: 1}},
		{"native-commuting", workloadSpec{Alg: "bounded", N: 4, Instances: 1, Substrate: "native", Dispatch: "commuting"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, _, code := runWorkload(c.ws, opts, nil); code != 2 {
				t.Errorf("runWorkload(%+v) code = %d, want 2", c.ws, code)
			}
		})
	}
}

// TestMatrixHelp: -matrix's help names every row group of matrixWorkloads
// with its process counts, and the row count.
func TestMatrixHelp(t *testing.T) {
	help := matrixHelp()
	for _, want := range []string{
		"27-row",
		"(bounded n=4,8,16,32; aspnes-herlihy n=4,8,16,32; bounded native n=4,8,16,32;",
		"; bounded commuting n=8,16,32; aspnes-herlihy commuting n=8,32;",
		"; bounded K=3 n=4; bounded K=4 n=4; bounded M=64 n=4,8; anonymous n=4,8)",
	} {
		if !strings.Contains(help, want) {
			t.Errorf("-matrix help %q lacks %q", help, want)
		}
	}
}
