package core

import (
	"errors"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/sched"
)

// TestCutShortRunsPublishCounts pins the run-local sink view's flush on the
// early exits: a run stopped by the step budget or stalled by crashes still
// publishes every count it made, the monitor's included.
func TestCutShortRunsPublishCounts(t *testing.T) {
	allCrash := map[int]int64{0: 40, 1: 40, 2: 40, 3: 40}
	for _, c := range []struct {
		name     string
		adv      sched.Adversary
		maxSteps int64
		want     error
	}{
		{"budget", sched.NewRandom(1), 60, sched.ErrStepBudget},
		{"stall", sched.NewCrash(sched.NewRandom(1), allCrash), 0, sched.ErrStalled},
	} {
		sink := obs.NewSink(nil)
		mon := audit.New(audit.Options{})
		out, err := Execute(KindBounded, Config{}, ExecConfig{
			Inputs: []int{0, 1, 1, 0}, Seed: 1, Adversary: c.adv, MaxSteps: c.maxSteps,
			Sink: sink, Monitor: mon,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !errors.Is(out.Err, c.want) {
			t.Fatalf("%s: run error %v, want %v", c.name, out.Err, c.want)
		}
		reg := sink.Registry()
		if got := reg.KindCount(obs.SchedGrant); got != out.Sched.Steps {
			t.Errorf("%s: sched.grant = %d, want the run's %d steps", c.name, got, out.Sched.Steps)
		}
		if reg.KindCount(obs.RegSWMRRead) == 0 || reg.KindCount(obs.Reg2WWrite) == 0 {
			t.Errorf("%s: register counts missing: %v", c.name, reg.Snapshot().Counters)
		}
		if got, want := reg.KindCount(obs.AuditViolation), mon.TotalViolations(); got != want {
			t.Errorf("%s: audit.violation = %d, monitor counted %d", c.name, got, want)
		}
		// The budget probe fires in EndOfInstance, after the run itself.
		if c.want == sched.ErrStepBudget && mon.ViolationCount(audit.ProbeBudget) == 0 {
			t.Errorf("%s: the budget probe did not fire", c.name)
		}
	}
}

// TestFiredProbeReachesRegistry runs AH-unbounded under the scan.torn
// mutation, whose torn double collects the scan-handshake probe catches
// mid-run: the violations and their flight dumps reach the registry once
// the run-local view is flushed.
func TestFiredProbeReachesRegistry(t *testing.T) {
	if err := audit.EnableMutation("scan.torn"); err != nil {
		t.Fatal(err)
	}
	defer audit.DisableAll()
	sink := obs.NewSink(nil)
	mon := audit.New(audit.Options{SampleEvery: 1})
	out, err := Execute(KindAHUnbounded, Config{}, ExecConfig{
		Inputs: []int{0, 1, 1, 0}, Seed: 1, Adversary: sched.NewRandom(1),
		MaxSteps: StepBudget(KindAHUnbounded, 4), Sink: sink, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mon.ViolationCount(audit.ProbeScanHandshake) == 0 {
		t.Fatalf("scan.torn fired no scan.handshake violation (run error %v)", out.Err)
	}
	reg := sink.Registry()
	if got, want := reg.KindCount(obs.AuditViolation), mon.TotalViolations(); got != want {
		t.Errorf("audit.violation = %d, monitor counted %d", got, want)
	}
	if got, want := reg.KindCount(obs.FlightDump), int64(len(mon.Dumps())); got == 0 || got != want {
		t.Errorf("audit.flight_dump = %d, monitor kept %d dumps", got, want)
	}
}

// TestPooledRunsCountOnce runs two instances through one Arena: the second
// run reuses the first's run-local view, and each run's counts reach the
// shared registry exactly once.
func TestPooledRunsCountOnce(t *testing.T) {
	sink := obs.NewSink(nil)
	arena := NewArena()
	cfg := Config{N: 4}
	var steps int64
	var view *obs.Sink
	for seed := int64(1); seed <= 2; seed++ {
		proto, err := arena.Protocol(KindBounded, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ExecuteProto(proto, ExecConfig{
			Inputs: []int{0, 1, 1, 0}, Seed: seed, Adversary: sched.NewRandom(seed), Sink: sink,
		})
		if err != nil || out.Err != nil {
			t.Fatalf("seed %d: %v %v", seed, err, out.Err)
		}
		steps += out.Sched.Steps
		if seed == 1 {
			view = proto.installed().sink
		} else if proto.installed().sink != view {
			t.Error("the pooled instance did not reuse its run-local view")
		}
	}
	if got := sink.Registry().KindCount(obs.SchedGrant); got != steps {
		t.Errorf("sched.grant = %d over two runs, want %d", got, steps)
	}
}
