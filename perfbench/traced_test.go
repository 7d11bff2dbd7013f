package main

import (
	"testing"
	"time"

	"github.com/dsrepro/consensus/internal/sched"
)

// plainAdv is an adversary without sched.Extender.
type plainAdv struct{}

func (plainAdv) Next(waiting []int, _ int64) int { return waiting[0] }

// vetoAdv is an Extender that vetoes pid 1.
type vetoAdv struct{ plainAdv }

func (vetoAdv) Eligible(pid int, _ int64) bool { return pid != 1 }

func TestWrapAdversaryForwardsExtender(t *testing.T) {
	adv, _ := wrapAdversary(vetoAdv{})
	ext, ok := adv.(sched.Extender)
	if !ok {
		t.Fatal("wrapping an Extender lost the Extender capability")
	}
	if !ext.Eligible(0, 5) || ext.Eligible(1, 5) {
		t.Error("Eligible not forwarded to the wrapped adversary")
	}
	plain, _ := wrapAdversary(plainAdv{})
	if _, ok := plain.(sched.Extender); ok {
		t.Error("wrapping a plain adversary added an Extender the engine would batch behind")
	}
}

// TestWrappedCommutingRunIsUnchanged runs the commuting engine with and
// without the timing wrapper and compares the grant sequences: forwarding
// Eligible must leave the schedule identical.
func TestWrappedCommutingRunIsUnchanged(t *testing.T) {
	grants := func(wrap bool) ([]int, int64) {
		var seq []int
		var counter *countingAdv
		adv := sched.NewRandom(7)
		if wrap {
			adv, counter = wrapAdversary(adv)
		}
		cfg := sched.Config{N: 4, Adversary: adv, Commuting: true,
			OnStep: func(pid int, _ int64) { seq = append(seq, pid) }}
		if _, err := sched.Run(cfg, func(p *sched.Proc) {
			for i := 0; i < 50; i++ {
				p.DeclareRead(int64(1 + p.ID()))
				p.Step()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if counter == nil {
			return seq, 0
		}
		return seq, counter.consults
	}
	plain, _ := grants(false)
	wrapped, consults := grants(true)
	if len(plain) != len(wrapped) {
		t.Fatalf("wrapped run took %d steps, plain %d", len(wrapped), len(plain))
	}
	for i := range plain {
		if plain[i] != wrapped[i] {
			t.Fatalf("grant %d: wrapped pid %d, plain pid %d", i, wrapped[i], plain[i])
		}
	}
	if consults == 0 || consults >= int64(len(plain)) {
		t.Errorf("%d consults for %d commuting steps: batching did not happen behind the wrapper", consults, len(plain))
	}
}

// TestTimingSubstrateGaps checks the grant-gap accounting on a round-robin
// run of two processes, where every grant after the first hands the token
// over, and on a solo run, where none does.
func TestTimingSubstrateGaps(t *testing.T) {
	for _, c := range []struct {
		n         int
		wantCross bool
	}{{2, true}, {1, false}} {
		sub := &timingSubstrate{inner: sched.Simulated(), clk: clock{epoch: time.Now()}}
		cfg := sched.Config{N: c.n, Adversary: sched.NewRoundRobin()}
		res, err := sub.Run(cfg, func(p *sched.Proc) {
			for i := 0; i < 10; i++ {
				p.Step()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		g := sub.gaps
		if got := g.selfN + g.crossN; got != res.Steps-1 {
			t.Errorf("n=%d: %d gaps for %d grants, want one per grant after the first", c.n, got, res.Steps)
		}
		if c.wantCross && g.crossN != res.Steps-2 {
			t.Errorf("n=%d: %d cross gaps, want %d", c.n, g.crossN, res.Steps-2)
		}
		if !c.wantCross && g.crossN != 0 {
			t.Errorf("n=%d: %d cross gaps on a solo run", c.n, g.crossN)
		}
		if sub.end < sub.start {
			t.Errorf("n=%d: run span ends before it starts", c.n)
		}
	}
}
