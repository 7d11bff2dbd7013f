package core

import (
	"fmt"
	"testing"

	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
	"github.com/dsrepro/consensus/internal/walk"
)

// edgeMatrix assembles the §4.3 counter matrix from a scanned view.
func edgeMatrix(view []Entry) [][]int {
	e := make([][]int, len(view))
	for i, ent := range view {
		e[i] = ent.Edge
	}
	return e
}

// decodeView decodes the distance graph from a scanned view.
func decodeView(view []Entry, k int) (*strip.Graph, error) {
	g, err := strip.Decode(edgeMatrix(view), k)
	if err != nil {
		return nil, fmt.Errorf("core: scanned view undecodable: %w", err)
	}
	return g, nil
}

// PeekEntry returns the current register value of process j without a
// scheduler step — a hook for protocol-aware ("strong") adversaries and
// metrics. Returns the zero entry if the memory implementation does not
// support peeking.
func (u *Unbounded) PeekEntry(j int) UEntry {
	if p, ok := u.mem.(interface{ PeekSlot(int) UEntry }); ok {
		return p.PeekSlot(j)
	}
	return UEntry{}
}

// Rounds returns how many distinct rounds have been flipped (a space
// accounting hook: the oracle's state grows with rounds).
func (o *Oracle) Rounds() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.bits)
}

func TestEntryCloneIsDeep(t *testing.T) {
	e := NewEntry(3, 2)
	c := e.Clone()
	c.Coin[0] = 9
	c.Edge[1] = 5
	if e.Coin[0] == 9 || e.Edge[1] == 5 {
		t.Fatal("Clone shares slice storage")
	}
	if e.Pref != Bottom {
		t.Fatalf("NewEntry Pref = %d, want Bottom", e.Pref)
	}
	if len(e.Coin) != 3 || len(e.Edge) != 3 {
		t.Fatalf("NewEntry sizes wrong: %+v", e)
	}
}

func TestUEntryCloneIsDeep(t *testing.T) {
	e := UEntry{Pref: 1, Round: 2, Strip: []int{1, 2}}
	c := e.Clone()
	c.Strip[0] = 99
	if e.Strip[0] == 99 {
		t.Fatal("UEntry.Clone shares strip storage")
	}
}

func TestNormalizeViewFillsUnwrittenSlots(t *testing.T) {
	view := make([]Entry, 3)
	view[1] = NewEntry(3, 2)
	view[1].Pref = 1
	normalizeView(view, 3, 2)
	if view[0].Pref != Bottom || view[2].Pref != Bottom {
		t.Fatal("unwritten slots must normalize to Bottom preference")
	}
	if view[1].Pref != 1 {
		t.Fatal("written slot must be preserved")
	}
	if len(view[0].Edge) != 3 || len(view[0].Coin) != 3 {
		t.Fatal("normalized slots must have full counter arrays")
	}
}

func TestNormalizeUViewBottomsRoundZero(t *testing.T) {
	view := []UEntry{{Pref: 0, Round: 0}, {Pref: 0, Round: 1}}
	normalizeUView(view)
	if view[0].Pref != Bottom {
		t.Fatal("round-0 slot must read as Bottom")
	}
	if view[1].Pref != 0 {
		t.Fatal("written slot must be preserved")
	}
}

func TestDisagreersTrailByK(t *testing.T) {
	const n, k = 3, 2
	view := []Entry{NewEntry(n, k), NewEntry(n, k), NewEntry(n, k)}
	view[0].Pref, view[1].Pref, view[2].Pref = 1, 0, 1
	g, err := decodeView(view, k)
	if err != nil {
		t.Fatal(err)
	}
	// All tied: the disagreeing process 1 does not trail.
	if disagreersTrailByK(view, g, 0, 1) {
		t.Fatal("tied disagreer must block the decision")
	}
	// Agreeing processes never block.
	view[1].Pref = 1
	if !disagreersTrailByK(view, g, 0, 1) {
		t.Fatal("unanimous preferences must allow the decision")
	}
	// Bottom counts as disagreeing.
	view[2].Pref = Bottom
	if disagreersTrailByK(view, g, 0, 1) {
		t.Fatal("Bottom at the same round must block the decision")
	}
}

func TestOracleIsConsistentPerRound(t *testing.T) {
	o := NewOracle()
	var first, second int8
	_, err := sched.Run(sched.Config{N: 2, Seed: 5}, func(p *sched.Proc) {
		if p.ID() == 0 {
			first = o.Flip(p, 7)
		} else {
			second = o.Flip(p, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("oracle gave different bits for one round: %d vs %d", first, second)
	}
	if o.Rounds() != 1 {
		t.Fatalf("oracle Rounds = %d, want 1", o.Rounds())
	}
	_, err = sched.Run(sched.Config{N: 1, Seed: 5}, func(p *sched.Proc) {
		o.Flip(p, 8)
		o.Flip(p, 9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Rounds() != 3 {
		t.Fatalf("oracle Rounds = %d, want 3", o.Rounds())
	}
}

func TestOutcomeBitMapping(t *testing.T) {
	if outcomeBit(walk.Heads) != 1 || outcomeBit(walk.Tails) != 0 {
		t.Fatal("outcomeBit mapping wrong")
	}
}

func TestAHPeekEntryReflectsWrites(t *testing.T) {
	proto, err := NewAHUnbounded(Config{N: 2, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := proto.PeekEntry(0); got.Round != 0 {
		t.Fatalf("initial PeekEntry round = %d", got.Round)
	}
	out, err := ExecuteProto(proto, ExecConfig{Inputs: []int{1, 1}, Seed: 1, MaxSteps: 10_000_000})
	if err != nil || out.Err != nil {
		t.Fatalf("run: %v / %v", err, out.Err)
	}
	if got := proto.PeekEntry(0); got.Round < 1 {
		t.Fatalf("PeekEntry after run: round %d, want >= 1", got.Round)
	}
}

func TestCoinParamsDerivedDefaults(t *testing.T) {
	proto, err := NewBounded(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	params := proto.coin.(*sharedCoin).params
	if params.B != 4 || params.N != 4 {
		t.Fatalf("params = %+v", params)
	}
	if params.M != params.DefaultM() {
		t.Fatalf("M = %d, want derived default %d", params.M, params.DefaultM())
	}
}

// TestBoundedSeqSnapMemoryAgreement exercises the bounded protocol over the
// unbounded-baseline snapshot to show the protocol is memory-implementation
// agnostic.
func TestBoundedSeqSnapMemoryAgreement(t *testing.T) {
	out, err := Execute(KindBounded, Config{B: 2, MemKind: scan.KindSeqSnap}, ExecConfig{
		Inputs: []int{0, 1, 1}, Seed: 6, Adversary: sched.NewRandom(2), MaxSteps: 50_000_000,
	})
	if err != nil || out.Err != nil {
		t.Fatalf("run: %v / %v", err, out.Err)
	}
	if _, err := out.Agreement(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedOverWaitFreeSnapshot runs the paper's protocol over the
// wait-free snapshot extension — the full stack with the strongest substrate.
func TestBoundedOverWaitFreeSnapshot(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		out, err := Execute(KindBounded, Config{B: 2, MemKind: scan.KindWaitFree}, ExecConfig{
			Inputs: []int{0, 1, 1}, Seed: seed, Adversary: sched.NewRandom(seed + 8), MaxSteps: 50_000_000,
		})
		if err != nil || out.Err != nil {
			t.Fatalf("seed %d: %v / %v", seed, err, out.Err)
		}
		if !out.AllDecided() {
			t.Fatalf("seed %d: not all decided", seed)
		}
		if _, err := out.Agreement(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
