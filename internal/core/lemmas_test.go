package core

import (
	"sync"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/vround"
)

// This file replays the §6 correctness lemmas on live executions of the
// bounded protocol: it records every scan (preferences + virtual rounds from
// the §6.1 tracker) and every preference-change event, then checks the
// lemmas offline.

type lemmaScan struct {
	step    int64
	prefs   []int8
	vrounds []int64
}

type lemmaAdopt struct {
	step   int64
	pid    int
	value  int8
	vround int64
	random bool // adopted from the shared coin (vs deterministically)
}

type lemmaTrace struct {
	scans  []lemmaScan
	adopts []lemmaAdopt
}

// recordLemmaTrace runs one bounded instance under the given adversary and
// collects the lemma-checking trace.
func recordLemmaTrace(t *testing.T, n int, inputs []int, seed int64, adv sched.Adversary) *lemmaTrace {
	t.Helper()
	proto, err := NewBounded(Config{N: n, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	tracker := vround.New(n, proto.Config().K)
	tr := &lemmaTrace{}
	var trErr error
	lastCoinDecided := make(map[int]int64) // pid -> step of latest core.coin

	proto.OnScan = func(pid int, view []Entry) {
		if trErr != nil {
			return
		}
		if err := tracker.Observe(edgeMatrix(view)); err != nil {
			trErr = err
			return
		}
		s := lemmaScan{prefs: make([]int8, n), vrounds: tracker.Rounds()}
		for j := range view {
			s.prefs[j] = view[j].Pref
		}
		tr.scans = append(tr.scans, s)
	}
	// Recorder calls are totally ordered (serialized startup + token
	// handoffs; see ExecConfig.Sink), so this lock is belt-and-braces only.
	var mu sync.Mutex
	rec := obs.FuncRecorder(func(e obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case obs.CoreCoin:
			lastCoinDecided[e.Pid] = 1 // latch: the next adoption is coin-driven
		case obs.CorePref:
			// (CoreStart is excluded: initial writes carry the processes'
			// inputs, which may legitimately differ — Lemma 6.7 is about
			// the selections made when entering later rounds.)
			val := Bottom
			if len(e.Detail) > 0 {
				switch e.Detail[len(e.Detail)-1] {
				case '0':
					val = 0
				case '1':
					val = 1
				}
			}
			if val == Bottom {
				return // withdrawal, not an adoption
			}
			tr.adopts = append(tr.adopts, lemmaAdopt{
				step:   e.Step,
				pid:    e.Pid,
				value:  val,
				vround: tracker.Round(e.Pid),
				random: lastCoinDecided[e.Pid] > 0,
			})
			lastCoinDecided[e.Pid] = 0 // consumed
		}
	})

	out, err := ExecuteProto(proto, ExecConfig{
		Inputs:    inputs,
		Seed:      seed,
		Adversary: adv,
		MaxSteps:  100_000_000,
		Sink:      obs.NewSink(rec),
	})
	if err == nil {
		err = out.Err
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if trErr != nil {
		t.Fatalf("trace: %v", trErr)
	}
	return tr
}

// TestLemma67DeterministicSelectionsAgree: all *deterministic* preference
// adoptions for one virtual round carry the same value (Lemma 6.7). Random
// (coin) adoptions may differ — that is the coin's weakness.
func TestLemma67DeterministicSelectionsAgree(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := recordLemmaTrace(t, 4, []int{0, 1, 0, 1}, seed, sched.NewRandom(seed*9+4))
		detValue := map[int64]int8{}
		for _, a := range tr.adopts {
			if a.random {
				continue
			}
			if v, ok := detValue[a.vround]; ok {
				if v != a.value {
					t.Fatalf("seed %d: deterministic selections for virtual round %d disagree: %d vs %d",
						seed, a.vround, v, a.value)
				}
			} else {
				detValue[a.vround] = a.value
			}
		}
	}
}

// TestLemma62UnanimityIsStable: Lemma 6.2 says that once no process prefers
// v̄ while round r is among the 2 largest, no process ever prefers v̄ at a
// round > r. We check the observable consequence: scanning the serialized
// snapshots, once a snapshot shows every non-Bottom preference equal to v
// with every process within K of the maximal virtual round, all later
// snapshots' non-Bottom preferences at rounds > that max equal v.
func TestLemma62UnanimityIsStable(t *testing.T) {
	const n, k = 4, 2
	for seed := int64(0); seed < 25; seed++ {
		tr := recordLemmaTrace(t, n, []int{1, 0, 1, 0}, seed, sched.NewRandom(seed*13+5))
		var lockVal int8 = Bottom
		var lockRound int64 = -1
		for si, s := range tr.scans {
			maxR := s.vrounds[0]
			for _, r := range s.vrounds[1:] {
				if r > maxR {
					maxR = r
				}
			}
			if lockVal != Bottom {
				for j := 0; j < n; j++ {
					if s.vrounds[j] > lockRound && s.prefs[j] != Bottom && s.prefs[j] != lockVal {
						t.Fatalf("seed %d scan %d: process %d prefers %d at virtual round %d after unanimity on %d at round %d",
							seed, si, j, s.prefs[j], s.vrounds[j], lockVal, lockRound)
					}
				}
				continue
			}
			// Detect unanimity among processes within K of the max round.
			var v int8 = Bottom
			unanimous := true
			for j := 0; j < n; j++ {
				if maxR-s.vrounds[j] >= int64(k) {
					continue // trailing processes don't count
				}
				if s.prefs[j] == Bottom {
					unanimous = false
					break
				}
				if v == Bottom {
					v = s.prefs[j]
				} else if v != s.prefs[j] {
					unanimous = false
					break
				}
			}
			if unanimous && v != Bottom {
				lockVal, lockRound = v, maxR
			}
		}
	}
}
