// Package core implements the paper's §5 consensus protocol — bounded
// polynomial randomized consensus — together with the baselines used by the
// experiments, covering the design matrix of §1: a round structure crossed
// with a conflict coin.
//
// There are two round structures, each one decide/adopt/withdraw loop that
// hands only the conflict step (the paper's lines 7-8) to its coin:
//
//   - Bounded: preferences plus the bounded rounds strip (K+1 cyclic coin
//     slots and n mod-3K edge counters per process) in scannable memory.
//   - Unbounded: preferences plus explicit, unbounded round numbers.
//
// The constructors pick the coin:
//
//	                 local flips (exp. time)  shared coin (poly. time)  atomic coin
//	bounded strip    NewExpLocal [ADS89]      NewBounded (this paper)   —
//	explicit rounds  NewAbrahamson [A88]      NewAHUnbounded [AH88]     NewStrongCoin [CIL87]
//
// NewBounded's coin is the bounded weak shared coin (§3), NewAHUnbounded's an
// unbounded random walk per round kept in an unbounded strip of counters, and
// NewStrongCoin's the Oracle, one common random bit per round. Anonymous, in
// anonymous.go, is the one protocol outside the matrix.
//
// All protocols run on the sched/scan substrate, decide by the same
// leader-and-laggards rule, and expose step/round/space metrics. The paper's
// protocol additionally supports the footnote-5 FastDecide speedup.
package core

import "github.com/dsrepro/consensus/internal/strip"

// Pref values. Bottom is the paper's ⊥ ("undecided preference").
const (
	Bottom int8 = -1
)

// Entry is the register value of one process in the bounded protocol: its
// preference plus the paper's round structure (§5) — the cyclic coin-counter
// strip and the edge-counter row of the bounded rounds graph.
//
// Entries are immutable once written to scannable memory: every mutation goes
// through Clone, and readers must not modify the slices they observe.
type Entry struct {
	// Pref is the process's preferred value: 0, 1 or Bottom.
	Pref int8
	// CurrentCoin is the cyclic pointer into Coin, in [0..K].
	CurrentCoin int
	// Coin holds the process's contributions to the K+1 latest shared coins,
	// each bounded in {-(M+1)..M+1}.
	Coin []int
	// Edge is the process's row of the §4.3 edge-counter matrix, each counter
	// in [0..3K).
	Edge []int
	// Decided marks an entry written by a process that has decided Pref and
	// halted. It is used only by the FastDecide optimization (the paper's
	// footnote 5 notes such speedups exist); the base protocol ignores it.
	Decided bool
}

// NewEntry returns the initial entry for a protocol instance with n
// processes and round constant k: Bottom preference, zeroed counters.
func NewEntry(n, k int) Entry {
	return Entry{
		Pref: Bottom,
		Coin: make([]int, k+1),
		Edge: make([]int, n),
	}
}

// Clone returns a deep copy safe to mutate.
func (e Entry) Clone() Entry {
	e.Coin = append([]int(nil), e.Coin...)
	e.Edge = append([]int(nil), e.Edge...)
	return e
}

// CloneCoin returns a copy whose Coin strip is freshly allocated but whose
// Edge row is shared with the receiver. Sufficient for mutations that touch
// only the coin strip (flip_next_coin) or replace Edge wholesale with a fresh
// row (inc): published entries never have their Edge mutated in place, so
// sharing it preserves immutability while halving the copy per mutation.
func (e Entry) CloneCoin() Entry {
	e.Coin = append([]int(nil), e.Coin...)
	return e
}

// next is the paper's next(current_coin): the cyclic successor pointer.
func next(cur, k int) int { return (cur + 1) % (k + 1) }

// coinSlot returns the index of the coin counter a process w rounds ahead of
// the reader uses for the reader's current round: (current_coin + 1 - w) mod
// (K+1). With w = 0 this is the process's own current coin slot.
func coinSlot(cur, w, k int) int {
	return ((cur+1-w)%(k+1) + (k + 1)) % (k + 1)
}

// normalizeView replaces zero-value entries (slots whose process has not yet
// performed its first write) with the explicit initial entry: Bottom
// preference, zeroed counters. Without this, an unwritten slot's zero Pref
// would read as a genuine preference for 0.
func normalizeView(view []Entry, n, k int) {
	for j := range view {
		if view[j].Coin == nil {
			view[j] = NewEntry(n, k)
		}
	}
}

// normalizeUView does the same for the unbounded protocols: a slot at round 0
// has not been written and must carry a Bottom preference.
func normalizeUView(view []UEntry) {
	for j := range view {
		if view[j].Round == 0 {
			view[j].Pref = Bottom
		}
	}
}

// leadersAgree reports whether every leader in g holds the same non-Bottom
// preference, and that preference.
func leadersAgree(view []Entry, g *strip.Graph) (int8, bool) {
	var v int8 = Bottom
	for i := range view {
		if !g.Leader(i) {
			continue
		}
		p := view[i].Pref
		if p == Bottom {
			return Bottom, false
		}
		if v == Bottom {
			v = p
		} else if v != p {
			return Bottom, false
		}
	}
	return v, v != Bottom
}

// disagreersTrailByK reports the paper's decision guard for process i with
// preference pref: every process whose preference differs (including Bottom)
// is at distance >= K behind i in the rounds graph.
func disagreersTrailByK(view []Entry, g *strip.Graph, i int, pref int8) bool {
	for j := range view {
		if j == i || view[j].Pref == pref {
			continue
		}
		d, ok := g.Dist(i, j)
		if !ok || d < g.K {
			return false
		}
	}
	return true
}
