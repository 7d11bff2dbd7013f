package sched

import (
	"fmt"
	"sync/atomic"
)

// This file defines the commutation classes behind the commuting grant
// policy (see commute.go and DESIGN.md §16). Every atomic step either
// declares the single shared-memory cell it is about to touch — a Footprint —
// or stays undeclared. Two declared steps commute when they cannot observe
// each other: they touch distinct cells, or both only read the same cell.
// Undeclared steps commute with nothing, so any step the register layer has
// not been taught about degrades safely to fully sequential dispatch.

// Footprint declares the shared-memory cell a process's next atomic step will
// touch and whether it writes it. The zero Footprint is "undeclared": the
// step's effect is unknown and it conflicts with every other step.
type Footprint struct {
	Key   int64 // register identity from NewFootprintKey; 0 = undeclared
	Write bool
}

// Declared reports whether the footprint names a register.
func (f Footprint) Declared() bool { return f.Key != 0 }

// fpKeys allocates register identities. Key 0 is reserved for "undeclared".
var fpKeys atomic.Int64

// NewFootprintKey returns a fresh process-wide unique register identity.
// Register implementations call it once per cell at construction time.
func NewFootprintKey() int64 { return fpKeys.Add(1) }

// Commutes reports whether two steps with footprints a and b may be admitted
// to the same commuting grant set: both must be declared, and they must
// either touch distinct registers or both read the same one. Read/write and
// write/write pairs on one cell do not commute — their serialization order is
// observable.
func Commutes(a, b Footprint) bool {
	if !a.Declared() || !b.Declared() {
		return false
	}
	return a.Key != b.Key || (!a.Write && !b.Write)
}

// VerifyCommutingSet is the commutation-class checker: it re-validates an
// admitted grant set against the pairwise Commutes relation and returns an
// error naming the first conflicting pair. The commuting policy runs it on
// every batch it forms (O(k²), k ≤ n), so a bug in batch formation can never
// silently admit a conflicting pair; the FuzzCommutingGrant target drives the
// same checker over random footprint sets.
func VerifyCommutingSet(members []int, fps []Footprint) error {
	for x := 0; x < len(members); x++ {
		for y := x + 1; y < len(members); y++ {
			a, b := members[x], members[y]
			if !Commutes(fps[a], fps[b]) {
				return fmt.Errorf("sched: steps of pids %d and %d do not commute (%+v vs %+v)",
					a, b, fps[a], fps[b])
			}
		}
	}
	return nil
}

// BuildCommutingSet forms one batch's grant set: the adversary-picked leader
// first, then every eligible candidate (candidates is sorted ascending, so
// admission order is deterministic) whose declared footprint commutes with
// every member admitted so far. The leader is always admitted — even with an
// undeclared footprint, in which case the set stays a singleton — so every
// batch makes progress. out is reused as the backing slice.
func BuildCommutingSet(leader int, candidates []int, fps []Footprint, eligible func(pid int) bool, out []int) []int {
	out = append(out[:0], leader)
	if eligible == nil {
		return out
	}
	for _, pid := range candidates {
		if pid == leader || !fps[pid].Declared() || !eligible(pid) {
			continue
		}
		ok := true
		for _, m := range out {
			if !Commutes(fps[pid], fps[m]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, pid)
		}
	}
	return out
}

// Extender is an optional Adversary capability consulted by the commuting
// policy. Eligible reports whether pid may receive engine-chosen grants at
// the given global step count: admission to a commuting batch behind the
// adversary's leader pick, and run-coalescing extensions of a granted step.
// Adversaries whose semantics forbid granting some process (a crashed pid, a
// lagger's victim) return false for it; adversaries that do not implement
// Extender get strictly sequential dispatch (singleton batches, no
// extensions), which preserves their exact grant sequence.
type Extender interface {
	Eligible(pid int, step int64) bool
}
