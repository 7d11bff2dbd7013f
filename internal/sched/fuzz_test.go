package sched

import "testing"

// FuzzCommutingGrant drives batch formation over fuzzer-chosen footprint
// tables and asserts the safety property the commuting policy rests on: the
// checker never admits a pair of steps with overlapping register footprints
// (same key with at least one write, or any undeclared non-leader step).
func FuzzCommutingGrant(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add([]byte{1, 1, 1, 1}, uint8(2))
	f.Add([]byte{0x80, 0x81, 0x02, 0x83, 0x04}, uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, leaderByte uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		n := len(raw)
		if n == 0 {
			return
		}
		// One byte per process: low 7 bits pick the key (0 = undeclared, a
		// small key space to force collisions), high bit is the write flag.
		fps := make([]Footprint, n)
		cands := make([]int, n)
		for i, b := range raw {
			fps[i] = Footprint{Key: int64(b & 0x7F % 5), Write: b&0x80 != 0}
			cands[i] = i
		}
		leader := int(leaderByte) % n
		set := BuildCommutingSet(leader, cands, fps, func(int) bool { return true }, nil)
		if len(set) == 0 || set[0] != leader {
			t.Fatalf("leader %d not first in %v", leader, set)
		}
		if err := VerifyCommutingSet(set, fps); err != nil {
			t.Fatalf("checker rejected its own formed set %v: %v", set, err)
		}
		seen := make(map[int]bool, len(set))
		for x, a := range set {
			if seen[a] {
				t.Fatalf("pid %d admitted twice in %v", a, set)
			}
			seen[a] = true
			if a != leader && !fps[a].Declared() {
				t.Fatalf("undeclared pid %d admitted as non-leader in %v", a, set)
			}
			for _, b := range set[x+1:] {
				fa, fb := fps[a], fps[b]
				if fa.Declared() && fb.Declared() && fa.Key == fb.Key && (fa.Write || fb.Write) {
					t.Fatalf("overlapping footprints admitted: pids %d,%d (%+v vs %+v) in %v",
						a, b, fa, fb, set)
				}
			}
		}
	})
}
