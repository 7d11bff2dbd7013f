package strip

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShrinkBasics(t *testing.T) {
	cases := []struct {
		pos  []int
		k    int
		want []int
	}{
		{[]int{0}, 2, []int{0}},
		{[]int{0, 1}, 2, []int{0, 1}},
		{[]int{0, 3}, 2, []int{0, 2}},
		{[]int{3, 0}, 2, []int{2, 0}},
		{[]int{0, 5, 10}, 2, []int{0, 2, 4}},
		{[]int{7, 7, 7}, 3, []int{7, 7, 7}},
		{[]int{0, 2, 100}, 2, []int{0, 2, 4}},
		{[]int{5, 1, 9}, 3, []int{4, 1, 7}},
	}
	for _, c := range cases {
		got := Shrink(c.pos, c.k)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Shrink(%v, %d) = %v, want %v", c.pos, c.k, got, c.want)
				break
			}
		}
	}
}

func TestNormalizePutsMaxAtKN(t *testing.T) {
	pos := []int{0, 2, 4}
	got := Normalize(pos, 2) // K·n = 6
	want := []int{2, 4, 6}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", got, want)
		}
	}
}

func TestQuickShrinkInvariants(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		k := int(kRaw%5) + 1
		pos := make([]int, len(raw))
		for i, v := range raw {
			pos[i] = int(v % 1000)
		}
		s := Shrink(pos, k)
		// (a) gaps clamped to K
		if MaxGap(s) > k {
			return false
		}
		// (b) relative (weak) order preserved
		for i := range pos {
			for j := range pos {
				if pos[i] < pos[j] && s[i] >= s[j] {
					return false
				}
				if pos[i] == pos[j] && s[i] != s[j] {
					return false
				}
			}
		}
		// (c) minimal token unchanged
		minP, _ := Range(pos)
		minS, _ := Range(s)
		if minP != minS {
			return false
		}
		// (d) gaps already <= K are preserved exactly; shrink is idempotent
		s2 := Shrink(s, k)
		for i := range s {
			if s2[i] != s[i] {
				return false
			}
		}
		// (e) normalize then: all within [0..K·n] with max at K·n
		nrm := Normalize(s, k)
		lo, hi := Range(nrm)
		return lo >= 0 && hi == k*len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkPreservesSmallDistances(t *testing.T) {
	// Distances <= K between tokens must be preserved exactly (the paper:
	// "the distance between tokens that are less than K apart remains
	// unchanged").
	pos := []int{0, 1, 2, 50, 51}
	s := Shrink(pos, 2)
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}} {
		i, j := pair[0], pair[1]
		if s[j]-s[i] != pos[j]-pos[i] {
			t.Fatalf("distance (%d,%d) changed: %v -> %v", i, j, pos, s)
		}
	}
	if s[3]-s[2] != 2 {
		t.Fatalf("large gap not clamped to K: %v", s)
	}
}

func TestGameModes(t *testing.T) {
	if _, err := NewGame(0, 2, Raw); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewGame(2, 0, Raw); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := NewGame(2, 2, Mode(9)); err == nil {
		t.Fatal("expected error for bad mode")
	}
	for _, m := range []Mode{Raw, Shrunken, Normalized} {
		if m.String() == "" {
			t.Fatal("mode has empty name")
		}
	}
}

func TestRawGameGrowsUnbounded(t *testing.T) {
	g, err := NewGame(2, 2, Raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		g.Move(0)
	}
	if g.Pos[0] != 1000 {
		t.Fatalf("raw position = %d, want 1000", g.Pos[0])
	}
}

func TestNormalizedGameStaysBoundedForever(t *testing.T) {
	g, err := NewGame(4, 2, Normalized)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 20000; step++ {
		g.Move(rng.Intn(4))
		if err := g.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestShrunkenGameKeepsGapsBounded(t *testing.T) {
	g, err := NewGame(3, 3, Shrunken)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		g.Move(0) // one runaway token
		if err := g.Validate(); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	// Runaway token is exactly K ahead of the pack.
	if g.Pos[0]-g.Pos[1] != 3 || g.Pos[0]-g.Pos[2] != 3 {
		t.Fatalf("runaway token not clamped: %v", g.Pos)
	}
}

func TestMoveShrinksOtherPairsByAtMostK(t *testing.T) {
	// Non-passive shrinking: a move by token m never *increases* the distance
	// between two other tokens, and can decrease it by at most K (when m
	// vacates an intermediate position and the merged gap re-clamps — the
	// "pulling together" of processes the paper describes).
	const n, k = 5, 2
	g, err := NewGame(n, k, Normalized)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		m := rng.Intn(n)
		before := append([]int(nil), g.Pos...)
		g.Move(m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == m || j == m || i == j || before[i] < before[j] {
					continue
				}
				db := before[i] - before[j]
				da := g.Pos[i] - g.Pos[j]
				if da > db || da < db-k {
					t.Fatalf("step %d: move of %d changed distance (%d,%d) from %d to %d: %v -> %v",
						step, m, i, j, db, da, before, g.Pos)
				}
			}
		}
	}
}

func TestFromPositionsMatchesDefinition(t *testing.T) {
	g := FromPositions([]int{4, 1, 4, 0}, 2)
	if !g.Has[0][1] || g.W[0][1] != 2 { // diff 3 clamped to 2
		t.Fatalf("w(0,1) = %v/%d", g.Has[0][1], g.W[0][1])
	}
	if !g.Has[0][2] || !g.Has[2][0] || g.W[0][2] != 0 {
		t.Fatal("tie must create double zero edge")
	}
	if g.Has[3][0] {
		t.Fatal("edge must not point uphill")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistEqualsPositionDifferenceInShrunkenStates(t *testing.T) {
	// §4.2 property (5): for positions of a shrunken game, dist(i,j) is the
	// exact position difference (max paths pick up every intermediate gap).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g, err := NewGame(5, 2, Normalized)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 200; s++ {
			g.Move(rng.Intn(5))
		}
		gr := FromPositions(g.Pos, 2)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if i == j || g.Pos[i] < g.Pos[j] {
					continue
				}
				d, ok := gr.Dist(i, j)
				if !ok {
					t.Fatalf("no path %d->%d in %v", i, j, g.Pos)
				}
				if d != g.Pos[i]-g.Pos[j] {
					t.Fatalf("dist(%d,%d) = %d, want %d (pos %v)", i, j, d, g.Pos[i]-g.Pos[j], g.Pos)
				}
			}
		}
	}
}

func TestLeadersAreArgmax(t *testing.T) {
	gr := FromPositions([]int{3, 5, 5, 1}, 2)
	if gr.Leader(0) || gr.Leader(3) {
		t.Fatal("non-max nodes reported as leaders")
	}
	if !gr.Leader(1) || !gr.Leader(2) {
		t.Fatal("max nodes not leaders")
	}
	ls := gr.Leaders()
	if len(ls) != 2 || ls[0] != 1 || ls[1] != 2 {
		t.Fatalf("Leaders = %v, want [1 2]", ls)
	}
}

// TestClaim41GraphTracksGame is the paper's Claim 4.1: for the normalized
// shrunken token game, applying inc(i, G) to the distance graph after every
// move_token_i keeps it equal to the graph derived from the game's positions.
func TestClaim41GraphTracksGame(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, k := range []int{1, 2, 3} {
			rng := rand.New(rand.NewSource(int64(100*n + k)))
			game, err := NewGame(n, k, Normalized)
			if err != nil {
				t.Fatal(err)
			}
			gr := NewGraph(n, k)
			for step := 0; step < 600; step++ {
				i := rng.Intn(n)
				game.Move(i)
				gr.Inc(i)
				want := FromPositions(game.Pos, k)
				if !gr.Equal(want) {
					t.Fatalf("n=%d k=%d step %d: inc-graph diverged from game\npos=%v\ngot  Has=%v W=%v\nwant Has=%v W=%v",
						n, k, step, game.Pos, gr.Has, gr.W, want.Has, want.W)
				}
				if err := gr.Validate(); err != nil {
					t.Fatalf("n=%d k=%d step %d: %v", n, k, step, err)
				}
			}
		}
	}
}

// TestClaim41CountersTrackGame extends the equivalence down to the §4.3
// edge-counter representation: IncRow applied sequentially produces a counter
// matrix that decodes to the game's distance graph, with every counter in
// [0..3K).
func TestClaim41CountersTrackGame(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, k := range []int{1, 2, 3} {
			rng := rand.New(rand.NewSource(int64(999*n + k)))
			game, err := NewGame(n, k, Normalized)
			if err != nil {
				t.Fatal(err)
			}
			e := CounterMatrix(n)
			for step := 0; step < 600; step++ {
				i := rng.Intn(n)
				game.Move(i)
				row, err := IncRow(i, e, k)
				if err != nil {
					t.Fatalf("n=%d k=%d step %d: IncRow: %v", n, k, step, err)
				}
				e[i] = row
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						if e[a][b] < 0 || e[a][b] >= 3*k {
							t.Fatalf("counter e[%d][%d]=%d escapes [0..%d)", a, b, e[a][b], 3*k)
						}
					}
				}
				got, err := Decode(e, k)
				if err != nil {
					t.Fatalf("n=%d k=%d step %d: Decode: %v", n, k, step, err)
				}
				want := FromPositions(game.Pos, k)
				if !got.Equal(want) {
					t.Fatalf("n=%d k=%d step %d: counters diverged from game\npos=%v e=%v", n, k, step, game.Pos, e)
				}
			}
		}
	}
}

func TestIncMatchesIncRowOnRandomStates(t *testing.T) {
	// The abstract graph transformation and the counter-level transformation
	// must stay equivalent on arbitrary reachable states.
	rng := rand.New(rand.NewSource(5))
	const n, k = 4, 2
	game, _ := NewGame(n, k, Normalized)
	e := CounterMatrix(n)
	gr := NewGraph(n, k)
	for step := 0; step < 1500; step++ {
		i := rng.Intn(n)
		game.Move(i)
		gr.Inc(i)
		row, err := IncRow(i, e, k)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		e[i] = row
		dec, err := Decode(e, k)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !dec.Equal(gr) {
			t.Fatalf("step %d: decoded counters differ from abstract graph", step)
		}
	}
}

func TestMod3K(t *testing.T) {
	cases := []struct{ x, k, want int }{
		{0, 2, 0}, {5, 2, 5}, {6, 2, 0}, {7, 2, 1}, {-1, 2, 5}, {-7, 2, 5},
	}
	for _, c := range cases {
		if got := Mod3K(c.x, c.k); got != c.want {
			t.Errorf("Mod3K(%d,%d) = %d, want %d", c.x, c.k, got, c.want)
		}
	}
}

func TestEdgeFromCounters(t *testing.T) {
	// K=2, cycle size 6.
	hij, hji, wij, wji, err := EdgeFromCounters(0, 0, 2)
	if err != nil || !hij || !hji || wij != 0 || wji != 0 {
		t.Fatalf("tie decode wrong: %v %v %d %d %v", hij, hji, wij, wji, err)
	}
	hij, hji, wij, _, err = EdgeFromCounters(2, 0, 2)
	if err != nil || !hij || hji || wij != 2 {
		t.Fatalf("lead-by-2 decode wrong: %v %v %d %v", hij, hji, wij, err)
	}
	_, hji, _, wji, err = EdgeFromCounters(0, 1, 2)
	if err != nil || hji != true || wji != 1 {
		t.Fatalf("trail decode wrong: %v %d %v", hji, wji, err)
	}
	// Distance 3 both ways on a 6-cycle: ambiguous, illegal.
	if _, _, _, _, err := EdgeFromCounters(3, 0, 2); err == nil {
		t.Fatal("expected error for ambiguous counters")
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	g := FromPositions([]int{0, 1, 2}, 2)
	g.Has[0][1], g.Has[1][0] = false, false // orphan pair
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for missing edge")
	}
	g = FromPositions([]int{0, 1, 2}, 2)
	g.W[2][0] = 5 // weight beyond K
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for oversized weight")
	}
	g = FromPositions([]int{0, 1}, 2)
	g.Has[0][1] = true
	g.W[0][1] = 1
	g.W[1][0] = 1 // positive 2-cycle
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for positive cycle")
	}
}

// TestGraphValidateCatchesCycleThroughSource: a positive cycle through every
// node has no node off the cycle that reaches it, so only the check that
// closes each cycle at its own source sees it. This graph (0→1 weight 1,
// 0↔2 and 1↔2 ties, K=2) is the one the bounded strip publishes in the n=3
// stale-clamp counterexample.
func TestGraphValidateCatchesCycleThroughSource(t *testing.T) {
	g := NewGraph(3, 2) // all tied
	g.Has[1][0] = false
	g.W[0][1] = 1
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted the positive cycle 0→1→2→0")
	}
}

func TestGraphCloneIsDeep(t *testing.T) {
	g := FromPositions([]int{0, 3}, 2)
	c := g.Clone()
	c.W[1][0] = 0
	if g.W[1][0] == 0 {
		t.Fatal("Clone shares weight storage")
	}
	if !g.Clone().Equal(g) {
		t.Fatal("Clone not equal to original")
	}
}

func TestOnMaxPathToAnySubtlety(t *testing.T) {
	// pos [0,2,4], K=2: direct edge (2,0) has weight 2 but dist(2,0)=4 via
	// node 1, so (2,0) is on no maximum path; (1,0) and (2,1) are.
	g := FromPositions([]int{0, 2, 4}, 2)
	if g.OnMaxPathToAny(2, 0) {
		t.Fatal("(2,0) reported on a max path despite the longer route via 1")
	}
	if !g.OnMaxPathToAny(1, 0) || !g.OnMaxPathToAny(2, 1) {
		t.Fatal("true max-path edges not recognized")
	}
}

func TestQuickFromPositionsAlwaysValid(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		k := int(kRaw%4) + 1
		pos := make([]int, len(raw))
		for i, v := range raw {
			pos[i] = int(v % 30)
		}
		// Graphs are only guaranteed valid for shrunken states (otherwise
		// dist can exceed K·n); shrink first.
		return FromPositions(Shrink(pos, k), k).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeIntoMemoizesUnchangedCounters(t *testing.T) {
	// Re-decoding an unchanged counter matrix through the same scratch graph
	// must keep the cached longest-path table valid (the memo is the point:
	// a re-snapshot of quiescent counters costs one compare, not an O(n^3)
	// path recomputation) — and must still produce correct results after the
	// matrix actually moves.
	rng := rand.New(rand.NewSource(11))
	const n, k = 5, 2
	e := CounterMatrix(n)
	var g *Graph
	for step := 0; step < 400; step++ {
		var err error
		g, err = DecodeInto(g, e, k)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g.distances() // force the path table so the memo has something to keep
		g2, err := DecodeInto(g, e, k)
		if err != nil {
			t.Fatalf("step %d re-decode: %v", step, err)
		}
		if g2 != g {
			t.Fatalf("step %d: re-decode of unchanged counters reallocated the graph", step)
		}
		if !g2.distOK {
			t.Fatalf("step %d: re-decode of unchanged counters dropped the distance cache", step)
		}
		fresh, err := Decode(e, k)
		if err != nil {
			t.Fatalf("step %d fresh decode: %v", step, err)
		}
		if !g2.Equal(fresh) {
			t.Fatalf("step %d: memoized graph differs from fresh decode", step)
		}
		i := rng.Intn(n)
		row, err := IncRow(i, e, k)
		if err != nil {
			t.Fatalf("step %d inc: %v", step, err)
		}
		e[i] = row
	}
}

func TestGraphIncInvalidatesDecodeMemo(t *testing.T) {
	// Inc mutates the graph in place, so a subsequent DecodeInto with the old
	// matrix must not take the memo path and return the mutated graph.
	const n, k = 3, 2
	e := CounterMatrix(n)
	g, err := DecodeInto(nil, e, k)
	if err != nil {
		t.Fatal(err)
	}
	g.Inc(0)
	g2, err := DecodeInto(g, e, k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Decode(e, k)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(fresh) {
		t.Fatal("DecodeInto after Inc returned the mutated graph instead of re-decoding")
	}
}
