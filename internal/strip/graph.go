package strip

import "fmt"

// Graph is the paper's §4.2 distance graph G(S): a directed weighted graph
// with one node per token. Edge (i,j) means token i's round is >= token j's;
// its weight is the round difference clamped to K. Both (i,j) and (j,i) are
// present exactly when the difference is zero (both weight 0).
type Graph struct {
	N, K int
	Has  [][]bool
	W    [][]int

	// dist is the lazily computed all-pairs longest-path table. The buffer is
	// kept across invalidations (distOK gates validity) so a graph reused as
	// decode scratch (DecodeInto) does not reallocate it on every recompute.
	dist   [][]int
	distOK bool

	// lastE mirrors the counter matrix the current Has/W were decoded from
	// (lastEOK gates validity). DecodeInto compares against it to skip
	// re-decoding — and, crucially, re-invalidating the distance table —
	// when a process re-snapshots counters that have not moved. Like dist,
	// the buffer survives invalidation.
	lastE   [][]int
	lastEOK bool
}

// NewGraph returns the graph of the initial state: all tokens tied at the
// same position (all edges present with weight zero).
func NewGraph(n, k int) *Graph {
	g := &Graph{N: n, K: k, Has: make([][]bool, n), W: make([][]int, n)}
	for i := 0; i < n; i++ {
		g.Has[i] = make([]bool, n)
		g.W[i] = make([]int, n)
		for j := 0; j < n; j++ {
			g.Has[i][j] = i != j
		}
	}
	return g
}

// FromPositions builds the distance graph of a position vector: for every
// ordered pair with pos[i] >= pos[j], edge (i,j) with weight
// min(pos[i]-pos[j], K).
func FromPositions(pos []int, k int) *Graph {
	n := len(pos)
	g := NewGraph(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := pos[i] - pos[j]
			switch {
			case d > 0:
				g.Has[i][j], g.Has[j][i] = true, false
				w := d
				if w > k {
					w = k
				}
				g.W[i][j], g.W[j][i] = w, 0
			case d == 0:
				g.Has[i][j] = true
				g.W[i][j] = 0
			}
		}
	}
	return g
}

// invalidate drops the cached distance table and the decode memo after a
// mutation (the buffers are retained for the next recompute).
func (g *Graph) invalidate() {
	g.distOK = false
	g.lastEOK = false
}

// sameCounters reports whether the decode memo is valid and matches e on
// every off-diagonal entry (the diagonal is ignored by decoding).
func (g *Graph) sameCounters(e [][]int) bool {
	if !g.lastEOK || len(g.lastE) != len(e) {
		return false
	}
	for i := range e {
		for j, v := range e[i] {
			if j != i && g.lastE[i][j] != v {
				return false
			}
		}
	}
	return true
}

// noteCounters records e as the matrix the current Has/W were decoded from.
func (g *Graph) noteCounters(e [][]int) {
	if len(g.lastE) != len(e) {
		g.lastE = make([][]int, len(e))
		for i := range e {
			g.lastE[i] = make([]int, len(e[i]))
		}
	}
	for i := range e {
		copy(g.lastE[i], e[i])
	}
	g.lastEOK = true
}

// distances computes (and caches) all-pairs longest-path weights. Graphs
// derived from legal states have no positive cycles (§4.2 property 2), so a
// Bellman–Ford style relaxation over n rounds converges. dist[i][j] = -1
// means no directed path from i to j; dist[i][i] = 0.
func (g *Graph) distances() [][]int {
	if g.distOK {
		return g.dist
	}
	n := g.N
	d := g.dist
	if len(d) != n {
		d = make([][]int, n)
		for i := 0; i < n; i++ {
			d[i] = make([]int, n)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = -1
			} else {
				d[i][j] = 0
			}
		}
	}
	for round := 0; round < n; round++ {
		changed := false
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || !g.Has[u][v] {
					continue
				}
				for s := 0; s < n; s++ {
					if d[s][u] < 0 || s == v {
						continue
					}
					if cand := d[s][u] + g.W[u][v]; cand > d[s][v] {
						d[s][v] = cand
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	g.dist = d
	g.distOK = true
	return d
}

// Dist returns the paper's dist(i,j): the maximum total weight over directed
// paths from i to j, and whether any such path exists. Dist(i,i) is (0,true).
func (g *Graph) Dist(i, j int) (int, bool) {
	d := g.distances()[i][j]
	return d, d >= 0
}

// OnMaxPathToAny reports whether edge (j,i) lies on some maximum-weight path
// from any node k to i — the condition guarding the decrement in inc(i, G).
// Since k = j is allowed (with dist(j,j) = 0), a direct edge that itself
// realizes dist(j,i) always qualifies.
func (g *Graph) OnMaxPathToAny(j, i int) bool {
	if !g.Has[j][i] {
		return false
	}
	d := g.distances()
	for k := 0; k < g.N; k++ {
		if k == i {
			continue
		}
		if d[k][j] >= 0 && d[k][i] >= 0 && d[k][j]+g.W[j][i] == d[k][i] {
			return true
		}
	}
	return false
}

// Leader reports whether node i dominates: (i,j) ∈ G for every j (i's round
// is >= every other round). Several nodes can be leaders simultaneously
// (ties).
func (g *Graph) Leader(i int) bool {
	for j := 0; j < g.N; j++ {
		if j != i && !g.Has[i][j] {
			return false
		}
	}
	return true
}

// Leaders returns all leader nodes.
func (g *Graph) Leaders() []int {
	var out []int
	for i := 0; i < g.N; i++ {
		if g.Leader(i) {
			out = append(out, i)
		}
	}
	return out
}

// Inc applies the paper's abstract transformation inc(i, G): the graph-level
// image of token i advancing one round in the normalized shrunken game
// (Claim 4.1).
func (g *Graph) Inc(i int) {
	// Evaluate all guard conditions against the pre-state before mutating.
	dec := make([]bool, g.N)
	inc := make([]bool, g.N)
	for j := 0; j < g.N; j++ {
		if j == i {
			continue
		}
		dec[j] = g.Has[j][i] && g.OnMaxPathToAny(j, i)
		inc[j] = g.Has[i][j] && g.W[i][j] < g.K
	}
	for j := 0; j < g.N; j++ {
		if j == i {
			continue
		}
		if dec[j] {
			g.W[j][i]--
		}
		if inc[j] {
			g.W[i][j]++
		}
		if g.Has[j][i] && g.W[j][i] < 0 {
			g.Has[j][i] = false
			g.Has[i][j] = true
			g.W[i][j] = -g.W[j][i]
			g.W[j][i] = 0
		}
		// A catch-up that lands exactly on zero creates the tie double-edge.
		if g.Has[j][i] && g.W[j][i] == 0 && !g.Has[i][j] {
			g.Has[i][j] = true
			g.W[i][j] = 0
		}
	}
	g.invalidate()
}

// Equal reports structural equality of two graphs.
func (g *Graph) Equal(o *Graph) bool {
	if g.N != o.N || g.K != o.K {
		return false
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if g.Has[i][j] != o.Has[i][j] {
				return false
			}
			if g.Has[i][j] && g.W[i][j] != o.W[i][j] {
				return false
			}
		}
	}
	return true
}

// Validate checks the §4.2 distance-graph properties:
//
//	(1) for any i,j at least one of (i,j),(j,i) exists; both iff both weigh 0;
//	(2) no positive cycles;
//	(3) all path weights within [0 .. K·n];
//	(5) weights within [0 .. K].
//
// (Property (4) is existential over path pairs and is exercised separately in
// tests.)
func (g *Graph) Validate() error {
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			hij, hji := g.Has[i][j], g.Has[j][i]
			if !hij && !hji {
				return fmt.Errorf("strip: no edge between %d and %d", i, j)
			}
			if hij && hji && (g.W[i][j] != 0 || g.W[j][i] != 0) {
				return fmt.Errorf("strip: double edge %d<->%d with nonzero weight (%d,%d)", i, j, g.W[i][j], g.W[j][i])
			}
		}
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if g.Has[i][j] && (g.W[i][j] < 0 || g.W[i][j] > g.K) {
				return fmt.Errorf("strip: weight w(%d,%d)=%d outside [0..%d]", i, j, g.W[i][j], g.K)
			}
		}
	}
	// Positive cycle detection: a positive cycle would let dist exceed K·n·n
	// during relaxation; simpler and exact — run one extra relaxation round
	// and see whether anything still improves.
	d := g.distances()
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if u == v || !g.Has[u][v] {
				continue
			}
			for s := 0; s < g.N; s++ {
				if s == v || d[s][u] < 0 {
					continue
				}
				if d[s][u]+g.W[u][v] > d[s][v] {
					return fmt.Errorf("strip: positive cycle detected via edge (%d,%d)", u, v)
				}
			}
		}
	}
	// The pass above skips s == v, and distances() never relaxes d[v][v], so
	// a positive cycle through v that no node off it reaches passes it. Such
	// a cycle closes with an edge (u,v) whose weight, added to the longest
	// path from v to u, exceeds dist(v,v) = 0.
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if u != v && g.Has[u][v] && d[v][u] >= 0 && d[v][u]+g.W[u][v] > 0 {
				return fmt.Errorf("strip: positive cycle through %d closed by edge (%d,%d)", v, u, v)
			}
		}
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if d[i][j] > g.K*g.N {
				return fmt.Errorf("strip: dist(%d,%d)=%d exceeds K·n=%d", i, j, d[i][j], g.K*g.N)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the graph (without the distance cache).
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N, K: g.K, Has: make([][]bool, g.N), W: make([][]int, g.N)}
	for i := 0; i < g.N; i++ {
		c.Has[i] = append([]bool(nil), g.Has[i]...)
		c.W[i] = append([]int(nil), g.W[i]...)
	}
	return c
}
