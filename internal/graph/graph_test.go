package graph

import (
	"math/rand"
	"testing"
)

func TestFindCycle(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	if g.FindCycle() != nil {
		t.Fatal("acyclic graph returned a cycle")
	}
	g.AddEdge("c", "b", 1)
	cyc := g.FindCycle()
	if len(cyc) == 0 {
		t.Fatal("cycle not found")
	}
	for i := range cyc {
		if !g.HasEdge(cyc[i], cyc[(i+1)%len(cyc)]) {
			t.Fatalf("witness %v not a cycle", cyc)
		}
	}
}

func TestSCCs(t *testing.T) {
	g := NewDigraph()
	// Two SCCs {a,b,c} and {d,e}, plus isolated f.
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("c", "a", 1)
	g.AddEdge("c", "d", 1)
	g.AddEdge("d", "e", 1)
	g.AddEdge("e", "d", 1)
	g.AddNode("f")
	comps := g.SCCs()
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("SCC sizes wrong: %v", comps)
	}
	nontrivial := g.NontrivialSCCs()
	if len(nontrivial) != 2 {
		t.Fatalf("nontrivial SCCs: %v", nontrivial)
	}
}

func TestSelfLoopSCC(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "a", 1)
	g.AddEdge("a", "b", 1)
	nt := g.NontrivialSCCs()
	if len(nt) != 1 || len(nt[0]) != 1 || nt[0][0] != "a" {
		t.Fatalf("self-loop SCC wrong: %v", nt)
	}
}

// without returns a copy of g without the given edges (matched by
// endpoints; weights are ignored).
func without(g *Digraph, edges []Edge) *Digraph {
	drop := make(map[[2]string]bool, len(edges))
	for _, e := range edges {
		drop[[2]string{e.From, e.To}] = true
	}
	out := NewDigraph()
	for _, n := range g.Nodes() {
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		if !drop[[2]string{e.From, e.To}] {
			out.AddEdge(e.From, e.To, e.Weight)
		}
	}
	return out
}

// colorOf returns the color c gives the node called name.
func colorOf(g *Undirected, c Coloring, name string) int {
	i, _ := g.adj.Universe().Index(name)
	return c.Color[i]
}

func fasWeight(g *Digraph, edges []Edge) int64 {
	var w int64
	for _, e := range edges {
		ew, ok := g.Weight(e.From, e.To)
		if !ok {
			panic("FAS edge not in graph")
		}
		w += ew
	}
	return w
}

func TestMinFASSimpleCycle(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b", 5)
	g.AddEdge("b", "a", 2)
	res := MinFeedbackArcSet(g)
	if res.TotalWeight != 2 || len(res.Edges) != 1 || res.Edges[0].From != "b" {
		t.Fatalf("FAS = %+v", res)
	}
	if !without(g, res.Edges).IsAcyclic() {
		t.Fatal("removal does not break the cycle")
	}
}

func TestMinFASSelfLoop(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "a", 7)
	g.AddEdge("a", "b", 1)
	res := MinFeedbackArcSet(g)
	if res.TotalWeight != 7 || len(res.Edges) != 1 {
		t.Fatalf("FAS = %+v", res)
	}
}

func TestMinFASTwoCyclesSharedEdge(t *testing.T) {
	// Cycles a->b->a and a->b->c->a share edge a->b: removing it
	// (weight 1) beats removing the two others (2+2).
	g := NewDigraph()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "a", 2)
	g.AddEdge("b", "c", 5)
	g.AddEdge("c", "a", 2)
	res := MinFeedbackArcSet(g)
	if res.TotalWeight != 1 || res.Edges[0] != (Edge{"a", "b", 1}) {
		t.Fatalf("FAS = %+v", res)
	}
}

func TestMinFASAcyclic(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	res := MinFeedbackArcSet(g)
	if len(res.Edges) != 0 || res.TotalWeight != 0 {
		t.Fatalf("acyclic graph got FAS %+v", res)
	}
}

func randDigraph(r *rand.Rand, n, edges int) *Digraph {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g := NewDigraph()
	for _, nm := range names {
		g.AddNode(nm)
	}
	for i := 0; i < edges; i++ {
		a, b := names[r.Intn(n)], names[r.Intn(n)]
		g.AddEdge(a, b, int64(1+r.Intn(9)))
	}
	return g
}

// TestFASAlwaysBreaksCycles: removal of the FAS leaves a DAG, for both
// the exact and the heuristic solver.
func TestFASAlwaysBreaksCycles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		g := randDigraph(r, 2+r.Intn(7), r.Intn(20))
		for _, res := range []FASResult{MinFeedbackArcSet(g), HeuristicFeedbackArcSet(g)} {
			if !without(g, res.Edges).IsAcyclic() {
				t.Fatalf("iteration %d: FAS %+v leaves a cycle in %v", i, res.Edges, g)
			}
		}
	}
}

// TestExactBeatsOrTiesHeuristic: the exact DP is never worse than the
// heuristic, and both report consistent weights.
func TestExactBeatsOrTiesHeuristic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		g := randDigraph(r, 2+r.Intn(8), r.Intn(24))
		exact := MinFeedbackArcSet(g)
		heur := HeuristicFeedbackArcSet(g)
		if fasWeight(g, exact.Edges) != exact.TotalWeight {
			t.Fatalf("exact weight accounting wrong: %+v", exact)
		}
		if exact.TotalWeight > heur.TotalWeight {
			t.Fatalf("exact %d worse than heuristic %d on %v",
				exact.TotalWeight, heur.TotalWeight, g)
		}
	}
}

// TestExactFASBruteForce cross-checks the DP against brute-force
// enumeration of all edge subsets on tiny graphs.
func TestExactFASBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		g := randDigraph(r, 2+r.Intn(4), r.Intn(9))
		edges := g.Edges()
		best := int64(1) << 60
		for mask := 0; mask < 1<<len(edges); mask++ {
			var sub []Edge
			var w int64
			for j, e := range edges {
				if mask&(1<<j) != 0 {
					sub = append(sub, e)
					w += e.Weight
				}
			}
			if w < best && without(g, sub).IsAcyclic() {
				best = w
			}
		}
		got := MinFeedbackArcSet(g)
		if got.TotalWeight != best {
			t.Fatalf("graph %v: DP weight %d, brute force %d", g, got.TotalWeight, best)
		}
	}
}

func TestColoringBasics(t *testing.T) {
	g := NewUndirected()
	if c := ColorMinimal(g); c.NumColors != 0 {
		t.Fatalf("empty graph colors = %d", c.NumColors)
	}
	g.AddNode("lonely")
	if c := ColorMinimal(g); c.NumColors != 1 {
		t.Fatalf("single node colors = %d", c.NumColors)
	}
	g.AddEdge("a", "b")
	if c := ColorMinimal(g); c.NumColors != 2 {
		t.Fatalf("edge colors = %d", c.NumColors)
	}
}

func TestColoringTriangleVsPath(t *testing.T) {
	tri := NewUndirected()
	tri.AddEdge("a", "b")
	tri.AddEdge("b", "c")
	tri.AddEdge("c", "a")
	if c := ColorMinimal(tri); c.NumColors != 3 {
		t.Fatalf("triangle colors = %d", c.NumColors)
	}
	path := NewUndirected()
	path.AddEdge("a", "b")
	path.AddEdge("b", "c")
	path.AddEdge("c", "d")
	if c := ColorMinimal(path); c.NumColors != 2 {
		t.Fatalf("path colors = %d", c.NumColors)
	}
}

func TestColoringBipartite(t *testing.T) {
	g := NewUndirected()
	// K(3,3) is 2-chromatic.
	for _, a := range []string{"a1", "a2", "a3"} {
		for _, b := range []string{"b1", "b2", "b3"} {
			g.AddEdge(a, b)
		}
	}
	c := ColorMinimal(g)
	if c.NumColors != 2 || !c.Exact {
		t.Fatalf("K33 colors = %+v", c)
	}
}

func TestColoringProper(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		g := NewUndirected()
		n := 2 + r.Intn(8)
		names := make([]string, n)
		for j := range names {
			names[j] = string(rune('a' + j))
			g.AddNode(names[j])
		}
		for e := 0; e < r.Intn(14); e++ {
			a, b := names[r.Intn(n)], names[r.Intn(n)]
			if a != b {
				g.AddEdge(a, b)
			}
		}
		c := ColorMinimal(g)
		for _, a := range g.Nodes() {
			for _, b := range g.Neighbors(a) {
				if colorOf(g, c, a) == colorOf(g, c, b) {
					t.Fatalf("improper coloring: %s and %s share color %d", a, b, colorOf(g, c, a))
				}
			}
		}
		if g.NumEdges() > 0 && c.NumColors < 2 {
			t.Fatalf("graph with edges colored with %d colors", c.NumColors)
		}
	}
}

func TestColoringSelfEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-edge should panic")
		}
	}()
	NewUndirected().AddEdge("a", "a")
}

// TestColoringExactBruteForce cross-checks ColorMinimal's chromatic
// number against exhaustive search on small random graphs.
func TestColoringExactBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 80; i++ {
		g := benchUndirected(2+r.Intn(6), r.Intn(10), r.Int63())
		got := ColorMinimal(g)
		want := bruteChromatic(g)
		if got.NumColors != want {
			t.Fatalf("graph %d: ColorMinimal=%d brute=%d", i, got.NumColors, want)
		}
	}
}

func bruteChromatic(g *Undirected) int {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return 0
	}
	for k := 1; ; k++ {
		colors := make(map[string]int)
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(nodes) {
				return true
			}
			for c := 0; c < k; c++ {
				ok := true
				for _, nb := range g.Neighbors(nodes[i]) {
					if cc, set := colors[nb]; set && cc == c {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				colors[nodes[i]] = c
				if rec(i + 1) {
					return true
				}
				delete(colors, nodes[i])
			}
			return false
		}
		if rec(0) {
			return k
		}
	}
}
