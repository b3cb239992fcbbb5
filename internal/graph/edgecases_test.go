package graph

import (
	"fmt"
	"testing"
)

// Edge cases generated protocols routinely hit: trivial and degenerate
// graphs flowing into the FAS/SCC/coloring pipeline.

func TestDigraphEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Digraph
		acyclic bool
		nodes   int
		edges   int
	}{
		{
			name:    "empty",
			build:   NewDigraph,
			acyclic: true,
			nodes:   0,
			edges:   0,
		},
		{
			name: "isolated nodes",
			build: func() *Digraph {
				g := NewDigraph()
				g.AddNode("a")
				g.AddNode("b")
				return g
			},
			acyclic: true,
			nodes:   2,
			edges:   0,
		},
		{
			name: "self-loop",
			build: func() *Digraph {
				g := NewDigraph()
				g.AddEdge("a", "a", 1)
				return g
			},
			acyclic: false,
			nodes:   1,
			edges:   1,
		},
		{
			name: "parallel edge keeps min weight",
			build: func() *Digraph {
				g := NewDigraph()
				g.AddEdge("a", "b", 5)
				g.AddEdge("a", "b", 2)
				g.AddEdge("a", "b", 9)
				return g
			},
			acyclic: true,
			nodes:   2,
			edges:   1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if got := g.IsAcyclic(); got != tc.acyclic {
				t.Errorf("IsAcyclic() = %v, want %v", got, tc.acyclic)
			}
			if got := g.NumNodes(); got != tc.nodes {
				t.Errorf("NumNodes() = %d, want %d", got, tc.nodes)
			}
			if got := g.NumEdges(); got != tc.edges {
				t.Errorf("NumEdges() = %d, want %d", got, tc.edges)
			}
			if (g.FindCycle() == nil) != tc.acyclic {
				t.Errorf("FindCycle() nil-ness disagrees with IsAcyclic()")
			}
		})
	}

	t.Run("parallel edge weight", func(t *testing.T) {
		g := NewDigraph()
		g.AddEdge("a", "b", 5)
		g.AddEdge("a", "b", 2)
		if w, ok := g.Weight("a", "b"); !ok || w != 2 {
			t.Errorf("Weight(a,b) = %d,%v, want 2,true", w, ok)
		}
	})
}

func TestSCCEdgeCases(t *testing.T) {
	t.Run("empty graph has no SCCs", func(t *testing.T) {
		g := NewDigraph()
		if sccs := g.SCCs(); len(sccs) != 0 {
			t.Errorf("SCCs() = %v, want none", sccs)
		}
	})
	t.Run("single node no loop is trivial", func(t *testing.T) {
		g := NewDigraph()
		g.AddNode("a")
		sccs := g.SCCs()
		if len(sccs) != 1 || len(sccs[0]) != 1 {
			t.Fatalf("SCCs() = %v, want [[a]]", sccs)
		}
		if nt := g.NontrivialSCCs(); len(nt) != 0 {
			t.Errorf("NontrivialSCCs() = %v, want none (no self-loop)", nt)
		}
	})
	t.Run("single node with self-loop is nontrivial", func(t *testing.T) {
		g := NewDigraph()
		g.AddEdge("a", "a", 1)
		nt := g.NontrivialSCCs()
		if len(nt) != 1 || len(nt[0]) != 1 || nt[0][0] != "a" {
			t.Errorf("NontrivialSCCs() = %v, want [[a]]", nt)
		}
	})
}

func TestMinFASEdgeCases(t *testing.T) {
	t.Run("empty graph", func(t *testing.T) {
		res := MinFeedbackArcSet(NewDigraph())
		if len(res.Edges) != 0 || res.TotalWeight != 0 || !res.Exact {
			t.Errorf("FAS of empty graph = %+v, want empty exact result", res)
		}
	})
	t.Run("already acyclic keeps every edge", func(t *testing.T) {
		g := NewDigraph()
		// A diamond a→b→d, a→c→d plus a chain tail.
		g.AddEdge("a", "b", 1)
		g.AddEdge("a", "c", 1)
		g.AddEdge("b", "d", 1)
		g.AddEdge("c", "d", 1)
		g.AddEdge("d", "e", 1)
		res := MinFeedbackArcSet(g)
		if len(res.Edges) != 0 || res.TotalWeight != 0 {
			t.Errorf("FAS of acyclic graph removed %v (weight %d), want nothing", res.Edges, res.TotalWeight)
		}
		if !res.Exact {
			t.Error("acyclic input should be solved exactly")
		}
	})
	t.Run("self-loop must be in every FAS", func(t *testing.T) {
		g := NewDigraph()
		g.AddEdge("a", "a", 7)
		g.AddEdge("a", "b", 1)
		res := MinFeedbackArcSet(g)
		if len(res.Edges) != 1 || res.Edges[0].From != "a" || res.Edges[0].To != "a" {
			t.Fatalf("FAS = %v, want exactly the self-loop", res.Edges)
		}
		if !without(g, res.Edges).IsAcyclic() {
			t.Error("graph still cyclic after removing the FAS")
		}
	})
}

func TestColoringEdgeCases(t *testing.T) {
	t.Run("empty graph", func(t *testing.T) {
		c := ColorMinimal(NewUndirected())
		if c.NumColors != 0 || len(c.Color) != 0 {
			t.Errorf("coloring of empty graph = %+v, want zero colors", c)
		}
	})
	t.Run("edgeless graph is 1-colorable", func(t *testing.T) {
		g := NewUndirected()
		g.AddNode("a")
		g.AddNode("b")
		g.AddNode("c")
		c := ColorMinimal(g)
		if c.NumColors != 1 {
			t.Errorf("NumColors = %d, want 1", c.NumColors)
		}
	})
	// Complete conflict graphs K_n need exactly n colors — the shape a
	// protocol where every stallable message conflicts with every
	// other produces.
	for _, n := range []int{2, 3, 4, 5, 6} {
		n := n
		t.Run(fmt.Sprintf("complete K%d", n), func(t *testing.T) {
			g := NewUndirected()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					g.AddEdge(fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", j))
				}
			}
			c := ColorMinimal(g)
			if c.NumColors != n {
				t.Fatalf("K%d colored with %d colors, want %d", n, c.NumColors, n)
			}
			if !c.Exact {
				t.Errorf("K%d should be within the exact-coloring limit", n)
			}
			for _, u := range g.Nodes() {
				for _, v := range g.Neighbors(u) {
					if colorOf(g, c, u) == colorOf(g, c, v) {
						t.Fatalf("improper coloring: %s and %s share color %d", u, v, colorOf(g, c, u))
					}
				}
			}
		})
	}
}

// TestMinFASUnbreakableWeightsDoNotOverflow: Eq. 6 weighs an
// unbreakable edge 2^|V|+1 (|V| capped at 60), and a vertex order may
// put many of them backward while the DP compares orders. A transitive
// tournament of such edges plus one weight-1 back edge has exactly one
// minimum feedback arc set, the back edge; summing eight or more
// 2^60+1 weights in an int64 wrapped and made the DP pick nine
// unbreakable edges instead.
func TestMinFASUnbreakableWeightsDoNotOverflow(t *testing.T) {
	const unbreakable = int64(1)<<60 + 1
	for _, n := range []int{6, 10, 16} {
		g := NewDigraph()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddEdge(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", j), unbreakable)
			}
		}
		last := fmt.Sprintf("n%02d", n-1)
		g.AddEdge(last, "n00", 1)
		for _, res := range []FASResult{MinFeedbackArcSet(g), HeuristicFeedbackArcSet(g)} {
			if len(res.Edges) != 1 || res.Edges[0] != (Edge{last, "n00", 1}) || res.TotalWeight != 1 {
				t.Errorf("%d nodes: FAS = %v (total weight %d, exact %v), want only the weight-1 back edge",
					n, res.Edges, res.TotalWeight, res.Exact)
			}
		}
	}
}
