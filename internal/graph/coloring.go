package graph

import (
	"sort"

	"minvn/internal/relation"
)

// Undirected is a simple undirected graph (the "conflict graph" of
// paper §VI.A-c). Unlike a Digraph, not every name of its universe is
// a node. Self-edges are rejected by construction in the caller;
// adding one panics to surface the programming error (the paper proves
// the conflict graph has no self-edges).
type Undirected struct {
	// adj is symmetric. As no node is its own neighbour, the diagonal
	// is free to record membership: (i, i) is set iff i is a node.
	adj *relation.Relation
}

// NewUndirected returns an empty undirected graph; AddNode and AddEdge
// grow it.
func NewUndirected() *Undirected { return &Undirected{relation.New()} }

// UndirectedOf returns the graph with an edge {a, b} for every pair
// (a, b) of pairs, over the same universe; its nodes are the names
// that occur in a pair.
func UndirectedOf(pairs *relation.Relation) *Undirected {
	g := &Undirected{relation.NewOver(pairs.Universe())}
	pairs.Each(g.AddEdgeAt)
	return g
}

// AddNode ensures n is a node.
func (g *Undirected) AddNode(n string) { g.adj.Add(n, n) }

// AddEdge inserts the undirected edge {a, b}.
func (g *Undirected) AddEdge(a, b string) { g.AddEdgeAt(g.adj.Intern(a, b)) }

// AddEdgeAt is AddEdge between the names with indexes i and j.
func (g *Undirected) AddEdgeAt(i, j int) {
	if i == j {
		panic("graph: self-edge in conflict graph")
	}
	g.adj.Set(i, j)
	g.adj.Set(j, i)
	g.adj.Set(i, i)
	g.adj.Set(j, j)
}

// HasEdge reports whether {a, b} is an edge.
func (g *Undirected) HasEdge(a, b string) bool { return a != b && g.adj.Has(a, b) }

// nodes returns the node indexes in ascending order.
func (g *Undirected) nodes() []int {
	var out []int
	for i := 0; i < g.adj.Universe().Len(); i++ {
		if g.adj.Test(i, i) {
			out = append(out, i)
		}
	}
	return out
}

// Nodes returns all nodes, sorted.
func (g *Undirected) Nodes() []string {
	out := []string{}
	for _, i := range g.nodes() {
		out = append(out, g.adj.Universe().Name(i))
	}
	return out
}

// NumNodes returns the node count.
func (g *Undirected) NumNodes() int { return len(g.nodes()) }

// NumEdges returns the edge count.
func (g *Undirected) NumEdges() int { return (g.adj.Size() - g.NumNodes()) / 2 }

// Neighbors returns the neighbors of n, sorted.
func (g *Undirected) Neighbors(n string) []string {
	out := []string{}
	for _, nb := range g.adj.Image(n) {
		if nb != n {
			out = append(out, nb)
		}
	}
	return out
}

// degree returns the number of neighbors of node i.
func (g *Undirected) degree(i int) int { return g.adj.Row(i).Count() - 1 }

// colorAround reports whether a neighbor of node v has color c.
func (g *Undirected) colorAround(v, c int, color []int) bool {
	row := g.adj.Row(v)
	for nb := row.Next(-1); nb >= 0; nb = row.Next(nb) {
		if nb != v && color[nb] == c {
			return true
		}
	}
	return false
}

// ExactColoringLimit is the largest node count for which ColorMinimal
// runs the exact branch-and-bound search; bigger graphs fall back to
// DSATUR. Conflict graphs derived from protocols have a handful of
// nodes.
const ExactColoringLimit = 24

// Coloring gives each node a color in [0, NumColors).
type Coloring struct {
	// Color is indexed like the graph's universe; -1 marks a name that
	// is not a node.
	Color     []int
	NumColors int
	// Exact reports whether NumColors is the true chromatic number.
	Exact bool
}

// ColorMinimal computes a minimum proper coloring: exact
// branch-and-bound (seeded and bounded by DSATUR) for graphs up to
// ExactColoringLimit nodes, DSATUR alone beyond.
func ColorMinimal(g *Undirected) Coloring {
	nodes := g.nodes()
	upper := colorDSATUR(g, nodes)
	upper.Exact = len(nodes) <= ExactColoringLimit
	if !upper.Exact {
		return upper
	}
	for k := 1; k < upper.NumColors; k++ {
		if c, ok := colorWithK(g, nodes, k); ok {
			return Coloring{Color: c, NumColors: k, Exact: true}
		}
	}
	return upper
}

// uncolored returns the all -1 color table of g.
func (g *Undirected) uncolored() []int {
	color := make([]int, g.adj.Universe().Len())
	for i := range color {
		color[i] = -1
	}
	return color
}

// colorDSATUR is the classic saturation-degree greedy coloring.
func colorDSATUR(g *Undirected, nodes []int) Coloring {
	color := g.uncolored()
	// Row v of satur is the set of colors v's neighbors use.
	satur := relation.NewOver(g.adj.Universe())
	numColors := 0
	for range nodes {
		// Pick uncolored node with max saturation, ties by degree then name.
		best := -1
		for _, v := range nodes {
			if color[v] >= 0 {
				continue
			}
			if best < 0 {
				best = v
				continue
			}
			sv, sb := satur.Row(v).Count(), satur.Row(best).Count()
			if sv > sb || (sv == sb && g.degree(v) > g.degree(best)) {
				best = v
			}
		}
		c := 0
		for satur.Test(best, c) {
			c++
		}
		color[best] = c
		numColors = max(numColors, c+1)
		around := g.adj.Row(best)
		for nb := around.Next(-1); nb >= 0; nb = around.Next(nb) {
			satur.Set(nb, c)
		}
	}
	return Coloring{Color: color, NumColors: numColors}
}

// colorWithK attempts a proper coloring with exactly k colors via
// backtracking over nodes in decreasing-degree order, with symmetry
// breaking (a node may use at most one color beyond those already
// introduced).
func colorWithK(g *Undirected, nodes []int, k int) ([]int, bool) {
	order := append([]int(nil), nodes...)
	sort.SliceStable(order, func(i, j int) bool { return g.degree(order[i]) > g.degree(order[j]) })
	color := g.uncolored()

	var assign func(i, used int) bool
	assign = func(i, used int) bool {
		if i == len(order) {
			return true
		}
		v := order[i]
		for c := 0; c < min(used+1, k); c++ {
			if g.colorAround(v, c, color) {
				continue
			}
			color[v] = c
			nextUsed := used
			if c == used {
				nextUsed++
			}
			if assign(i+1, nextUsed) {
				return true
			}
			color[v] = -1
		}
		return false
	}
	if assign(0, 0) {
		return color, true
	}
	return nil, false
}
