// Package graph provides the graph algorithms behind the VN-assignment
// reduction of paper §VI.A: strongly connected components, minimum
// weighted feedback arc set (exact dynamic programming for paper-scale
// instances, Eades–Lin–Smyth heuristic with local search beyond), and
// minimum graph coloring (exact branch-and-bound with a DSATUR
// fallback).
//
// A graph is a bit matrix over a relation.Universe: its nodes are the
// universe's names, a node is its index there, and adjacency is one
// relation.Row per node. Since the universe is sorted, every "ties
// break by name" rule of the algorithms is "lowest index first", and
// node, edge and component listings are sorted as they are produced.
// Callers that already hold a universe (vnassign) build and read
// graphs by index (NewDigraphOver, AddEdgeAt, FASResult.Arcs,
// UndirectedOf, Coloring.Color); the string methods intern on the way
// in and are for ad-hoc graphs and for output.
package graph

import (
	"fmt"
	"strings"

	"minvn/internal/relation"
)

// Edge is a weighted directed edge.
type Edge struct {
	From, To string
	Weight   int64
}

// Digraph is a weighted directed graph. Parallel edges collapse; adding
// an existing edge keeps the smaller weight. Self-loops are allowed.
// The zero value is not usable; call NewDigraph or NewDigraphOver.
type Digraph struct {
	adj *relation.Relation // the edges; its universe is the node set
	w   []int64            // n×n weights, meaningful where adj has the edge
}

// NewDigraph returns an empty directed graph; AddNode and AddEdge grow
// its node set.
func NewDigraph() *Digraph { return NewDigraphOver(relation.NewUniverse()) }

// NewDigraphOver returns an edgeless graph whose nodes are the names
// of u.
func NewDigraphOver(u *relation.Universe) *Digraph {
	return &Digraph{adj: relation.NewOver(u), w: make([]int64, u.Len()*u.Len())}
}

// AddNode ensures n is a node of the graph.
func (g *Digraph) AddNode(n string) {
	old := g.NumNodes()
	at, _ := g.adj.Intern(n, n)
	if g.NumNodes() == old {
		return
	}
	// n is new at index at: nodes from there on moved up by one.
	moved := func(i int) int {
		if i >= at {
			return i + 1
		}
		return i
	}
	w := make([]int64, (old+1)*(old+1))
	for i := 0; i < old; i++ {
		for j := 0; j < old; j++ {
			w[moved(i)*(old+1)+moved(j)] = g.w[i*old+j]
		}
	}
	g.w = w
}

// AddEdge inserts a directed edge with the given weight. If the edge
// exists, the minimum of the two weights is kept.
func (g *Digraph) AddEdge(from, to string, weight int64) {
	g.AddNode(from)
	g.AddNode(to)
	i, j := g.adj.Intern(from, to)
	g.AddEdgeAt(i, j, weight)
}

// AddEdgeAt is AddEdge between the nodes with indexes i and j.
func (g *Digraph) AddEdgeAt(i, j int, weight int64) {
	if k := i*g.NumNodes() + j; !g.adj.Test(i, j) || weight < g.w[k] {
		g.w[k] = weight
	}
	g.adj.Set(i, j)
}

// HasEdge reports whether from→to is an edge.
func (g *Digraph) HasEdge(from, to string) bool { return g.adj.Has(from, to) }

// Weight returns the weight of edge from→to; ok is false if absent.
func (g *Digraph) Weight(from, to string) (w int64, ok bool) {
	u := g.adj.Universe()
	i, okI := u.Index(from)
	j, okJ := u.Index(to)
	if !okI || !okJ || !g.adj.Test(i, j) {
		return 0, false
	}
	return g.w[i*u.Len()+j], true
}

// Nodes returns all nodes, sorted.
func (g *Digraph) Nodes() []string { return g.adj.Universe().Names() }

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return g.adj.Universe().Len() }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int { return g.adj.Size() }

// edges lists the edges of arcs, a subset of g's, in sorted order.
func (g *Digraph) edges(arcs *relation.Relation) []Edge {
	u := g.adj.Universe()
	out := make([]Edge, 0, arcs.Size())
	arcs.Each(func(i, j int) {
		out = append(out, Edge{u.Name(i), u.Name(j), g.w[i*u.Len()+j]})
	})
	return out
}

// Edges returns all edges in deterministic (sorted) order.
func (g *Digraph) Edges() []Edge { return g.edges(g.adj) }

// IsAcyclic reports whether the graph has no directed cycle
// (self-loops count as cycles).
func (g *Digraph) IsAcyclic() bool { return !g.adj.HasCycle() }

// FindCycle returns the nodes of one directed cycle in edge order, or
// nil if the graph is acyclic.
func (g *Digraph) FindCycle() []string { return g.adj.CycleWitness() }

// String renders nodes and edges deterministically, for debugging.
func (g *Digraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph{%d nodes", g.NumNodes())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "; %s->%s(%d)", e.From, e.To, e.Weight)
	}
	b.WriteByte('}')
	return b.String()
}
