package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"minvn/internal/relation"
)

// ExactFASLimit is the largest strongly connected component size for
// which MinFeedbackArcSet uses the exact dynamic program. Beyond it the
// Eades–Lin–Smyth heuristic with local search is used. 2^18 masks keep
// the DP in tens of milliseconds; protocol graphs are far smaller
// (paper §VI-B: ~10¹ nodes).
const ExactFASLimit = 18

// FASResult is the outcome of a feedback-arc-set computation.
type FASResult struct {
	// Edges whose removal makes the graph acyclic, sorted.
	Edges []Edge
	// Arcs is the same set by node index, over the graph's universe.
	Arcs *relation.Relation
	// TotalWeight is the summed weight of Edges.
	TotalWeight int64
	// Exact reports whether every component was solved exactly.
	Exact bool
}

// MinFeedbackArcSet computes a minimum-weight feedback arc set of g.
// Self-loop edges are always part of the result (no ordering can make
// them forward). Each strongly connected component is solved
// independently: exactly (Held–Karp style DP over vertex orderings) if
// it has at most ExactFASLimit nodes, heuristically otherwise.
func MinFeedbackArcSet(g *Digraph) FASResult {
	return minFAS(g, true)
}

// HeuristicFeedbackArcSet computes a feedback arc set using only the
// Eades–Lin–Smyth heuristic plus local search, regardless of component
// size. It exists so benchmarks can compare it against the exact DP.
func HeuristicFeedbackArcSet(g *Digraph) FASResult {
	return minFAS(g, false)
}

// arc is an edge between two nodes of one component, by their position
// among the component's (sorted) nodes.
type arc struct {
	from, to int
	w        int64
}

func minFAS(g *Digraph, exactIfSmall bool) FASResult {
	n := g.NumNodes()
	res := FASResult{Exact: true, Arcs: relation.NewOver(g.adj.Universe())}
	limit := g.weightLimit()
	comp, count := g.sccs()
	size := make([]int, count)
	for _, c := range comp {
		size[c]++
	}
	local := make([]int, n)
	var nodes []int
	var arcs []arc
	for v := 0; v < n; v++ {
		// Self-loops are unconditionally feedback arcs.
		if g.adj.Test(v, v) {
			res.Arcs.Set(v, v)
		}
		// Each component is solved when its lowest node comes up.
		c := comp[v]
		if size[c] < 2 {
			continue
		}
		size[c] = 0
		nodes, arcs = nodes[:0], arcs[:0]
		for u := v; u < n; u++ {
			if comp[u] == c {
				local[u] = len(nodes)
				nodes = append(nodes, u)
			}
		}
		for _, from := range nodes {
			succ := g.adj.Row(from)
			for to := succ.Next(-1); to >= 0; to = succ.Next(to) {
				if to != from && comp[to] == c {
					arcs = append(arcs, arc{local[from], local[to], min(g.w[from*n+to], limit)})
				}
			}
		}
		var order []int
		if exactIfSmall && len(nodes) <= ExactFASLimit {
			order = exactMinOrder(len(nodes), arcs)
		} else {
			order = localSearchOrder(arcs, elsOrder(len(nodes), arcs))
			res.Exact = false
		}
		pos := make([]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		for _, a := range arcs {
			if pos[a.from] > pos[a.to] {
				res.Arcs.Set(nodes[a.from], nodes[a.to])
			}
		}
	}
	res.Edges = g.edges(res.Arcs)
	for _, e := range res.Edges {
		res.TotalWeight += e.Weight
	}
	return res
}

// weightLimit returns the value at which edge weights are capped while
// vertex orders are compared, so that the sums cannot overflow. When
// the heaviest weight W exceeds the summed weight S of all lighter
// edges, an order's cost h·W + l (h heaviest back edges, l ≤ S the
// lighter ones) compares like the pair (h, l), and so does h·(S+1) + l:
// capping W at S+1 keeps every comparison, hence the chosen order and
// every tie-break, while h·(S+1) stays far from 2^63. That is Eq. 6's
// "one unbreakable edge outweighs all breakable ones", for which
// vnassign passes 2^|V|+1 (|V| up to 60): ten such back edges wrap an
// int64. Weights that do not have this shape are used as they are.
func (g *Digraph) weightLimit() int64 {
	scan := func(fn func(w int64)) {
		g.adj.Each(func(i, j int) { fn(g.w[i*g.NumNodes()+j]) })
	}
	var heaviest, lighter int64
	scan(func(w int64) { heaviest = max(heaviest, w) })
	scan(func(w int64) {
		if w < heaviest {
			lighter = min(lighter+w, 1<<40)
		}
	})
	if lighter < 1<<40 && lighter+1 < heaviest {
		return lighter + 1
	}
	return heaviest
}

// exactMinOrder returns an ordering of the n nodes minimizing the
// total weight of backward arcs, via DP over subsets: dp[mask] is the
// minimum backward weight achievable when the vertices in mask form
// the prefix of the order. Appending v after prefix mask turns every
// arc v→u (u in mask) into a backward arc.
func exactMinOrder(n int, arcs []arc) []int {
	if n > ExactFASLimit {
		panic(fmt.Sprintf("graph: exactMinOrder called with %d nodes", n))
	}
	// The cost of appending v after prefix mask is read off two tables
	// instead of being summed arc by arc: lo[v][m] is the weight of v's
	// arcs into the set m of the first half nodes, hi[v][m] into the
	// set m of the others.
	half := n / 2
	lo, hi := make([]int64, n<<half), make([]int64, n<<(n-half))
	w := make([]int64, n*n)
	for _, a := range arcs {
		w[a.from*n+a.to] = a.w
	}
	for v := 0; v < n; v++ {
		for m := 1; m < 1<<half; m++ {
			lo[v<<half|m] = lo[v<<half|m&(m-1)] + w[v*n+bits.TrailingZeros(uint(m))]
		}
		for m := 1; m < 1<<(n-half); m++ {
			hi[v<<(n-half)|m] = hi[v<<(n-half)|m&(m-1)] + w[v*n+half+bits.TrailingZeros(uint(m))]
		}
	}

	size := 1 << n
	const inf = int64(1) << 62
	dp := make([]int64, size)
	choice := make([]int8, size)
	for i := 1; i < size; i++ {
		dp[i] = inf
	}
	for mask := 0; mask < size; mask++ {
		for rest := (size - 1) &^ mask; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros(uint(rest))
			cost := dp[mask] + lo[v<<half|mask&(1<<half-1)] + hi[v<<(n-half)|mask>>half]
			if next := mask | 1<<v; cost < dp[next] {
				dp[next] = cost
				choice[next] = int8(v)
			}
		}
	}

	order := make([]int, n)
	mask := size - 1
	for i := n - 1; i >= 0; i-- {
		v := int(choice[mask])
		order[i] = v
		mask &^= 1 << v
	}
	return order
}

// elsOrder is the Eades–Lin–Smyth GR heuristic adapted to weights:
// repeatedly peel sinks to the back, sources to the front, and
// otherwise move the vertex maximizing (out-weight − in-weight) to the
// front. Ties go to the lowest node.
func elsOrder(n int, arcs []arc) []int {
	remaining := make([]bool, n)
	outW, inW := make([]int64, n), make([]int64, n)
	outDeg, inDeg := make([]int, n), make([]int, n)
	for v := range remaining {
		remaining[v] = true
	}
	for _, a := range arcs {
		outW[a.from] += a.w
		inW[a.to] += a.w
		outDeg[a.from]++
		inDeg[a.to]++
	}
	left := n
	remove := func(v int) {
		for _, a := range arcs {
			if a.from == v && remaining[a.to] {
				inW[a.to] -= a.w
				inDeg[a.to]--
			}
			if a.to == v && remaining[a.from] {
				outW[a.from] -= a.w
				outDeg[a.from]--
			}
		}
		remaining[v] = false
		left--
	}

	var front, back []int
	for left > 0 {
		for progress := true; progress; {
			progress = false
			for v := 0; v < n; v++ {
				if remaining[v] && outDeg[v] == 0 { // sink
					back = append(back, v)
					remove(v)
					progress = true
				}
			}
			for v := 0; v < n; v++ {
				if remaining[v] && inDeg[v] == 0 { // source
					front = append(front, v)
					remove(v)
					progress = true
				}
			}
		}
		if left == 0 {
			break
		}
		best := -1
		for v := 0; v < n; v++ {
			if remaining[v] && (best < 0 || outW[v]-inW[v] > outW[best]-inW[best]) {
				best = v
			}
		}
		front = append(front, best)
		remove(best)
	}
	slices.Reverse(back) // it was collected back-to-front
	return append(front, back...)
}

// localSearchOrder improves an ordering by repeatedly relocating single
// vertices to their best position until a fixpoint (or an iteration
// cap, to bound worst-case time).
func localSearchOrder(arcs []arc, cur []int) []int {
	pos := make([]int, len(cur))
	cost := func(ord []int) int64 {
		for i, v := range ord {
			pos[v] = i
		}
		var c int64
		for _, a := range arcs {
			if pos[a.from] > pos[a.to] {
				c += a.w
			}
		}
		return c
	}
	bestCost := cost(cur)
	cand := make([]int, len(cur))
	for iter := 0; iter < 50; iter++ {
		improved := false
		for i := 0; i < len(cur); i++ {
			// Try cur[i] at every position j among the others.
			vi, rest := cur[i], slices.Delete(slices.Clone(cur), i, i+1)
			for j := 0; j <= len(rest); j++ {
				copy(cand, rest[:j])
				cand[j] = vi
				copy(cand[j+1:], rest[j:])
				if c := cost(cand); c < bestCost {
					cur, bestCost = slices.Clone(cand), c
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur
}
