package graph

// sccs numbers the strongly connected components of g, using Tarjan's
// algorithm from the lowest node, successors in ascending order: node
// v lies in component comp[v] of count. Components are numbered in
// reverse topological order of the condensation (callees before
// callers).
func (g *Digraph) sccs() (comp []int, count int) {
	n := g.NumNodes()
	index := make([]int, n) // discovery number + 1; 0 = unseen
	low := make([]int, n)
	onStack := make([]bool, n)
	stack := make([]int, 0, n)
	comp = make([]int, n)
	next := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true

		succ := g.adj.Row(v)
		for w := succ.Next(-1); w >= 0; w = succ.Next(w) {
			if index[w] == 0 {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}

		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = count
				if w == v {
					break
				}
			}
			count++
		}
	}

	for v := 0; v < n; v++ {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp, count
}

// SCCs returns the strongly connected components of g, in the order
// sccs numbers them, each with its members sorted.
func (g *Digraph) SCCs() [][]string {
	comp, count := g.sccs()
	out := make([][]string, count)
	for v, c := range comp {
		out[c] = append(out[c], g.adj.Universe().Name(v))
	}
	return out
}

// NontrivialSCCs returns only the components that can contain a cycle:
// those with more than one node, or a single node with a self-loop.
func (g *Digraph) NontrivialSCCs() [][]string {
	var out [][]string
	for _, comp := range g.SCCs() {
		if len(comp) > 1 || g.HasEdge(comp[0], comp[0]) {
			out = append(out, comp)
		}
	}
	return out
}
