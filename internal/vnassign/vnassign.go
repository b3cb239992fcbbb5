// Package vnassign implements the paper's central algorithm (§VI.A):
// given a protocol, determine the minimum number of virtual networks
// required to provably avoid deadlock and generate the mapping from
// message names to VNs.
//
// The algorithm reduces the problem to graph problems: build the
// dependency graph of Eq. 5 (assuming a single VN, so any message can
// queue behind any stallable message), weight edges per Eq. 6 so that
// pure-waits edges are unbreakable, compute a minimum feedback arc
// set, translate the removed edges back to the queues pairs that
// realized them, and minimally color the resulting conflict graph.
// The number of colors is the number of VNs.
//
// A protocol whose waits relation is cyclic cannot be saved by any
// per-message-name VN assignment (§V-E); these are Class 2 protocols
// and the algorithm reports them instead of an assignment. As an
// engineering hardening beyond the paper, the final assignment is
// re-checked against Eq. 4 and refined with extra conflict edges if a
// cycle survives; for every protocol in this repository the loop
// never iterates (the tests assert this), but it makes the tool sound
// by construction.
package vnassign

import (
	"fmt"
	"slices"
	"strings"

	"minvn/internal/analysis"
	"minvn/internal/graph"
	"minvn/internal/obs"
	"minvn/internal/protocol"
	"minvn/internal/relation"
)

// Class is the paper's protocol classification (§I, §VI-C).
type Class int

const (
	// ClassUnknown: not yet determined (zero value).
	ClassUnknown Class = iota
	// Class1: protocol deadlock — a cycle in dynamic waiting exists
	// even with one address and per-message VNs. Detected by model
	// checking (package mc), never by this static algorithm.
	Class1
	// Class2: inevitable VN deadlock — waits is cyclic, so a deadlock
	// exists even with every message name on its own VN.
	Class2
	// Class3: practical — a constant number of VNs (1 or 2) suffices.
	Class3
)

func (c Class) String() string {
	switch c {
	case Class1:
		return "Class 1 (protocol deadlock)"
	case Class2:
		return "Class 2 (inevitable VN deadlock)"
	case Class3:
		return "Class 3 (constant VNs suffice)"
	default:
		return "unclassified"
	}
}

// Tag is the class's short stable name in run records: "class2" or
// "class3" for what the static algorithm finds.
func (c Class) Tag() string { return fmt.Sprintf("class%d", int(c)) }

// Assignment is the algorithm's result.
type Assignment struct {
	Protocol *protocol.Protocol
	Analysis *analysis.Result
	Class    Class

	// NumVNs and VN are set for Class 3 protocols.
	NumVNs int
	VN     map[string]int

	// WaitsCycle witnesses Class 2 (a cycle in waits).
	WaitsCycle []string

	// Constraints are the designer separations AssignConstrained
	// computed it under (nil for Assign).
	Constraints []Constraint

	// Diagnostics of the reduction.
	Graph         *graph.Digraph // Eq. 5 dependency graph
	FAS           []graph.Edge   // chosen feedback arc set
	ConflictPairs [][2]string    // queues pairs entering the conflict graph
	Exact         bool           // FAS and coloring both solved exactly
	Refinements   int            // verify-and-refine iterations (0 = paper algorithm sufficed)
}

// VNGroups returns, for a Class 3 assignment, the message names per
// VN in declaration order.
func (a *Assignment) VNGroups() [][]string {
	if a.VN == nil {
		return nil
	}
	groups := make([][]string, a.NumVNs)
	for _, m := range a.Protocol.MessageNames() {
		v := a.VN[m]
		groups[v] = append(groups[v], m)
	}
	return groups
}

// Verdict is the one description of a static answer — what the
// paper's algorithm says about a protocol: its class, for Class 3 the
// minimum VN count and mapping, for Class 2 the waits cycle, and the
// textbook count the answer is measured against. vnserved's analyze
// response, the vnmin and vnserved analyze run records, and vntable's
// rows all carry it; (*Assignment).Verdict is its only constructor.
type Verdict struct {
	Protocol      string         `json:"protocol"`
	Outcome       string         `json:"outcome"` // Class.Tag
	Class         string         `json:"class"`   // Class.String
	NumVNs        int            `json:"num_vns,omitempty"`
	VN            map[string]int `json:"vn,omitempty"`
	VNGroups      [][]string     `json:"vn_groups,omitempty"`
	WaitsCycle    []string       `json:"waits_cycle,omitempty"`
	TextbookVNs   int            `json:"textbook_vns"`
	ConflictPairs int            `json:"conflict_pairs"`
	Refinements   int            `json:"refinements"`
	Exact         bool           `json:"exact"`
	Constraints   []Constraint   `json:"constraints,omitempty"`
}

// Verdict describes a. It computes the textbook count, so a caller that
// only needs the class or the mapping reads the assignment instead.
func (a *Assignment) Verdict() Verdict {
	v := Verdict{
		Protocol: a.Protocol.Name, Outcome: a.Class.Tag(), Class: a.Class.String(),
		TextbookVNs: Textbook(a.Analysis).NumVNs, ConflictPairs: len(a.ConflictPairs),
		Refinements: a.Refinements, Exact: a.Exact, Constraints: a.Constraints,
	}
	switch a.Class {
	case Class3:
		v.NumVNs, v.VN, v.VNGroups = a.NumVNs, a.VN, a.VNGroups()
	case Class2:
		v.WaitsCycle = a.WaitsCycle
	}
	return v
}

// String renders a human-readable summary.
func (a *Assignment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", a.Protocol.Name, a.Class)
	switch a.Class {
	case Class2:
		fmt.Fprintf(&b, "; waits cycle: %s", strings.Join(a.WaitsCycle, " -> "))
	case Class3:
		fmt.Fprintf(&b, "; %d VN(s)", a.NumVNs)
		for i, g := range a.VNGroups() {
			fmt.Fprintf(&b, "; VN%d = {%s}", i, strings.Join(g, ", "))
		}
	}
	return b.String()
}

// Assign runs the full pipeline on a protocol.
func Assign(p *protocol.Protocol) *Assignment {
	return AssignFromAnalysis(analysis.Analyze(p))
}

// AssignObserved runs the full pipeline with per-stage telemetry on
// tl: the static analysis stages plus the reduction stages below.
func AssignObserved(p *protocol.Protocol, tl *obs.Timeline) *Assignment {
	return AssignFromAnalysisObserved(analysis.AnalyzeObserved(p, tl), tl)
}

// AssignFromAnalysis runs the algorithm on precomputed relations.
func AssignFromAnalysis(r *analysis.Result) *Assignment {
	return AssignFromAnalysisObserved(r, nil)
}

// AssignFromAnalysisObserved is AssignFromAnalysis with per-stage
// wall-clock telemetry: the Eq. 5 dependency-graph construction, the
// minimum feedback arc set, the conflict-graph coloring, and the
// verify-and-refine loop each record a stage on tl. A nil timeline
// records nothing.
func AssignFromAnalysisObserved(r *analysis.Result, tl *obs.Timeline) *Assignment {
	a := &Assignment{Protocol: r.Protocol, Analysis: r, Exact: true}

	// A protocol with no stalls has an empty waits relation: no
	// message ever waits, so nothing can deadlock — one VN (§VI-C.3,
	// Table I cell 1).
	if r.Waits.IsEmpty() {
		a.Class = Class3
		a.NumVNs = 1
		a.VN = analysis.SingleVN(r.Protocol)
		a.Graph = graph.NewDigraph()
		return a
	}

	var dep *depGraph
	tl.Time("vnassign/depgraph", func() {
		dep = buildDependencyGraph(r)
	})
	a.Graph = dep.g

	var fas graph.FASResult
	tl.Time("vnassign/fas", func() {
		fas = graph.MinFeedbackArcSet(dep.g)
	})
	a.FAS = fas.Edges
	a.Exact = fas.Exact

	// Eq. 6: an unbreakable (pure-waits) edge in the feedback arc set
	// means waits itself is cyclic — Class 2. The direct check must
	// agree (asserted by tests) and decides alone when it does not.
	unbreakable := false
	fas.Arcs.Each(func(i, j int) { unbreakable = unbreakable || dep.waitsPlus.Test(i, j) })
	if w := dep.waits.CycleWitness(); unbreakable || w != nil {
		a.Class = Class2
		a.WaitsCycle = w
		return a
	}

	// Translate removed edges to their queues pairs and color.
	conflict := relation.NewOver(r.Names)
	var coloring graph.Coloring
	tl.Time("vnassign/coloring", func() {
		for a := 0; a < r.Names.Len(); a++ {
			if removed := fas.Arcs.Row(a); !removed.Empty() {
				dep.queuesPairs(conflict, a, removed)
			}
		}
		a.ConflictPairs = conflict.Arrays()
		coloring = graph.ColorMinimal(graph.UndirectedOf(conflict))
	})
	if !coloring.Exact {
		a.Exact = false
	}
	a.NumVNs = max(coloring.NumColors, 1)
	a.VN = completeAssignment(r, coloring.Color, a.NumVNs)

	// Verify-and-refine: re-check Eq. 4 under the concrete assignment
	// and add conflict edges until it holds (hardening; no built-in
	// protocol needs it).
	defer tl.Start("vnassign/refine")()
	for iter := 0; iter < len(r.Protocol.Messages)+1; iter++ {
		ok, cycle := analysis.DeadlockFree(r, a.VN)
		if ok {
			a.Class = Class3
			return a
		}
		a.Refinements++
		added := false
		queues := analysis.QueuesUnder(r, a.VN)
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			if queues.Has(from, to) && from != to && !conflict.Has(from, to) && !conflict.Has(to, from) {
				conflict.Add(from, to)
				added = true
			}
		}
		if !added {
			// Every queues pair on the cycle is a self-pair or already
			// separated: no per-name assignment can break it.
			a.Class = Class2
			a.WaitsCycle = cycle
			return a
		}
		coloring = graph.ColorMinimal(graph.UndirectedOf(conflict))
		a.NumVNs = coloring.NumColors
		a.VN = completeAssignment(r, coloring.Color, a.NumVNs)
		a.ConflictPairs = conflict.Arrays()
	}
	// Refinement failed to converge; declare Class 2 conservatively.
	a.Class = Class2
	a.WaitsCycle = r.Protocol.MessageNames()
	return a
}

// completeAssignment extends a partial coloring (color[i] < 0: message
// i of r.Names is uncolored) to all messages. The uncolored messages
// cannot cause VN deadlocks (paper §VI.A-c), so any placement is
// sound; for presentation we co-locate them with colored messages of
// the same type (requests with requests, responses with responses),
// matching how the paper reports its assignments (VN1 = requests,
// VN2 = everything else).
func completeAssignment(r *analysis.Result, color []int, numVNs int) map[string]int {
	p := r.Protocol
	// votes(t) counts the colored messages of type t per color; the
	// extra last row counts every colored response.
	const responses = protocol.CtrlResponse + 1
	tally := make([]int, int(responses+1)*numVNs)
	votes := func(t protocol.MsgType) []int { return tally[int(t)*numVNs : int(t+1)*numVNs] }
	for i, c := range color {
		if c < 0 {
			continue
		}
		t := p.Messages[r.Names.Name(i)].Type
		votes(t)[c]++
		if t != protocol.Request {
			votes(responses)[c]++
		}
	}
	majority := func(votes []int) (int, bool) {
		best := 0
		for c, n := range votes {
			if n > votes[best] {
				best = c
			}
		}
		return best, votes[best] > 0
	}
	vn := make(map[string]int, len(p.Messages))
	for _, m := range p.MessageNames() {
		i, _ := r.Names.Index(m)
		t := p.Messages[m].Type
		if color[i] >= 0 {
			vn[m] = color[i]
		} else if c, ok := majority(votes(t)); ok {
			vn[m] = c
		} else if c, ok := majority(votes(responses)); ok && t != protocol.Request {
			vn[m] = c
		} else {
			vn[m] = 0
		}
	}
	return vn
}

// depGraph carries the Eq. 5 graph plus the relations needed to
// translate feedback arcs back to protocol relations, all over the
// analysis' universe of message names.
type depGraph struct {
	g *graph.Digraph
	// waits is the analysis' relation; waitsPlus is waits⁺, whose
	// pairs are exactly the edges realizable by a pure-waits path, the
	// unbreakable ones.
	waits, waitsPlus *relation.Relation
	// Under a single VN any message can queue behind any stallable
	// one: queues relates every message to each of these.
	stallable relation.Row
}

// unbreakableWeight implements Eq. 6's 2^|V|+1 for pure-waits edges,
// capped to fit an int64. It is the weight the graph shows; while
// orders are compared, graph.MinFeedbackArcSet scales it down to what
// Eq. 6 needs — one unbreakable edge outweighs all breakable ones —
// so no number of them overflows.
func unbreakableWeight(numNodes int) int64 {
	return (int64(1) << min(numNodes, 60)) + 1
}

// buildDependencyGraph constructs Eq. 5 under the single-VN queues
// relation: a → b when b is reachable from a by one waits step
// followed by any number of waits ∪ queues steps, that is, the
// relation waits ; (waits ∪ queues)*. Edges that a pure-waits path
// realizes are unbreakable (Eq. 6); the others weigh 1.
func buildDependencyGraph(r *analysis.Result) *depGraph {
	d := &depGraph{
		g:         graph.NewDigraphOver(r.Names),
		waits:     r.Waits.Over(r.Names),
		stallable: r.Names.NewRow(),
	}
	for _, m := range r.Stallable {
		i, _ := r.Names.Index(m)
		d.stallable.Set(i)
	}
	d.waitsPlus = d.waits.TransitiveClosure()
	big := unbreakableWeight(r.Names.Len())
	analysis.Dependencies(r, nil).Each(func(a, b int) {
		if d.waitsPlus.Test(a, b) {
			d.g.AddEdgeAt(a, b, big)
		} else {
			d.g.AddEdgeAt(a, b, 1)
		}
	})
	return d
}

// queuesPairs adds to out the queues pairs that realize the breakable
// edges from a to the messages in targets: the queues-only steps
// (x, y) on the shortest paths from a to a target, whose first step
// follows waits and whose later steps follow waits ∪ queues. Only a
// step that waits cannot make is breakable by VN separation. Shortest
// paths never repeat a message, so no pair relates a message to itself
// (§VI.A-c).
func (d *depGraph) queuesPairs(out *relation.Relation, a int, targets relation.Row) {
	names := d.waits.Universe()
	// Breadth-first levels from a, until every target is in one.
	level := slices.Clone(d.waits.Row(a))
	seen := slices.Clone(level)
	levels := []relation.Row{level}
	for missing := slices.Clone(targets); ; level = levels[len(levels)-1] {
		if missing.AndNot(seen); missing.Empty() {
			break
		}
		next := slices.Clone(d.stallable)
		for x := level.Next(-1); x >= 0; x = level.Next(x) {
			next.Or(d.waits.Row(x))
		}
		if next.AndNot(seen); next.Empty() {
			panic("vnassign: feedback arc is not an edge of the dependency graph")
		}
		seen.Or(next)
		levels = append(levels, next)
	}
	// Walk back: a message is on a shortest path to a target iff it
	// is one, or steps to a message of the next level that is.
	onPath, steps := names.NewRow(), names.NewRow()
	for k := len(levels) - 1; ; k-- {
		copy(steps, targets)
		steps.And(levels[k])
		onPath.Or(steps)
		if k == 0 {
			return
		}
		before := names.NewRow()
		for x := levels[k-1].Next(-1); x >= 0; x = levels[k-1].Next(x) {
			copy(steps, d.waits.Row(x))
			steps.Or(d.stallable)
			if steps.And(onPath); steps.Empty() {
				continue
			}
			before.Set(x)
			// Queues-only: behind a stallable message, and not a wait.
			steps.And(d.stallable)
			steps.AndNot(d.waits.Row(x))
			out.Row(x).Or(steps)
		}
		onPath = before
	}
}

// Eq4Holds re-exports the deadlock-freedom check for callers that
// have an Assignment in hand.
func Eq4Holds(a *Assignment) bool {
	if a.VN == nil {
		return false
	}
	ok, _ := analysis.DeadlockFree(a.Analysis, a.VN)
	return ok
}
