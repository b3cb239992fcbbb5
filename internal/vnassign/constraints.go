package vnassign

import (
	"fmt"
	"slices"

	"minvn/internal/analysis"
	"minvn/internal/graph"
	"minvn/internal/protocol"
	"minvn/internal/relation"
)

// The paper notes (§VI-C.3) that a designer "may choose to use more"
// VNs than the minimum — e.g. to separate message types of different
// sizes that the algorithm maps to the same VN. AssignConstrained
// supports that workflow: it runs the minimum-VN algorithm with extra
// designer-imposed separation constraints folded into the conflict
// graph, so the result is still deadlock-free by construction and
// minimal *subject to the constraints*.

// Constraint demands that two message names land on different VNs.
type Constraint struct {
	A string `json:"a"`
	B string `json:"b"`
}

// SeparateDataFromControl builds the constraint set a designer
// worried about flit sizing would use: every data response on a
// different VN from every control response.
func SeparateDataFromControl(p *protocol.Protocol) []Constraint {
	var out []Constraint
	for _, d := range p.MessagesOfType(protocol.DataResponse) {
		for _, c := range p.MessagesOfType(protocol.CtrlResponse) {
			out = append(out, Constraint{d, c})
		}
	}
	return out
}

// AssignConstrained is Assign plus designer constraints. Returns an
// error for unknown message names or self-constraints; Class 2
// verdicts are reported exactly as by Assign (constraints cannot
// rescue an inevitable VN deadlock). Either way the result records the
// constraints it was computed under.
func AssignConstrained(r *analysis.Result, constraints []Constraint) (*Assignment, error) {
	p := r.Protocol
	for _, c := range constraints {
		if _, ok := p.Messages[c.A]; !ok {
			return nil, fmt.Errorf("vnassign: constraint references unknown message %q", c.A)
		}
		if _, ok := p.Messages[c.B]; !ok {
			return nil, fmt.Errorf("vnassign: constraint references unknown message %q", c.B)
		}
		if c.A == c.B {
			return nil, fmt.Errorf("vnassign: constraint %q vs itself is unsatisfiable", c.A)
		}
	}

	a := AssignFromAnalysis(r)
	if a.Class != Class3 {
		a.Constraints = constraints
		return a, nil
	}

	// Rebuild the conflict graph with the deadlock pairs plus the
	// designer constraints, recolor, recomplete, and recheck Eq. 4.
	conflict := relation.NewOver(r.Names)
	pairs := slices.Clone(a.ConflictPairs)
	for _, c := range constraints {
		pairs = append(pairs, [2]string{min(c.A, c.B), max(c.A, c.B)})
	}
	for _, pr := range pairs {
		conflict.Add(pr[0], pr[1])
	}
	slices.SortFunc(pairs, func(x, y [2]string) int { return slices.Compare(x[:], y[:]) })
	coloring := graph.ColorMinimal(graph.UndirectedOf(conflict))
	numVNs := max(coloring.NumColors, 1)
	// Every constrained message is colored, so completing the
	// assignment cannot break a constraint; Eq. 4 is re-checked anyway.
	out := &Assignment{
		Protocol:      p,
		Analysis:      r,
		Class:         Class3,
		NumVNs:        numVNs,
		VN:            completeAssignment(r, coloring.Color, numVNs),
		ConflictPairs: pairs,
		Exact:         a.Exact && coloring.Exact,
		Constraints:   constraints,
	}
	if ok, _ := analysis.DeadlockFree(r, out.VN); !ok {
		// Never observed; guarded for soundness.
		return nil, fmt.Errorf("vnassign: constrained assignment failed Eq. 4 re-check")
	}
	return out, nil
}
