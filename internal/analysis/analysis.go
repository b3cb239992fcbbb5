// Package analysis computes the paper's static relations over a
// protocol's message names (paper §IV):
//
//   - causes:  m1 → m2 when m1 can appear before m2 in one coherence
//     transaction (§IV-A/B). Extracted from the transition tables: a
//     controller that sends m2 while processing m1 contributes the
//     edge, and a deferred response (ToSaved) is attributed to the
//     forwarded request that was recorded, not to the message whose
//     reception finally triggered the send.
//   - stalls:  m0 → m1 when a controller that entered a transient
//     state because of m0's transaction can stall m1 (§IV-C/D). m0 is
//     a "transaction root" of the transient state: the message whose
//     reception moved the controller there, or the request the
//     controller itself issued when it left a stable state.
//   - waits = stalls⁻¹ ; causes⁺ (Eq. 3).
//
// The queues relation (§IV-E) depends on the VN assignment and is
// computed by QueuesUnder.
//
// All four are bit matrices over one relation.Universe of the
// protocol's message names (Result.Names); the tables are read once per
// stage, every name resolved to its index as it is met.
package analysis

import (
	"fmt"

	"minvn/internal/obs"
	"minvn/internal/protocol"
	"minvn/internal/relation"
)

// Result bundles the static relations of a protocol.
type Result struct {
	Protocol *protocol.Protocol
	// Names interns the protocol's message names; Causes, Stalls and
	// Waits are indexed over it.
	Names  *relation.Universe
	Causes *relation.Relation
	Stalls *relation.Relation
	Waits  *relation.Relation
	// Stallable lists the message names that some controller can
	// stall, sorted. Only these can block a virtual network.
	Stallable []string
	// Roots maps each controller's transient states to their
	// transaction roots, for diagnostics ([controllerKind][state]).
	Roots map[protocol.ControllerKind]map[string][]string
}

// Analyze computes the static relations for p, which must be valid
// (as protocol.Builder.Build leaves it): a table that names an
// undeclared message panics.
func Analyze(p *protocol.Protocol) *Result {
	return AnalyzeObserved(p, nil)
}

// AnalyzeObserved is Analyze with per-stage wall-clock telemetry: the
// causes extraction, the stalls (transient-roots) computation, and the
// waits closure each record a stage on tl. A nil timeline records
// nothing.
func AnalyzeObserved(p *protocol.Protocol, tl *obs.Timeline) *Result {
	r := &Result{
		Protocol: p,
		Names:    relation.NewUniverse(p.MessageNames()...),
		Roots:    make(map[protocol.ControllerKind]map[string][]string),
	}
	tl.Time("analysis/causes", func() {
		r.Causes = r.computeCauses()
	})

	tl.Time("analysis/stalls", func() {
		r.Stalls = relation.NewOver(r.Names)
		for _, c := range p.Controllers() {
			r.Roots[c.Kind] = r.transientRoots(c)
		}
	})

	tl.Time("analysis/waits", func() {
		// waits = stalls⁻¹ ; causes⁺  (Eq. 3).
		stalledBy := r.Stalls.Inverse()
		r.Waits = stalledBy.Compose(r.Causes.TransitiveClosure())
		for i := 0; i < r.Names.Len(); i++ {
			if !stalledBy.Row(i).Empty() {
				r.Stallable = append(r.Stallable, r.Names.Name(i))
			}
		}
	})
	return r
}

// index returns the index of a message name the tables use.
func (r *Result) index(name string) int {
	i, ok := r.Names.Index(name)
	if !ok {
		panic(fmt.Sprintf("analysis: %s uses undeclared message %q", r.Protocol.Name, name))
	}
	return i
}

// computeCauses extracts the causes relation from the tables. For
// every controller transition triggered by receiving message m that
// sends m', we add m → m' (§IV-B: "when a message is sent to a
// controller, we again trace the sequence of messages for every state
// that the controller could be in" — iterating over all states is
// exactly that conservative trace). Core-event transitions introduce
// transaction roots (requests) and contribute no incoming edge.
//
// Deferred responses are the exception: a send to ToSaved answers a
// forwarded request recorded earlier by ARecordSaved, so the edge is
// attributed to every message that can be recorded, and no edge is
// added from the message whose reception triggered the send.
func (r *Result) computeCauses() *relation.Relation {
	causes := relation.NewOver(r.Names)
	for _, c := range r.Protocol.Controllers() {
		// recorded: messages that can be recorded into the saved
		// register. answers: everything a deferral-completion
		// transition sends — it answers the recorded forwarded request,
		// so all of its sends belong to that transaction. We
		// conservatively keep the edge from the triggering message too
		// (footnote 3: over-approximation is safe).
		recorded, answers := r.Names.NewRow(), r.Names.NewRow()
		for key, t := range c.Transitions {
			if len(t.Actions) == 0 {
				continue
			}
			from := -1
			if !key.Event.IsCore() {
				from = r.index(key.Event.Msg)
			}
			deferred := false
			for i := range t.Actions {
				a := &t.Actions[i]
				if a.Kind == protocol.ARecordSaved && from >= 0 {
					recorded.Set(from)
				}
				if a.Kind == protocol.ASend && a.To == protocol.ToSaved {
					deferred = true
				}
			}
			for i := range t.Actions {
				a := &t.Actions[i]
				if a.Kind != protocol.ASend {
					continue
				}
				sent := r.index(a.Msg)
				if deferred {
					answers.Set(sent)
				}
				if from >= 0 && a.To != protocol.ToSaved {
					causes.Set(from, sent)
				}
			}
		}
		for m := recorded.Next(-1); m >= 0; m = recorded.Next(m) {
			causes.Row(m).Or(answers)
		}
	}
	return causes
}

// transientRoots computes, for every transient state of c, the set of
// messages that can root the transaction the controller is processing
// while in that state: the message received on entry from a stable
// state, the request sent on entry from a stable state (core-event
// entries), or — transitively — the roots of the transient state the
// controller came from (§IV-D). Every message c stalls in such a state
// is added to r.Stalls under each of the state's roots.
func (r *Result) transientRoots(c *protocol.Controller) map[string][]string {
	// Two sets of messages per transient state, cut from one slab: its
	// roots, and the messages stalled in it. transient numbers the
	// transient states from 1, so 0 reads "not transient".
	words := (r.Names.Len() + 63) / 64
	transient := make(map[string]int, len(c.States))
	for name, st := range c.States {
		if st.Transient {
			transient[name] = len(transient) + 1
		}
	}
	slab := make(relation.Row, 2*words*len(transient))
	roots := func(k int) relation.Row { return slab[(2*k-2)*words : (2*k-1)*words] }
	stalled := func(k int) relation.Row { return slab[(2*k-1)*words : 2*k*words] }

	// One pass over the table: seed the entries from stable states,
	// and note the transient-to-transient moves and the stalled cells.
	var moves [][2]int
	for key, t := range c.Transitions {
		if t.Stall {
			if from := transient[key.State]; from > 0 && !key.Event.IsCore() {
				stalled(from).Set(r.index(key.Event.Msg))
			}
			continue
		}
		if t.Next == "" {
			continue
		}
		to := transient[t.Next]
		if to == 0 {
			continue
		}
		if from := transient[key.State]; from > 0 {
			if from != to {
				moves = append(moves, [2]int{from, to})
			}
		} else if !key.Event.IsCore() {
			roots(to).Set(r.index(key.Event.Msg))
		} else {
			for i := range t.Actions {
				if a := &t.Actions[i]; a.Kind == protocol.ASend {
					roots(to).Set(r.index(a.Msg))
				}
			}
		}
	}

	// Propagate through the moves until a fixpoint: the ongoing
	// transaction is unchanged.
	for changed := true; changed; {
		changed = false
		for _, m := range moves {
			from, to := roots(m[0]), roots(m[1])
			before := to.Count()
			to.Or(from)
			changed = changed || to.Count() != before
		}
	}

	out := make(map[string][]string, len(transient))
	names := make([]string, 0, slab.Count()) // an upper bound: the slab holds the stalled sets too
	for state, k := range transient {
		first := len(names)
		set := roots(k)
		for root := set.Next(-1); root >= 0; root = set.Next(root) {
			r.Stalls.Row(root).Or(stalled(k))
			names = append(names, r.Names.Name(root))
		}
		out[state] = names[first:len(names):len(names)]
	}
	return out
}

// QueuesUnder computes the queues relation (§IV-E) for a given VN
// assignment: m2 → m1 when m2 can be queued behind a stalled m1, i.e.
// m1 is stallable and both map to the same VN. The paper's
// conservative ICN assumption means any same-VN message can queue
// behind any other, including a message behind another instance of its
// own name (that self-pair is what makes Class 2 protocols
// unsalvageable). A message missing from vn is on VN 0, so a nil vn is
// the single-VN assignment.
func QueuesUnder(r *Result, vn map[string]int) *relation.Relation {
	n := r.Names.Len()
	vnOf := make([]int, n)
	for i := range vnOf {
		vnOf[i] = vn[r.Names.Name(i)]
	}
	q := relation.NewOver(r.Names)
	for _, m1 := range r.Stallable {
		i1 := r.index(m1)
		for i2 := 0; i2 < n; i2++ {
			if vnOf[i2] == vnOf[i1] {
				q.Set(i2, i1)
			}
		}
	}
	return q
}

// SingleVN returns the all-zero VN assignment over p's messages — the
// starting point of the paper's algorithm ("for this initial
// computation, we assume one VN").
func SingleVN(p *protocol.Protocol) map[string]int {
	vn := make(map[string]int, len(p.Messages))
	for _, m := range p.MessageNames() {
		vn[m] = 0
	}
	return vn
}

// UniqueVNs returns the assignment giving every message its own VN —
// used when checking for protocol deadlocks (§V-A) and Class-2
// inevitability (§V-E).
func UniqueVNs(p *protocol.Protocol) map[string]int {
	vn := make(map[string]int, len(p.Messages))
	for i, m := range p.MessageNames() {
		vn[m] = i
	}
	return vn
}

// Dependencies returns waits ; (waits ∪ queues)* under a VN
// assignment: the relation whose acyclicity is the paper's sufficient
// condition (Eq. 4) and, under a single VN, the dependency graph of
// Eq. 5.
func Dependencies(r *Result, vn map[string]int) *relation.Relation {
	waits := r.Waits.Over(r.Names)
	star := waits.Union(QueuesUnder(r, vn)).TransitiveClosure()
	for i := 0; i < r.Names.Len(); i++ {
		star.Set(i, i)
	}
	return waits.Compose(star)
}

// DeadlockFree evaluates the paper's sufficient condition (Eq. 4)
// under a VN assignment: acyclic(waits ; (waits ∪ queues)*). It
// returns true when no cycle exists, plus a witness cycle otherwise.
func DeadlockFree(r *Result, vn map[string]int) (bool, []string) {
	w := Dependencies(r, vn).CycleWitness()
	return w == nil, w
}
