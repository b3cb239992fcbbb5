package xform

import (
	"fmt"
	"strings"

	"minvn/internal/protocol"
)

// Message-name prefixes of the two tiers of a composite.
const (
	InnerPrefix = "i."
	OuterPrefix = "o."
)

// ProductSep joins the two components of an L2 product state name:
// "<inner-dir-state>|<outer-cache-state>".
const ProductSep = "|"

// Compose stacks the inner protocol's L1 caches under an L2 home node
// that is itself a cache of the outer protocol. The composite's cache
// controller is inner's cache and its directory controller is outer's
// directory, with messages renamed onto disjoint tiers (InnerPrefix /
// OuterPrefix). The L2 controller is the product of inner's directory
// and outer's cache: in state "d1|c2" it serves inner requests using
// d1's row whenever the outer cache state c2 holds the permission the
// transition hands out, and otherwise launches c2's Load/Store request
// toward the outer directory and re-enqueues the inner request to
// itself until the outer response arrives.
//
// Permission accounting is mechanical: an inner-directory transition
// needs write permission when it records a new owner (ASetOwnerToReq),
// read permission when it supplies a data response, and none
// otherwise; an outer cache state holds a permission when the
// corresponding core event (Store/Load) is a silent transition (no
// sends — a hit, or a silent upgrade such as MESI's E→M).
//
// The L2 is inclusive and non-revoking: outer forwarded requests are
// stalled while the inner directory component is away from its initial
// state (inner caches hold copies the L2 cannot recall), which is the
// composite's source of cross-level waits edges; the inner level's
// eviction transitions are what release them. Product states whose
// inner component is non-initial are therefore transient.
//
// A final prune removes product states unreachable in the static
// transition graph and message tiers that no remaining transition
// sends — the outer eviction vocabulary, for example, since the L2
// never issues Replacement.
//
// Both bases must be flat. The outer base's cache must not use the
// saved-requestor register (ARecordSaved/ToSaved are cache-only
// actions, unavailable on an L2 home): compose with blocking outer
// variants.
func Compose(inner, outer *protocol.Protocol, name string) (*protocol.Protocol, error) {
	if inner.TwoLevel() || outer.TwoLevel() {
		return nil, fmt.Errorf("xform: compose requires flat bases (%s, %s)", inner.Name, outer.Name)
	}
	for key, t := range outer.Cache.Transitions {
		for _, a := range t.Actions {
			if a.Kind == protocol.ARecordSaved || a.ReqSaved || (a.Kind == protocol.ASend && a.To == protocol.ToSaved) {
				return nil, fmt.Errorf(
					"xform: outer base %s uses the saved-requestor register (cell %s/%s); compose with a blocking outer variant",
					outer.Name, key.State, key.Event)
			}
		}
		if ev := key.Event; !ev.IsCore() {
			if q := outer.Messages[ev.Msg].Qual; q == protocol.QualOwnership || q == protocol.QualLastSharer {
				return nil, fmt.Errorf(
					"xform: outer base %s cache receives directory-book-qualified message %q, unresolvable at an L2 home",
					outer.Name, ev.Msg)
			}
		}
	}

	caches := specFromController(inner.Cache, InnerPrefix)
	dir := specFromController(outer.Dir, OuterPrefix)
	l2, err := productSpec(inner, outer)
	if err != nil {
		return nil, err
	}

	msgs := composeMessages(inner, outer)
	specs := []*ctrlSpec{caches, l2, dir}
	prune(specs, msgs)

	b := protocol.NewBuilder(name)
	for _, m := range msgs {
		if !m.dead {
			decl := *m.spec
			decl.Name, decl.Level = m.name, m.level
			b.Declare(decl)
		}
	}
	for _, sp := range specs {
		cb := b.Controller(sp.kind, sp.initial)
		for i, st := range sp.states {
			if !sp.dead[i] {
				cb.Declare(st)
			}
		}
		for _, c := range sp.cells {
			if c.t != nil {
				cb.Set(c.key.State, c.key.Event, *c.t)
			}
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("xform: compose %s under %s: %w", inner.Name, outer.Name, err)
	}
	return p, nil
}

// ctrlSpec is the mutable intermediate form of one controller table,
// pruned before it is re-authored through the builder.
type ctrlSpec struct {
	kind    protocol.ControllerKind
	initial string
	states  []protocol.State
	dead    []bool // by states index, set by prune
	// cells in table order; prune sets a removed cell's t to nil. The
	// spec builders visit each (state, event) once — states are unique
	// and a controller's columns never repeat — so a key repeats only
	// when two product names collide, which Build rejects as a state
	// declared twice.
	cells []specCell
}

type specCell struct {
	key protocol.TransKey
	t   *protocol.Transition
}

func (sp *ctrlSpec) add(state string, ev protocol.Event, t *protocol.Transition) {
	sp.cells = append(sp.cells, specCell{protocol.TransKey{State: state, Event: ev}, t})
}

// specFromController copies a flat controller verbatim with its
// messages moved onto a prefix tier.
func specFromController(c *protocol.Controller, prefix string) *ctrlSpec {
	sp := &ctrlSpec{kind: c.Kind, initial: c.Initial}
	for _, name := range c.StateNames() {
		sp.states = append(sp.states, *c.States[name])
	}
	c.EachCell(func(st string, ev protocol.Event, t *protocol.Transition) {
		sp.add(st, renameEvent(prefix, ev), mapCell(t, prefix, func(n string) string { return n }))
	})
	return sp
}

// renameEvent moves a message event onto a prefix tier; core events
// pass through.
func renameEvent(prefix string, ev protocol.Event) protocol.Event {
	if ev.IsCore() {
		return ev
	}
	return protocol.Event{Msg: prefix + ev.Msg, Qual: ev.Qual}
}

// mapCell rewrites a transition with prefixed send names and a mapped
// next state. Stall cells map to stall cells; next("") must be "".
func mapCell(t *protocol.Transition, prefix string, next func(string) string) *protocol.Transition {
	if t.Stall {
		return &protocol.Transition{Stall: true}
	}
	nt := &protocol.Transition{Next: next(t.Next)}
	for _, a := range t.Actions {
		if a.Kind == protocol.ASend {
			a.Msg = prefix + a.Msg
		}
		nt.Actions = append(nt.Actions, a)
	}
	return nt
}

// permission levels an inner-directory transition may require of the
// outer cache state.
type permNeed int

const (
	permNone permNeed = iota
	permRead
	permWrite
)

// needOf computes the outer permission an inner-directory transition
// requires: write when it records a new owner, read when it supplies
// data, none otherwise (forwards, nacks, eviction bookkeeping).
func needOf(inner *protocol.Protocol, t *protocol.Transition) permNeed {
	for _, a := range t.Actions {
		if a.Kind == protocol.ASetOwnerToReq {
			return permWrite
		}
	}
	for _, a := range t.Actions {
		if a.Kind == protocol.ASend && inner.Messages[a.Msg].Type == protocol.DataResponse {
			return permRead
		}
	}
	return permNone
}

// coreEventFor maps a permission to the outer-cache core event that
// acquires it.
func coreEventFor(n permNeed) protocol.Event {
	if n == permWrite {
		return protocol.CoreEv(protocol.Store)
	}
	return protocol.CoreEv(protocol.Load)
}

// productSpec builds the L2 home controller: the product of inner's
// directory and outer's cache.
func productSpec(inner, outer *protocol.Protocol) (*ctrlSpec, error) {
	d1Init := inner.Dir.Initial
	join := func(d1, c2 string) string { return d1 + ProductSep + c2 }
	orElse := func(n, cur string) string {
		if n == "" {
			return cur
		}
		return n
	}

	sp := &ctrlSpec{
		kind:    protocol.L2Ctrl,
		initial: join(d1Init, outer.Cache.Initial),
	}
	d1States, c2States := inner.Dir.StateNames(), outer.Cache.StateNames()
	d1Events, c2Events := inner.Dir.EventOrder(), outer.Cache.EventOrder()
	for _, d1 := range d1States {
		for _, c2 := range c2States {
			sp.states = append(sp.states, protocol.State{
				Name: join(d1, c2),
				Transient: inner.Dir.States[d1].Transient ||
					outer.Cache.States[c2].Transient || d1 != d1Init,
			})
		}
	}

	stall := func() *protocol.Transition { return &protocol.Transition{Stall: true} }
	for _, d1 := range d1States {
		for _, c2 := range c2States {
			ps := join(d1, c2)
			c2Transient := outer.Cache.States[c2].Transient

			// Inner tier: d1's row, gated by c2's permissions.
			for _, ev := range d1Events {
				t := inner.Dir.Lookup(d1, ev)
				if t == nil {
					continue
				}
				iev := renameEvent(InnerPrefix, ev)
				if t.Stall {
					sp.add(ps, iev, stall())
					continue
				}
				need := needOf(inner, t)
				innerNext := func(c2After string) string {
					return join(orElse(t.Next, d1), c2After)
				}
				if need == permNone {
					sp.add(ps, iev, mapCell(t, InnerPrefix,
						func(n string) string { return join(orElse(n, d1), c2) }))
					continue
				}
				if c2Transient {
					// The outer transaction that will supply the
					// permission is in flight; wait for its response.
					sp.add(ps, iev, stall())
					continue
				}
				core := coreEventFor(need)
				u := outer.Cache.Lookup(c2, core)
				if u == nil || u.Stall {
					return nil, fmt.Errorf(
						"xform: outer base %s has no usable (%s, %s) transition for an L2 launch",
						outer.Name, c2, core)
				}
				if !sends(u) {
					// Silent core transition: c2 already holds the
					// permission (possibly upgrading, e.g. E→M).
					nt := mapCell(t, InnerPrefix, func(string) string { return "" })
					nt.Next = innerNext(orElse(u.Next, c2))
					sp.add(ps, iev, nt)
					continue
				}
				if u.Next == "" {
					return nil, fmt.Errorf(
						"xform: outer base %s (%s, %s) sends without a next state", outer.Name, c2, core)
				}
				// Launch the outer request, requeue the inner one.
				launch := mapCell(u, OuterPrefix, func(string) string { return join(d1, u.Next) })
				launch.Actions = append(launch.Actions, protocol.Action{
					Kind: protocol.ASend, Msg: InnerPrefix + ev.Msg,
					To: protocol.ToSelf, Inherit: true,
				})
				sp.add(ps, iev, launch)
			}

			// Outer tier: c2's row. Forwarded requests are stalled
			// while the inner level holds copies (d1 non-initial) —
			// the L2 cannot recall inner caches, so revocation waits
			// for inner evictions.
			for _, ev := range c2Events {
				if ev.IsCore() {
					continue
				}
				u := outer.Cache.Lookup(c2, ev)
				if u == nil {
					continue
				}
				oev := renameEvent(OuterPrefix, ev)
				if outer.Messages[ev.Msg].Type == protocol.FwdRequest && d1 != d1Init {
					sp.add(ps, oev, stall())
					continue
				}
				sp.add(ps, oev, mapCell(u, OuterPrefix,
					func(n string) string { return join(d1, orElse(n, c2)) }))
			}
		}
	}
	return sp, nil
}

// composedMsg tracks one declared message of the composite through the
// prune.
type composedMsg struct {
	name  string
	spec  *protocol.Message
	level protocol.MsgLevel
	dead  bool
}

func composeMessages(inner, outer *protocol.Protocol) []*composedMsg {
	var out []*composedMsg
	for _, n := range inner.MessageNames() {
		out = append(out, &composedMsg{
			name: InnerPrefix + n, spec: inner.Messages[n], level: protocol.LevelInner,
		})
	}
	for _, n := range outer.MessageNames() {
		out = append(out, &composedMsg{
			name: OuterPrefix + n, spec: outer.Messages[n], level: protocol.LevelOuter,
		})
	}
	return out
}

// prune removes, to a greatest fixpoint, messages no fireable cell
// sends, cells triggered by such messages, and states unreachable from
// each controller's initial state through the remaining cells. A cell
// is fireable when its state is reachable and its trigger is a core
// event or a still-live message. Static reachability over-approximates
// dynamic reachability, so every dynamically possible reception keeps
// its cell.
//
// The tables are numbered once — messages by their index in msgs,
// states by their index in states — so each round is a pass over the
// cells for the messages they send and one worklist walk per
// controller.
func prune(specs []*ctrlSpec, msgs []*composedMsg) {
	msgIdx := make(map[string]int32, len(msgs))
	for i, m := range msgs {
		msgIdx[m.name] = int32(i)
	}
	live := make([]bool, len(msgs))
	for i := range live {
		live[i] = true
	}
	// A cell's trigger is coreTrigger, a message index, or
	// undeclaredTrigger for a message no tier declares (never live).
	const coreTrigger, undeclaredTrigger = -1, -2
	fireable := func(on int32) bool {
		return on == coreTrigger || (on >= 0 && live[on])
	}
	type numbered struct {
		state, next, on int32 // next is -1 for "stay" or an undeclared state
		sends           []int32
	}
	tables := make([][]numbered, len(specs))
	// start[i] is specs[i]'s initial state, -1 if it is undeclared.
	start := make([]int32, len(specs))
	// out[i][s] lists the cells of specs[i] leaving state s for a next
	// state, in cell order: the static transition graph.
	out := make([][][]int32, len(specs))
	for i, sp := range specs {
		stateIdx := make(map[string]int32, len(sp.states))
		for j, st := range sp.states {
			stateIdx[st.Name] = int32(j)
		}
		start[i] = -1
		if s, ok := stateIdx[sp.initial]; ok {
			start[i] = s
		}
		sp.dead = make([]bool, len(sp.states))
		out[i] = make([][]int32, len(sp.states))
		tables[i] = make([]numbered, len(sp.cells))
		for j, c := range sp.cells {
			n := &tables[i][j]
			// Every cell's state is in states: both spec builders
			// emit cells only for declared rows.
			n.state = stateIdx[c.key.State]
			n.next = -1
			if nx, ok := stateIdx[c.t.Next]; ok && c.t.Next != "" {
				n.next = nx
				out[i][n.state] = append(out[i][n.state], int32(j))
			}
			n.on = coreTrigger
			if !c.key.Event.IsCore() {
				n.on = undeclaredTrigger
				if m, ok := msgIdx[c.key.Event.Msg]; ok {
					n.on = m
				}
			}
			for _, a := range c.t.Actions {
				if m, ok := msgIdx[a.Msg]; ok && a.Kind == protocol.ASend {
					n.sends = append(n.sends, m)
				}
			}
		}
	}

	sent := make([]bool, len(msgs))
	var work []int32
	for {
		changed := false

		// Messages sent by fireable cells.
		clear(sent)
		for i, sp := range specs {
			for _, n := range tables[i] {
				if sp.dead[n.state] || !fireable(n.on) {
					continue
				}
				for _, m := range n.sends {
					sent[m] = true
				}
			}
		}
		for m := range live {
			if live[m] && !sent[m] {
				live[m] = false
				changed = true
			}
		}

		// States reachable through fireable cells.
		for i, sp := range specs {
			reach := make([]bool, len(sp.states))
			if start[i] >= 0 {
				reach[start[i]] = true
				work = append(work[:0], start[i])
			}
			for len(work) > 0 {
				st := work[len(work)-1]
				work = work[:len(work)-1]
				for _, j := range out[i][st] {
					if n := tables[i][j]; !reach[n.next] && fireable(n.on) {
						reach[n.next] = true
						work = append(work, n.next)
					}
				}
			}
			for st := range sp.states {
				if !reach[st] && !sp.dead[st] {
					sp.dead[st] = true
					changed = true
				}
			}
		}

		if !changed {
			break
		}
	}

	for i, sp := range specs {
		for j, n := range tables[i] {
			if sp.dead[n.state] || !fireable(n.on) {
				sp.cells[j].t = nil
			}
		}
	}
	for i, m := range msgs {
		m.dead = !live[i]
	}
}

// sends reports whether t sends a message.
func sends(t *protocol.Transition) bool {
	for _, a := range t.Actions {
		if a.Kind == protocol.ASend {
			return true
		}
	}
	return false
}

// ComposeName is the conventional name of a composite: "<inner>_under_<outer>"
// over the bases' short names.
func ComposeName(innerName, outerName string) string {
	short := func(n string) string {
		if i := strings.Index(n, "_"); i > 0 {
			return n[:i]
		}
		return n
	}
	return short(innerName) + "_under_" + short(outerName)
}
