// Package ptest is the randomized differential-testing harness for
// the whole analysis pipeline: it manufactures well-formed random
// protocols (from-scratch synthesis plus guided mutation of the
// built-ins), pushes each one through relation construction, the Eq. 4
// acyclicity check, minimum-VN assignment, and model checking under
// the assigned mapping with every search engine, and cross-validates
// the static and dynamic answers against each other. Violations are
// delta-debugged down to minimal repro protocols and emitted as
// standalone artifacts.
//
// The three oracles (see RunCase):
//
//	soundness:  the analysis said deadlock-free (Eq. 4) under the
//	            assignment, but the checker found a VN deadlock;
//	parity:     the seq and pipeline engines disagree on the
//	            same input;
//	assignment: the checker deadlocks under the k VNs the assignment
//	            claimed sufficient.
package ptest

import (
	"fmt"

	"minvn/internal/protocol"
)

// TransSpec is one table cell of either controller.
type TransSpec struct {
	Ctrl    protocol.ControllerKind
	State   string
	Event   protocol.Event
	Stall   bool
	Next    string
	Actions []protocol.Action
}

// CtrlSpec is one controller's declaration (cells live in Spec.Trans).
type CtrlSpec struct {
	Initial string
	States  []protocol.State
	// Events preserves the source table's column order so a lifted
	// protocol rebuilds byte-identically; stale entries (left behind
	// by shrinking) are harmless and ignored by the builder.
	Events []protocol.Event
}

// Spec is a fully mutable protocol description: the generator and the
// shrinker edit Specs, and Build turns a Spec back into a validated
// *protocol.Protocol through the ordinary builder (so every Spec that
// builds has passed protocol.Validate).
type Spec struct {
	Name  string
	Msgs  []protocol.Message
	Cache CtrlSpec
	Dir   CtrlSpec
	// L2 is present (non-empty States) only for two-level composites.
	L2    CtrlSpec
	Trans []TransSpec
}

// TwoLevel reports whether the spec carries an L2 controller.
func (s *Spec) TwoLevel() bool { return len(s.L2.States) > 0 }

// ctrl returns the controller spec for a kind.
func (s *Spec) ctrl(kind protocol.ControllerKind) *CtrlSpec {
	switch kind {
	case protocol.DirCtrl:
		return &s.Dir
	case protocol.L2Ctrl:
		return &s.L2
	default:
		return &s.Cache
	}
}

// ctrlKinds lists the controller kinds present in the spec.
func (s *Spec) ctrlKinds() []protocol.ControllerKind {
	kinds := []protocol.ControllerKind{protocol.CacheCtrl, protocol.DirCtrl}
	if s.TwoLevel() {
		kinds = append(kinds, protocol.L2Ctrl)
	}
	return kinds
}

// FromProtocol lifts a built protocol into an editable Spec, visiting
// cells in the protocol's own deterministic table order.
func FromProtocol(p *protocol.Protocol) *Spec {
	s := &Spec{Name: p.Name}
	for _, name := range p.MessageNames() {
		s.Msgs = append(s.Msgs, *p.Messages[name])
	}
	for _, c := range p.Controllers() {
		cs := s.ctrl(c.Kind)
		cs.Initial = c.Initial
		cs.Events = c.EventOrder()
		for _, name := range c.StateNames() {
			cs.States = append(cs.States, *c.States[name])
		}
		c.EachCell(func(st string, ev protocol.Event, t *protocol.Transition) {
			s.Trans = append(s.Trans, TransSpec{
				Ctrl:    c.Kind,
				State:   st,
				Event:   ev,
				Stall:   t.Stall,
				Next:    t.Next,
				Actions: append([]protocol.Action(nil), t.Actions...),
			})
		})
	}
	return s
}

// Clone deep-copies the spec.
func (s *Spec) Clone() *Spec {
	out := &Spec{
		Name:  s.Name,
		Msgs:  append([]protocol.Message(nil), s.Msgs...),
		Cache: s.Cache.clone(),
		Dir:   s.Dir.clone(),
		L2:    s.L2.clone(),
	}
	out.Trans = make([]TransSpec, len(s.Trans))
	for i, t := range s.Trans {
		t.Actions = append([]protocol.Action(nil), t.Actions...)
		out.Trans[i] = t
	}
	return out
}

func (cs CtrlSpec) clone() CtrlSpec {
	return CtrlSpec{
		Initial: cs.Initial,
		States:  append([]protocol.State(nil), cs.States...),
		Events:  append([]protocol.Event(nil), cs.Events...),
	}
}

// NumTransitions counts table cells (stalls included) — the size
// metric the shrinker minimizes and the self-test bounds.
func (s *Spec) NumTransitions() int { return len(s.Trans) }

// Build assembles and validates the protocol. Any structural problem
// (orphaned message, undeclared state, stall with actions, …) comes
// back as an error exactly as it would for a hand-written table.
func (s *Spec) Build() (*protocol.Protocol, error) {
	if len(s.Cache.States) == 0 || len(s.Dir.States) == 0 {
		return nil, fmt.Errorf("ptest: spec %q has an empty controller", s.Name)
	}
	b := protocol.NewBuilder(s.Name)
	for _, m := range s.Msgs {
		b.Declare(m)
	}
	var cbs [protocol.L2Ctrl + 1]*protocol.ControllerBuilder
	for _, kind := range s.ctrlKinds() {
		cs := s.ctrl(kind)
		cbs[kind] = b.Controller(kind, cs.Initial).Declare(cs.States...).Columns(cs.Events...)
	}
	for _, t := range s.Trans {
		if t.Ctrl < 0 || int(t.Ctrl) >= len(cbs) || cbs[t.Ctrl] == nil {
			return nil, fmt.Errorf("ptest: spec %q has %s cells but no %s states", s.Name, t.Ctrl, t.Ctrl)
		}
		cbs[t.Ctrl].Set(t.State, t.Event, protocol.Transition{Stall: t.Stall, Actions: t.Actions, Next: t.Next})
	}
	return b.Build()
}

// hasMsg reports whether name is declared.
func (s *Spec) hasMsg(name string) bool {
	for _, m := range s.Msgs {
		if m.Name == name {
			return true
		}
	}
	return false
}

// removeTransAt deletes the i-th cell.
func (s *Spec) removeTransAt(i int) {
	s.Trans = append(s.Trans[:i], s.Trans[i+1:]...)
}

// dropMessage removes a message declaration along with every cell
// receiving it and every send action naming it.
func (s *Spec) dropMessage(name string) {
	msgs := s.Msgs[:0]
	for _, m := range s.Msgs {
		if m.Name != name {
			msgs = append(msgs, m)
		}
	}
	s.Msgs = msgs
	trans := s.Trans[:0]
	for _, t := range s.Trans {
		if !t.Event.IsCore() && t.Event.Msg == name {
			continue
		}
		acts := t.Actions[:0]
		for _, a := range t.Actions {
			if a.Kind == protocol.ASend && a.Msg == name {
				continue
			}
			acts = append(acts, a)
		}
		t.Actions = acts
		trans = append(trans, t)
	}
	s.Trans = trans
}

// dropState removes a state from the given controller: its cells go
// away and transitions targeting it become stay-transitions. The
// initial state is never dropped (the caller guards, but be safe).
func (s *Spec) dropState(kind protocol.ControllerKind, name string) {
	cs := s.ctrl(kind)
	if cs.Initial == name {
		return
	}
	states := cs.States[:0]
	for _, st := range cs.States {
		if st.Name != name {
			states = append(states, st)
		}
	}
	cs.States = states
	trans := s.Trans[:0]
	for _, t := range s.Trans {
		if t.Ctrl == kind && t.State == name {
			continue
		}
		if t.Ctrl == kind && t.Next == name {
			t.Next = ""
		}
		trans = append(trans, t)
	}
	s.Trans = trans
}

// normalize removes structure that Validate would reject anyway —
// messages that are no longer both sent and received, and states with
// no remaining references — iterating to a fixpoint so one removal's
// cascade is fully applied. It is the bridge that lets the shrinker
// delete a transition and have the orphaned vocabulary follow.
func (s *Spec) normalize() {
	for changed := true; changed; {
		changed = false
		sent := map[string]bool{}
		received := map[string]bool{}
		for _, t := range s.Trans {
			if !t.Event.IsCore() {
				received[t.Event.Msg] = true
			}
			for _, a := range t.Actions {
				if a.Kind == protocol.ASend {
					sent[a.Msg] = true
				}
			}
		}
		for _, m := range s.Msgs {
			if !sent[m.Name] || !received[m.Name] {
				s.dropMessage(m.Name)
				changed = true
				break
			}
		}
		if changed {
			continue
		}
		for _, kind := range s.ctrlKinds() {
			cs := *s.ctrl(kind)
			referenced := map[string]bool{cs.Initial: true}
			for _, t := range s.Trans {
				if t.Ctrl != kind {
					continue
				}
				referenced[t.State] = true
				if t.Next != "" {
					referenced[t.Next] = true
				}
			}
			for _, st := range cs.States {
				if !referenced[st.Name] {
					s.dropState(kind, st.Name)
					changed = true
					break
				}
			}
			if changed {
				break
			}
		}
	}
}
