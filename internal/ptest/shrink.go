package ptest

import "minvn/internal/protocol"

// ShrinkResult reports what the delta debugger achieved.
type ShrinkResult struct {
	Spec     *Spec // minimized spec (still reproducing)
	Proto    *protocol.Protocol
	Attempts int // candidate protocols tried
	Removed  int // accepted removals
}

// Shrink delta-debugs a violating spec: it greedily removes
// transitions, messages, and states while repro keeps returning true,
// iterating to a fixpoint. Each candidate edit is normalized (orphaned
// vocabulary cascades away) and re-validated through the ordinary
// builder before the repro predicate runs, so the result is always a
// well-formed protocol. maxAttempts bounds the total candidates tried
// (0 = 2000).
func Shrink(s *Spec, repro func(*protocol.Protocol) bool, maxAttempts int) *ShrinkResult {
	if maxAttempts <= 0 {
		maxAttempts = 2000
	}
	cur := s.Clone()
	curProto, err := cur.Build()
	if err != nil || !repro(curProto) {
		// The input must reproduce; otherwise shrinking is meaningless.
		return &ShrinkResult{Spec: cur, Proto: curProto}
	}
	res := &ShrinkResult{}

	try := func(edit func(*Spec)) bool {
		if res.Attempts >= maxAttempts {
			return false
		}
		cand := cur.Clone()
		edit(cand)
		cand.normalize()
		p, err := cand.Build()
		if err != nil {
			return false
		}
		res.Attempts++
		if !repro(p) {
			return false
		}
		cur, curProto = cand, p
		res.Removed++
		return true
	}

	for changed := true; changed && res.Attempts < maxAttempts; {
		changed = false
		// Transitions, highest index first so earlier indices stay
		// valid across one sweep.
		for i := len(cur.Trans) - 1; i >= 0; i-- {
			i := i
			if i >= len(cur.Trans) {
				continue
			}
			if try(func(c *Spec) { c.removeTransAt(i) }) {
				changed = true
			}
		}
		for _, m := range append([]protocol.Message(nil), cur.Msgs...) {
			name := m.Name
			if !cur.hasMsg(name) {
				continue
			}
			if try(func(c *Spec) { c.dropMessage(name) }) {
				changed = true
			}
		}
		for _, kind := range cur.ctrlKinds() {
			cs := *cur.ctrl(kind)
			for _, st := range append([]protocol.State(nil), cs.States...) {
				if st.Name == cs.Initial {
					continue
				}
				name, k := st.Name, kind
				if try(func(c *Spec) { c.dropState(k, name) }) {
					changed = true
				}
			}
		}
	}
	res.Spec, res.Proto = cur, curProto
	return res
}
