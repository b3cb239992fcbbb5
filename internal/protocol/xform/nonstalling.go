// Package xform mechanically derives new protocols from existing
// ones: NonStalling replaces every stall-on-receive transition with an
// explicit replay message exchange, and Compose stacks an L1 protocol
// under an L2 home node to form a two-level composite. Both transforms
// produce ordinary protocol.Protocol values that the static analysis,
// the VN-assignment algorithm, and the machine/mc stack accept
// unchanged — they are how the repository grows the paper's Table I
// family beyond the hand-written built-ins.
package xform

import (
	"fmt"
	"sort"

	"minvn/internal/protocol"
)

// ReplayPrefix names the synthesized replay message of a stalled
// message: Replay-<m> is the nack/replay form of m.
const ReplayPrefix = "Replay-"

// NonStallingSuffix is appended to the protocol name by NonStalling.
const NonStallingSuffix = "_nonstalling"

// NonStalling derives the non-stalling variant of p: every transition
// that stalls a message reception is split into an explicit replay —
// the controller consumes the message and re-enqueues it to itself as
// Replay-<m>, so the head of the virtual network's input queue never
// blocks. Reception of Replay-<m> mirrors reception of m in every
// state, which preserves the causes structure the analysis consumes;
// the stalls relation of the result is empty, so its waits relation is
// empty and one virtual network provably suffices (Eq. 4 holds
// trivially). The transform trades queue separation for replay
// traffic: deadlock freedom no longer needs VNs, at the cost of
// recirculating messages the controller cannot yet process.
//
// Core-event stalls are kept: a "stalled" processor event just means
// the core retries and never blocks a queue (paper §II-E), so it
// contributes nothing to the stalls relation.
//
// The transform refuses protocols that stall a message with reception
// ack arithmetic (QualDataSource, QualAckUnit, or an AckUnit role):
// consuming such a message updates the receiver's ack counter, so a
// replayed copy would be double-counted. No built-in stalls one —
// those messages are what transient states wait *for*.
func NonStalling(p *protocol.Protocol) (*protocol.Protocol, error) {
	// Which messages does some controller stall?
	stalled := map[string]bool{}
	for _, c := range p.Controllers() {
		for key, t := range c.Transitions {
			if t.Stall && !key.Event.IsCore() {
				stalled[key.Event.Msg] = true
			}
		}
	}
	for m := range stalled {
		spec := p.Messages[m]
		if spec == nil {
			return nil, fmt.Errorf("xform: stalled message %q not declared", m)
		}
		if spec.Qual == protocol.QualDataSource || spec.Qual == protocol.QualAckUnit ||
			spec.Ack == protocol.AckUnit {
			return nil, fmt.Errorf(
				"xform: cannot split stall on %q: reception performs ack arithmetic, a replay would double-count", m)
		}
		if _, clash := p.Messages[ReplayPrefix+m]; clash {
			return nil, fmt.Errorf("xform: replay name %q already declared", ReplayPrefix+m)
		}
	}
	stalledNames := make([]string, 0, len(stalled))
	for m := range stalled {
		stalledNames = append(stalledNames, m)
	}
	sort.Strings(stalledNames)

	b := protocol.NewBuilder(p.Name + NonStallingSuffix)
	for _, name := range p.MessageNames() {
		b.Declare(*p.Messages[name])
	}
	for _, name := range stalledNames {
		m := *p.Messages[name]
		m.Name = ReplayPrefix + name
		b.Declare(m)
	}

	// requeue consumes msg and re-enqueues it to the sender as its
	// replay. Inherit keeps a carried ack count on the replay; the
	// machine's ToSelf send keeps the original Src and Req, so the
	// replay is the same message under a new name.
	requeue := func(msg string) protocol.Transition {
		return protocol.Transition{Actions: []protocol.Action{{
			Kind: protocol.ASend, Msg: ReplayPrefix + msg, To: protocol.ToSelf, Inherit: true,
		}}}
	}
	for _, c := range p.Controllers() {
		cb := b.Controller(c.Kind, c.Initial)
		for _, name := range c.StateNames() {
			cb.Declare(*c.States[name])
		}
		// First pass: copy every cell, converting message stalls into
		// replay requeues.
		c.EachCell(func(st string, ev protocol.Event, t *protocol.Transition) {
			if t.Stall && !ev.IsCore() {
				cb.Set(st, ev, requeue(ev.Msg))
			} else {
				cb.Set(st, ev, *t)
			}
		})
		// Second pass: mirror every cell of a stalled message under its
		// replay name, so Replay-<m> is received exactly like m in
		// every state — including the converted stall cells, whose
		// mirror re-requeues the replay until the state changes.
		c.EachCell(func(st string, ev protocol.Event, t *protocol.Transition) {
			if ev.IsCore() || !stalled[ev.Msg] {
				return
			}
			mirror := protocol.Event{Msg: ReplayPrefix + ev.Msg, Qual: ev.Qual}
			if t.Stall {
				cb.Set(st, mirror, requeue(ev.Msg))
			} else {
				cb.Set(st, mirror, *t)
			}
		})
	}

	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("xform: non-stalling %s: %w", p.Name, err)
	}
	return out, nil
}
