package protocol

import (
	"errors"
	"fmt"
)

// Validate checks the structural well-formedness of a protocol:
// declared states and messages, consistent qualifiers, sensible stalls.
// It does not judge deadlock freedom — that is the job of the analysis
// and model-checking packages (a deliberately deadlocking protocol is
// still a valid specification).
func Validate(p *Protocol) error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if p.Name == "" {
		report("protocol has no name")
	}
	if len(p.Messages) == 0 {
		report("protocol declares no messages")
	}

	// levelLegal reports whether a controller kind is attached to a
	// message tier: caches speak inner, the L2 home speaks both, and
	// the directory speaks outer in a two-level composite but inner in
	// a flat protocol (where it is the one and only home).
	twoLevel := p.L2 != nil
	levelLegal := func(k ControllerKind, l MsgLevel) bool {
		switch k {
		case CacheCtrl:
			return l == LevelInner
		case L2Ctrl:
			return true
		default:
			if twoLevel {
				return l == LevelOuter
			}
			return l == LevelInner
		}
	}

	for _, c := range p.Controllers() {
		if c == nil {
			continue
		}
		st, ok := c.States[c.Initial]
		if !ok {
			report("%s initial state %q not declared", c.Kind, c.Initial)
		} else if st.Transient {
			report("%s initial state %q is transient", c.Kind, c.Initial)
		}

		for key, t := range c.Transitions {
			cell := cellName{c.Kind, key}
			if _, ok := c.States[key.State]; !ok {
				report("%s: state not declared", cell)
				continue
			}
			ev := key.Event
			if ev.IsCore() {
				if c.Kind != CacheCtrl {
					report("%s: only caches receive core events", cell)
				}
				switch ev.Core {
				case Load, Store, Replacement:
				default:
					report("%s: unknown core event %q", cell, ev.Core)
				}
			} else {
				m, ok := p.Messages[ev.Msg]
				if !ok {
					report("%s: message %q not declared", cell, ev.Msg)
				} else if !levelLegal(c.Kind, m.Level) {
					report("%s: %s controller cannot receive %s-level message %q",
						cell, c.Kind, m.Level, ev.Msg)
				} else if ev.Qual != QNone {
					legal := false
					for _, q := range m.Qual.Qualifiers() {
						if q == ev.Qual {
							legal = true
							break
						}
					}
					if !legal {
						report("%s: qualifier %q not produced by message %q (kind %d)",
							cell, ev.Qual, ev.Msg, m.Qual)
					}
				}
			}

			if t.Stall {
				if len(t.Actions) > 0 || t.Next != "" {
					report("%s: stall cell must not have actions or a next state", cell)
				}
				if ev.IsCore() {
					// A "stall" on a core event just means the core
					// retries; it never blocks a queue. Authors write
					// it for table fidelity; it is legal.
					continue
				}
				if st, ok := c.States[key.State]; ok && !st.Transient {
					report("%s: message stall in stable state (no pending transaction to wait for)", cell)
				}
				continue
			}

			if t.Next != "" {
				if _, ok := c.States[t.Next]; !ok {
					report("%s: next state %q not declared", cell, t.Next)
				}
			}
			for _, a := range t.Actions {
				if a.Kind == ASend {
					if m, ok := p.Messages[a.Msg]; !ok {
						report("%s: sends undeclared message %q", cell, a.Msg)
					} else if !levelLegal(c.Kind, m.Level) {
						report("%s: %s controller cannot send %s-level message %q",
							cell, c.Kind, m.Level, a.Msg)
					}
					if a.WithAcks && (a.Inherit || a.ReqSaved) || a.Inherit && a.ReqSaved {
						report("%s: send of %q carries more than one of WithAcks, Inherit and ReqSaved", cell, a.Msg)
					}
					if a.WithAcks && c.Kind == CacheCtrl {
						report("%s: WithAcks send outside directory", cell)
					}
					if (a.To == ToOwner || a.To == ToSharers) && c.Kind == CacheCtrl {
						report("%s: destination %s only resolvable at directory", cell, a.To)
					}
					if a.To == ToSaved && c.Kind != CacheCtrl {
						report("%s: destination %s only resolvable at cache", cell, a.To)
					}
					if a.ReqSaved && c.Kind != CacheCtrl {
						report("%s: ReqSaved send outside cache", cell)
					}
				} else {
					switch {
					case a.Kind == ACopyToMem:
						// Legal in every controller.
					case a.Kind == ARecordSaved && c.Kind != CacheCtrl:
						report("%s: %s is a cache action", cell, a.Kind)
					case a.Kind != ARecordSaved && c.Kind == CacheCtrl:
						report("%s: bookkeeping action %s outside directory", cell, a.Kind)
					}
				}
			}
		}
	}

	// Every declared message must be sent somewhere and received
	// somewhere, otherwise the spec is suspicious (typo'd name).
	sent := make(map[string]bool)
	received := make(map[string]bool)
	for _, c := range p.Controllers() {
		if c == nil {
			continue
		}
		for key, t := range c.Transitions {
			if !key.Event.IsCore() {
				received[key.Event.Msg] = true
			}
			for _, a := range t.Actions {
				if a.Kind == ASend {
					sent[a.Msg] = true
				}
			}
		}
	}
	for _, name := range p.msgOrder {
		if !sent[name] {
			report("message %q is never sent", name)
		}
		if !received[name] {
			report("message %q is never received", name)
		}
		if p.Messages[name].Level == LevelOuter && !twoLevel {
			report("message %q is outer-level but the protocol has no L2 controller", name)
		}
	}

	return errors.Join(errs...)
}

// cellName names a table cell in Validate's messages, "cache cell
// (IS_D, Inv)". It is formatted only when a message is reported, so a
// valid table formats nothing.
type cellName struct {
	kind ControllerKind
	key  TransKey
}

func (c cellName) String() string {
	return fmt.Sprintf("%s cell (%s, %s)", c.kind, c.key.State, c.key.Event)
}
