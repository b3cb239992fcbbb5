package protocol

import (
	"errors"
	"fmt"
)

// Builder assembles a Protocol with a fluent API. Errors encountered
// while authoring are accumulated and reported by Build, so table
// definitions stay readable:
//
//	b := protocol.NewBuilder("MSI")
//	b.Message("GetS", protocol.Request)
//	c := b.Cache("I")
//	c.Stable("I", "S", "M")
//	c.Transient("IS_D")
//	c.On("I", protocol.CoreEv(protocol.Load)).
//	    Send("GetS", protocol.ToDir).Goto("IS_D")
//	c.StallOn("IS_D", protocol.MsgEv("Inv"))
//	p, err := b.Build()
//
// A table derived from another table (the codec, the xform transforms,
// ptest's specs) is assembled by value instead: Declare each message,
// take each Controller by kind, Declare its states and Set each cell.
type Builder struct {
	p    *Protocol
	errs []error
}

// NewBuilder returns a builder for a protocol with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		p: &Protocol{
			Name:     name,
			Messages: make(map[string]*Message),
		},
	}
}

// MsgOption customizes a declared message.
type MsgOption func(*Message)

// WithAckRole sets the message's ack-counting role.
func WithAckRole(r AckRole) MsgOption { return func(m *Message) { m.Ack = r } }

// WithQual sets the message's qualifier dimension.
func WithQual(k QualKind) MsgOption { return func(m *Message) { m.Qual = k } }

// WithLevel sets the message's traffic tier (two-level composites).
func WithLevel(l MsgLevel) MsgOption { return func(m *Message) { m.Level = l } }

// Message declares a static message name.
func (b *Builder) Message(name string, t MsgType, opts ...MsgOption) {
	m := Message{Name: name, Type: t}
	for _, o := range opts {
		o(&m)
	}
	b.Declare(m)
}

// Declare declares message m by value, the form a table derived from
// another table uses.
func (b *Builder) Declare(m Message) {
	if _, dup := b.p.Messages[m.Name]; dup {
		b.errs = append(b.errs, fmt.Errorf("message %q declared twice", m.Name))
		return
	}
	b.p.Messages[m.Name] = &m
	b.p.msgOrder = append(b.p.msgOrder, m.Name)
}

// Controller returns the builder of the controller of the given kind,
// creating the controller with the given initial state on first call.
func (b *Builder) Controller(kind ControllerKind, initial string) *ControllerBuilder {
	var slot **Controller
	switch kind {
	case CacheCtrl:
		slot = &b.p.Cache
	case DirCtrl:
		slot = &b.p.Dir
	case L2Ctrl:
		slot = &b.p.L2
	default:
		b.errs = append(b.errs, fmt.Errorf("unknown controller kind %d", int(kind)))
		return &ControllerBuilder{b: b, c: newController(kind, initial)}
	}
	if *slot == nil {
		*slot = newController(kind, initial)
	}
	return &ControllerBuilder{b: b, c: *slot}
}

// Cache returns the cache-controller builder.
func (b *Builder) Cache(initial string) *ControllerBuilder { return b.Controller(CacheCtrl, initial) }

// Dir returns the directory-controller builder.
func (b *Builder) Dir(initial string) *ControllerBuilder { return b.Controller(DirCtrl, initial) }

// L2 returns the L2 home-controller builder for a two-level composite.
// The L2 controller is optional; flat protocols never call this.
func (b *Builder) L2(initial string) *ControllerBuilder { return b.Controller(L2Ctrl, initial) }

func newController(kind ControllerKind, initial string) *Controller {
	return &Controller{
		Kind:        kind,
		Initial:     initial,
		States:      make(map[string]*State),
		Transitions: make(map[TransKey]*Transition),
	}
}

// Build validates the accumulated specification and returns the
// protocol, or the combined authoring/validation errors.
func (b *Builder) Build() (*Protocol, error) {
	if b.p.Cache == nil {
		b.errs = append(b.errs, errors.New("no cache controller defined"))
	}
	if b.p.Dir == nil {
		b.errs = append(b.errs, errors.New("no directory controller defined"))
	}
	if len(b.errs) == 0 {
		if err := Validate(b.p); err != nil {
			b.errs = append(b.errs, err)
		}
	}
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	return b.p, nil
}

// MustBuild is Build panicking on error; the built-in protocol
// definitions use it since they are validated by tests.
func (b *Builder) MustBuild() *Protocol {
	p, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("protocol %q: %v", b.p.Name, err))
	}
	return p
}

// ControllerBuilder authors one controller's table.
type ControllerBuilder struct {
	b *Builder
	c *Controller
}

// Stable declares stable states (table rows) in order.
func (cb *ControllerBuilder) Stable(names ...string) *ControllerBuilder {
	for _, n := range names {
		cb.Declare(State{Name: n})
	}
	return cb
}

// Transient declares transient states (table rows) in order.
func (cb *ControllerBuilder) Transient(names ...string) *ControllerBuilder {
	for _, n := range names {
		cb.Declare(State{Name: n, Transient: true})
	}
	return cb
}

// Declare declares states (table rows) by value, in order.
func (cb *ControllerBuilder) Declare(states ...State) *ControllerBuilder {
	for _, s := range states {
		if _, dup := cb.c.States[s.Name]; dup {
			cb.b.errs = append(cb.b.errs,
				fmt.Errorf("%s state %q declared twice", cb.c.Kind, s.Name))
			continue
		}
		cb.c.States[s.Name] = &s
		cb.c.stateOrder = append(cb.c.stateOrder, s.Name)
	}
	return cb
}

// Columns declares the table's column order for printing; optional.
// An event keeps its first position.
func (cb *ControllerBuilder) Columns(evs ...Event) *ControllerBuilder {
	for _, ev := range evs {
		cb.addColumn(ev)
	}
	return cb
}

func (cb *ControllerBuilder) addColumn(ev Event) {
	for _, e := range cb.c.eventOrder {
		if e == ev {
			return
		}
	}
	cb.c.eventOrder = append(cb.c.eventOrder, ev)
}

// On starts defining the cell (state, ev); finish with Goto, Stay, or
// further chained actions.
func (cb *ControllerBuilder) On(state string, ev Event) *CellBuilder {
	t := &Transition{}
	cb.setCell(state, ev, t)
	return &CellBuilder{cb: cb, t: t}
}

// StallOn marks the cell (state, ev) as a stall: the message blocks
// the head of its virtual network's input queue (paper §II-E).
func (cb *ControllerBuilder) StallOn(state string, evs ...Event) *ControllerBuilder {
	for _, ev := range evs {
		cb.setCell(state, ev, &Transition{Stall: true})
	}
	return cb
}

// Hit defines a silent local transition (e.g. a load hit): no actions,
// no state change.
func (cb *ControllerBuilder) Hit(state string, ev Event) *ControllerBuilder {
	cb.setCell(state, ev, &Transition{})
	return cb
}

// Set places a copy of t in the cell (state, ev), the form a table
// derived from another table uses. The copy is exactly t — stall flag,
// actions and next state — so Validate judges the cell as given.
func (cb *ControllerBuilder) Set(state string, ev Event, t Transition) *ControllerBuilder {
	t.Actions = append([]Action(nil), t.Actions...)
	cb.setCell(state, ev, &t)
	return cb
}

func (cb *ControllerBuilder) setCell(state string, ev Event, t *Transition) {
	key := TransKey{state, ev}
	if _, dup := cb.c.Transitions[key]; dup {
		cb.b.errs = append(cb.b.errs,
			fmt.Errorf("%s cell (%s, %s) defined twice", cb.c.Kind, state, ev))
		return
	}
	cb.c.Transitions[key] = t
	// Track column order on first sight if Columns was not used.
	cb.addColumn(ev)
}

// CellBuilder accumulates actions for one cell.
type CellBuilder struct {
	cb *ControllerBuilder
	t  *Transition
}

// Send appends a send action.
func (x *CellBuilder) Send(msg string, to Dest) *CellBuilder {
	x.t.Actions = append(x.t.Actions, Action{Kind: ASend, Msg: msg, To: to})
	return x
}

// SendWithAcks appends a send action whose message carries an ack
// count of |sharers \ {requestor}| (directory only).
func (x *CellBuilder) SendWithAcks(msg string, to Dest) *CellBuilder {
	x.t.Actions = append(x.t.Actions, Action{Kind: ASend, Msg: msg, To: to, WithAcks: true})
	return x
}

// SendInherit appends a send action whose message copies the ack count
// of the message being processed.
func (x *CellBuilder) SendInherit(msg string, to Dest) *CellBuilder {
	x.t.Actions = append(x.t.Actions, Action{Kind: ASend, Msg: msg, To: to, Inherit: true})
	return x
}

// SendReqSaved appends a send action whose message carries the
// requestor recorded by ARecordSaved (clearing the register).
func (x *CellBuilder) SendReqSaved(msg string, to Dest) *CellBuilder {
	x.t.Actions = append(x.t.Actions, Action{Kind: ASend, Msg: msg, To: to, ReqSaved: true})
	return x
}

// Do appends a bookkeeping action.
func (x *CellBuilder) Do(kind ActionKind) *CellBuilder {
	x.t.Actions = append(x.t.Actions, Action{Kind: kind})
	return x
}

// Goto sets the next state, ending the cell.
func (x *CellBuilder) Goto(state string) {
	x.t.Next = state
}

// Stay ends the cell without a state change.
func (x *CellBuilder) Stay() {}
