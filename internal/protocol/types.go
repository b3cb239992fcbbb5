// Package protocol defines the formal model of a directory cache
// coherence protocol used throughout this repository: static message
// names with types (paper §II-C), cache and directory controllers as
// tabular finite state machines over stable and transient states
// (paper §II-A, Figs. 1–2), protocol stalls (paper §II-E), and an
// action vocabulary rich enough to express the MOESIF family and the
// CHI-style protocols the paper analyzes.
//
// A Protocol value is purely static: it is the input both to the
// static analysis (package analysis, package vnassign) and to the
// executable semantics (package machine) that the model checker
// explores.
package protocol

import "fmt"

// MsgType classifies static message names (paper §II-C): requests go
// cache→directory, forwarded requests directory→cache, and responses
// either way, split into data and control responses.
type MsgType int

const (
	Request MsgType = iota
	FwdRequest
	DataResponse
	CtrlResponse
)

var msgTypeNames = [...]string{"Request", "FwdRequest", "DataResponse", "CtrlResponse"}

func (t MsgType) String() string {
	if t < 0 || int(t) >= len(msgTypeNames) {
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
	return msgTypeNames[t]
}

// IsResponse reports whether t is a data or control response.
func (t MsgType) IsResponse() bool { return t == DataResponse || t == CtrlResponse }

// AckRole describes how a message participates in invalidation-ack
// counting at the requesting cache.
type AckRole int

const (
	// AckNone: the message plays no role in ack counting.
	AckNone AckRole = iota
	// AckCarrier: the message can carry an ack count (e.g. Data from
	// the directory, telling the requestor how many Inv-Acks to expect).
	AckCarrier
	// AckUnit: the message counts as one received ack (e.g. Inv-Ack).
	AckUnit
)

// QualKind declares which qualifier dimension refines the reception of
// a message, mirroring the split columns of the Primer tables
// ("Data from Dir (ack=0)" vs "(ack>0)", "PutS-Last" vs "NonLast", …).
type QualKind int

const (
	// QualNone: the message is received unqualified.
	QualNone QualKind = iota
	// QualDataSource: resolves to AckZero / AckPositive based on the
	// effective outstanding-ack count after applying the message's
	// carried ack count (covers both "Data from Dir" and "Data from
	// Owner" columns of the Primer tables, which behave identically).
	QualDataSource
	// QualAckUnit: resolves to LastAck / NotLastAck based on the
	// receiver's outstanding-ack counter.
	QualAckUnit
	// QualOwnership: resolves to FromOwner / FromNonOwner based on the
	// directory's owner pointer (e.g. PutM).
	QualOwnership
	// QualLastSharer: resolves to LastSharer / NotLastSharer based on
	// the directory's sharer list (e.g. PutS).
	QualLastSharer
)

// Qualifier refines a message reception event.
type Qualifier int

const (
	QNone Qualifier = iota
	QAckZero
	QAckPositive
	QFromOwner
	QFromNonOwner
	QLastAck
	QNotLastAck
	QLastSharer
	QNotLastSharer
)

var qualifierNames = [...]string{
	"", "ack=0", "ack>0", "from-owner", "from-nonowner",
	"last-ack", "ack", "last-sharer", "non-last-sharer",
}

func (q Qualifier) String() string {
	if q < 0 || int(q) >= len(qualifierNames) {
		return fmt.Sprintf("Qualifier(%d)", int(q))
	}
	return qualifierNames[q]
}

// Qualifiers lists the qualifier values a QualKind can resolve to.
func (k QualKind) Qualifiers() []Qualifier {
	switch k {
	case QualDataSource:
		return []Qualifier{QAckZero, QAckPositive}
	case QualAckUnit:
		return []Qualifier{QLastAck, QNotLastAck}
	case QualOwnership:
		return []Qualifier{QFromOwner, QFromNonOwner}
	case QualLastSharer:
		return []Qualifier{QLastSharer, QNotLastSharer}
	default:
		return []Qualifier{QNone}
	}
}

// MsgLevel identifies the traffic tier a message travels on. Flat
// one-level protocols use LevelInner for everything. In a two-level
// composite (Protocol.L2 != nil), inner messages flow between the L1
// caches and the L2 home, outer messages between the L2 home and the
// outer directory; the machine package routes ToDir by level.
type MsgLevel int

const (
	// LevelInner: cache ↔ (inner) home traffic; the default.
	LevelInner MsgLevel = iota
	// LevelOuter: L2 home ↔ outer directory traffic.
	LevelOuter
)

func (l MsgLevel) String() string {
	if l == LevelOuter {
		return "outer"
	}
	return "inner"
}

// Message is a static message name with its classification.
type Message struct {
	Name  string
	Type  MsgType
	Ack   AckRole
	Qual  QualKind
	Level MsgLevel
}

// CoreEvent is a processor-initiated event at a cache controller.
type CoreEvent string

const (
	Load        CoreEvent = "Load"
	Store       CoreEvent = "Store"
	Replacement CoreEvent = "Replacement"
)

// CoreEvents lists all core events in table order.
var CoreEvents = []CoreEvent{Load, Store, Replacement}

// Event is a column of a controller table: either a core event or the
// reception of a (possibly qualified) message. Exactly one of Core and
// Msg is non-empty. Event is comparable and usable as a map key.
type Event struct {
	Core CoreEvent
	Msg  string
	Qual Qualifier
}

// CoreEv returns the event for a core (processor) event.
func CoreEv(c CoreEvent) Event { return Event{Core: c} }

// MsgEv returns the event for receiving message name unqualified.
func MsgEv(name string) Event { return Event{Msg: name} }

// MsgQualEv returns the event for receiving message name with
// qualifier q.
func MsgQualEv(name string, q Qualifier) Event { return Event{Msg: name, Qual: q} }

// IsCore reports whether the event is processor-initiated.
func (e Event) IsCore() bool { return e.Core != "" }

func (e Event) String() string {
	if e.IsCore() {
		return string(e.Core)
	}
	if e.Qual == QNone {
		return e.Msg
	}
	return e.Msg + "(" + e.Qual.String() + ")"
}

// Dest identifies the destination of a sent message, resolved at run
// time by the machine package.
type Dest int

const (
	// ToDir: the home directory of the message's address.
	ToDir Dest = iota
	// ToReq: the requestor cache recorded in the message being
	// processed (for core events: the cache itself acts as requestor
	// of the new message).
	ToReq
	// ToOwner: the owner recorded at the directory.
	ToOwner
	// ToSharers: every sharer recorded at the directory except the
	// requestor (one copy each).
	ToSharers
	// ToSaved: the requestor recorded earlier by ARecordSaved (cache
	// only). Non-blocking caches use it to answer a forwarded request
	// that arrived while their own transaction was still in flight.
	// Sending to ToSaved clears the register.
	ToSaved
	// ToSelf: the sending endpoint itself. The message re-enters the
	// sender's own input queue through the network, which is how a
	// non-stalling controller requeues a message it cannot process yet
	// (the xform package's stall-split) — reception is deferred without
	// blocking the queue head.
	ToSelf
)

var destNames = [...]string{"Dir", "Req", "Owner", "Sharers", "Saved", "Self"}

func (d Dest) String() string {
	if d < 0 || int(d) >= len(destNames) {
		return fmt.Sprintf("Dest(%d)", int(d))
	}
	return destNames[d]
}

// ActionKind enumerates the bookkeeping vocabulary of the tables.
type ActionKind int

const (
	// ASend sends Msg to To. WithAcks requests that the outgoing
	// message carry an ack count equal to |sharers \ {requestor}| at
	// the directory.
	ASend ActionKind = iota
	// ASetOwnerToReq records the requestor as owner (directory).
	ASetOwnerToReq
	// AClearOwner clears the owner pointer (directory).
	AClearOwner
	// AAddReqToSharers adds the requestor to the sharer list.
	AAddReqToSharers
	// AAddOwnerToSharers adds the current owner to the sharer list.
	AAddOwnerToSharers
	// ARemoveReqFromSharers removes the requestor from the sharer list.
	ARemoveReqFromSharers
	// AClearSharers empties the sharer list.
	AClearSharers
	// ACopyToMem models "copy data to memory"; semantically a no-op
	// for deadlock analysis, kept for table fidelity.
	ACopyToMem
	// ARecordSaved records the requestor of the message being
	// processed into the cache entry's saved-requestor register, so a
	// later transition can respond via ToSaved (deferred forward).
	ARecordSaved
	// AExpectAcks adds |sharers \ {requestor}| to the directory
	// entry's outstanding-ack counter: home-orchestrated protocols
	// (CHI) collect invalidation acks at the directory rather than at
	// the requestor. Must run before AClearSharers.
	AExpectAcks
)

var actionKindNames = [...]string{
	"Send", "SetOwnerToReq", "ClearOwner", "AddReqToSharers",
	"AddOwnerToSharers", "RemoveReqFromSharers", "ClearSharers", "CopyToMem",
	"RecordSaved", "ExpectAcks",
}

func (k ActionKind) String() string {
	if k < 0 || int(k) >= len(actionKindNames) {
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
	return actionKindNames[k]
}

// Action is one cell entry; actions of a transition execute in order.
type Action struct {
	Kind     ActionKind
	Msg      string // for ASend
	To       Dest   // for ASend
	WithAcks bool   // for ASend: carry |sharers \ {req}| as ack count
	// Inherit copies the ack count of the message being processed
	// into the sent message — how an owner relays the directory's ack
	// count to the requestor (MOSI/MOESI Fwd-GetM → Data).
	Inherit bool
	// ReqSaved stamps the sent message with the requestor recorded by
	// ARecordSaved (clearing the register) — for deferred responses
	// that must carry the recorded transaction's requestor to a fixed
	// destination such as the home (cache only).
	ReqSaved bool
}

func (a Action) String() string {
	if a.Kind == ASend {
		s := fmt.Sprintf("send %s to %s", a.Msg, a.To)
		if a.WithAcks {
			s += " (with ack count)"
		}
		if a.Inherit {
			s += " (inherit acks)"
		}
		return s
	}
	return a.Kind.String()
}

// Transition is one table cell: either a stall, or a list of actions
// plus an optional state change.
type Transition struct {
	Stall   bool
	Actions []Action
	Next    string // next state name; empty means stay
}

// Sends returns the names of messages sent by this transition, in
// action order.
func (t *Transition) Sends() []string {
	var out []string
	for _, a := range t.Actions {
		if a.Kind == ASend {
			out = append(out, a.Msg)
		}
	}
	return out
}

// ControllerKind distinguishes cache, directory, and (for two-level
// composites) L2 home controllers.
type ControllerKind int

const (
	CacheCtrl ControllerKind = iota
	DirCtrl
	// L2Ctrl is the home node of a two-level composite: it acts as a
	// directory toward the inner (L1) caches and as a cache toward the
	// outer directory, so both action vocabularies are legal on it.
	L2Ctrl
)

func (k ControllerKind) String() string {
	switch k {
	case CacheCtrl:
		return "cache"
	case L2Ctrl:
		return "l2"
	default:
		return "directory"
	}
}

// State is a row of a controller table.
type State struct {
	Name      string
	Transient bool
}

// TransKey addresses one cell of a controller table.
type TransKey struct {
	State string
	Event Event
}

// Controller is one tabular FSM (Fig. 1 or Fig. 2 of the paper).
type Controller struct {
	Kind        ControllerKind
	Initial     string
	States      map[string]*State
	Transitions map[TransKey]*Transition
	// stateOrder and eventOrder preserve authoring order for table
	// printing and deterministic iteration.
	stateOrder []string
	eventOrder []Event
}

// StateNames returns state names in authoring (table row) order.
func (c *Controller) StateNames() []string {
	return append([]string(nil), c.stateOrder...)
}

// EventOrder returns events in authoring (table column) order.
func (c *Controller) EventOrder() []Event {
	return append([]Event(nil), c.eventOrder...)
}

// EachCell calls f on every defined cell in table order: rows in
// authoring order and, within a row, columns in authoring order.
func (c *Controller) EachCell(f func(state string, ev Event, t *Transition)) {
	for _, st := range c.stateOrder {
		for _, ev := range c.eventOrder {
			if t := c.Transitions[TransKey{st, ev}]; t != nil {
				f(st, ev, t)
			}
		}
	}
}

// Lookup returns the transition for (state, event), or nil if the cell
// is empty.
func (c *Controller) Lookup(state string, ev Event) *Transition {
	return c.Transitions[TransKey{state, ev}]
}

// Protocol is a complete protocol specification. L2 is nil for flat
// one-level protocols; a non-nil L2 makes the protocol a two-level
// composite (see the xform package) where Cache speaks inner messages
// to the L2 home and the L2 home speaks outer messages to Dir.
type Protocol struct {
	Name     string
	Messages map[string]*Message
	Cache    *Controller
	Dir      *Controller
	L2       *Controller
	msgOrder []string
}

// TwoLevel reports whether the protocol is a two-level composite.
func (p *Protocol) TwoLevel() bool { return p.L2 != nil }

// MessageNames returns message names in declaration order.
func (p *Protocol) MessageNames() []string {
	return append([]string(nil), p.msgOrder...)
}

// MessagesOfType returns the names of messages with the given type, in
// declaration order.
func (p *Protocol) MessagesOfType(t MsgType) []string {
	var out []string
	for _, n := range p.msgOrder {
		if p.Messages[n].Type == t {
			out = append(out, n)
		}
	}
	return out
}

// Clone returns a deep copy of p: its messages, its controllers'
// states and transitions, every transition's actions, and the message,
// state and event orders. Nothing in the copy aliases p, so either may
// be edited without the other seeing it.
func (p *Protocol) Clone() *Protocol {
	q := &Protocol{
		Name:     p.Name,
		Messages: make(map[string]*Message, len(p.Messages)),
		Cache:    p.Cache.clone(),
		Dir:      p.Dir.clone(),
		L2:       p.L2.clone(),
		msgOrder: append([]string(nil), p.msgOrder...),
	}
	ms := make([]Message, 0, len(p.Messages))
	for name, m := range p.Messages {
		ms = append(ms, *m)
		q.Messages[name] = &ms[len(ms)-1]
	}
	return q
}

// clone deep-copies c, nil included. States, transitions and actions
// are copied into one slab each; every Actions slice is capped at its
// length, so an append to one cell's actions never reaches another's.
func (c *Controller) clone() *Controller {
	if c == nil {
		return nil
	}
	d := &Controller{
		Kind:        c.Kind,
		Initial:     c.Initial,
		States:      make(map[string]*State, len(c.States)),
		Transitions: make(map[TransKey]*Transition, len(c.Transitions)),
		stateOrder:  append([]string(nil), c.stateOrder...),
		eventOrder:  append([]Event(nil), c.eventOrder...),
	}
	ss := make([]State, 0, len(c.States))
	for name, s := range c.States {
		ss = append(ss, *s)
		d.States[name] = &ss[len(ss)-1]
	}
	nActions := 0
	for _, t := range c.Transitions {
		nActions += len(t.Actions)
	}
	ts := make([]Transition, 0, len(c.Transitions))
	as := make([]Action, 0, nActions)
	for key, t := range c.Transitions {
		ts = append(ts, *t)
		nt := &ts[len(ts)-1]
		if t.Actions != nil {
			start := len(as)
			as = append(as, t.Actions...)
			nt.Actions = as[start:len(as):len(as)]
		}
		d.Transitions[key] = nt
	}
	return d
}

// Controllers returns the cache and directory controllers, plus the
// L2 controller when the protocol is a two-level composite.
func (p *Protocol) Controllers() []*Controller {
	cs := []*Controller{p.Cache, p.Dir}
	if p.L2 != nil {
		cs = append(cs, p.L2)
	}
	return cs
}
