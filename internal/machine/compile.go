package machine

import (
	"strconv"

	"minvn/internal/protocol"
)

// The compile step. New lowers the protocol's source tables — maps
// keyed by state and event *names* — into dense per-controller tables
// indexed by state id and event slot, once, so that expanding a state
// touches only small integers: no string-keyed lookup, no fallback
// lookup, no name round trip. Nothing here can fail: a cell that names
// an undeclared message or next state compiles to an op that raises the
// same run-time violation the cell always raised when it fired.

// Event slots of a controller table row: one per core event the system
// knows (coreSlots), then two per message — the two values its
// qualifier kind can resolve to, in QualKind.Qualifiers order, or a
// single used slot for an unqualified message. The unqualified column
// is folded into both slots of a qualified message that has no cell of
// its own, which is the interpreter's old fallback lookup.

// stayState and badState are the non-id values of transition.next.
const (
	stayState = -1
	badState  = -2 // and below: see transition.next
)

// transition is one compiled table cell.
type transition struct {
	ops []op // cut from the table's ops slab
	// next is the next-state id, stayState, or — when the cell names an
	// undeclared state, a violation when it fires — badState-k with the
	// name in the table's badNext[k].
	next  int16
	stall bool
}

// op is one compiled action. Everything after kind is meaningful for
// ASend only.
type op struct {
	kind uint8 // protocol.ActionKind
	to   uint8 // protocol.Dest
	// msg is the message id, or for a send of a message the protocol
	// does not declare (declared false) the index of its spelling in
	// System.undeclared.
	msg      uint16
	declared bool
	outer    bool // message travels on the outer tier
	carrier  bool // message can carry an ack count
	withAcks bool
	inherit  bool
	reqSaved bool
}

// ctrlTable is one controller lowered to ids. The transitions and their
// ops live in two slabs, so a table is a handful of allocations however
// many cells it has (vnserved builds a System per request).
type ctrlTable struct {
	kind      protocol.ControllerKind
	states    []string // id → name, in table row order
	transient []bool   // id → transient
	initial   uint8
	events    int          // slots per row
	cells     []uint32     // [state*events + slot] → index into trans, 0 = empty cell
	trans     []transition // trans[0] is unused
	ops       []op
	badNext   []string
}

// cell returns the transition of (state, slot), or nil.
func (t *ctrlTable) cell(state uint8, slot int) *transition {
	if i := t.cells[int(state)*t.events+slot]; i != 0 {
		return &t.trans[i]
	}
	return nil
}

// msgSlot is the event slot of receiving message msg with qualifier
// bit q (0 or 1; 0 for unqualified messages).
func (s *System) msgSlot(msg uint8, q int) int {
	return len(s.coreSlots) + 2*int(msg) + q
}

// eventOf reconstructs the source-table event of a message slot, for
// diagnostics.
func (s *System) eventOf(msg uint8, q int) protocol.Event {
	name := s.msgNames[msg]
	if kind := s.msgQual[msg]; kind != protocol.QualNone {
		return protocol.MsgQualEv(name, kind.Qualifiers()[q])
	}
	return protocol.MsgEv(name)
}

// compile fills the message attribute tables, the three controller
// tables and the interned rule labels. s.msgNames/msgIdx/vnOf are
// already set.
func (s *System) compile() {
	p := s.p
	s.msgQual = make([]protocol.QualKind, len(s.msgNames))
	s.msgOuter = make([]bool, len(s.msgNames))
	for i, name := range s.msgNames {
		m := p.Messages[name]
		s.msgQual[i] = m.Qual
		s.msgOuter[i] = m.Level == protocol.LevelOuter
	}

	// Core slots: the three table events, then anything else the
	// configuration asks to inject (which no table can answer, so it is
	// never enabled — as before).
	s.coreSlots = append([]protocol.CoreEvent(nil), protocol.CoreEvents...)
	inject := s.cfg.CoreEvents
	if inject == nil {
		inject = protocol.CoreEvents
	}
	for _, ev := range inject {
		slot := s.coreSlot(ev)
		if slot < 0 {
			slot = len(s.coreSlots)
			s.coreSlots = append(s.coreSlots, ev)
		}
		s.coreEnum = append(s.coreEnum, slot)
	}

	s.cache = s.compileController(p.Cache)
	s.dir = s.compileController(p.Dir)
	if p.L2 != nil {
		s.l2 = s.compileController(p.L2)
	}

	s.cachePerm = make([]Permission, len(s.cache.states))
	for id, name := range s.cache.states {
		if !s.cache.transient[id] {
			s.cachePerm[id] = s.permissionOf(name)
		}
	}

	// Rule ids: core events by slot, then deliveries by VN, then
	// processing by message id.
	for _, ev := range s.coreSlots {
		s.ruleNames = append(s.ruleNames, "core/"+string(ev))
	}
	s.deliverRule = len(s.ruleNames)
	for vn := 0; vn < s.cfg.NumVNs; vn++ {
		s.ruleNames = append(s.ruleNames, "deliver/vn"+strconv.Itoa(vn))
	}
	s.processRule = len(s.ruleNames)
	for _, name := range s.msgNames {
		s.ruleNames = append(s.ruleNames, "process/"+name)
	}
}

// coreSlot returns the slot of a core event, or -1.
func (s *System) coreSlot(ev protocol.CoreEvent) int {
	for i, have := range s.coreSlots {
		if have == ev {
			return i
		}
	}
	return -1
}

func (s *System) compileController(c *protocol.Controller) *ctrlTable {
	t := &ctrlTable{kind: c.Kind, states: c.StateNames()}
	t.events = len(s.coreSlots) + 2*len(s.msgNames)
	t.transient = make([]bool, len(t.states))
	t.cells = make([]uint32, len(t.states)*t.events)
	stateID := make(map[string]int, len(t.states))
	for i, name := range t.states {
		stateID[name] = i
		if st := c.States[name]; st != nil {
			t.transient[i] = st.Transient
		}
	}
	t.initial = uint8(stateID[c.Initial])
	actions := 0
	for _, src := range c.Transitions {
		actions += len(src.Actions)
	}
	t.trans = make([]transition, 1, 1+len(c.Transitions))
	t.ops = make([]op, 0, actions)

	// Unqualified cells of qualified messages are the fallback; they go
	// in last, into whichever of the two slots has no cell of its own.
	type fallback struct {
		row   int
		msg   uint8
		trans uint32
	}
	var fallbacks []fallback
	for key, src := range c.Transitions {
		row, ok := stateID[key.State]
		if !ok {
			continue // a row no controller can be in
		}
		ev := key.Event
		if ev.IsCore() {
			if slot := s.coreSlot(ev.Core); slot >= 0 && ev == protocol.CoreEv(ev.Core) {
				t.cells[row*t.events+slot] = s.compileTransition(t, src, stateID)
			}
			continue
		}
		msg, ok := s.msgIdx[ev.Msg]
		if !ok {
			continue // a message nobody can send
		}
		kind := s.msgQual[msg]
		switch {
		case kind == protocol.QualNone && ev.Qual == protocol.QNone:
			t.cells[row*t.events+s.msgSlot(msg, 0)] = s.compileTransition(t, src, stateID)
		case ev.Qual == protocol.QNone:
			fallbacks = append(fallbacks, fallback{row, msg, s.compileTransition(t, src, stateID)})
		default:
			for q, have := range kind.Qualifiers() {
				if have == ev.Qual {
					t.cells[row*t.events+s.msgSlot(msg, q)] = s.compileTransition(t, src, stateID)
				}
			}
		}
	}
	for _, f := range fallbacks {
		for q := 0; q < 2; q++ {
			if cell := &t.cells[f.row*t.events+s.msgSlot(f.msg, q)]; *cell == 0 {
				*cell = f.trans
			}
		}
	}
	return t
}

// compileTransition appends src's compiled form to t's slabs and
// returns its index in t.trans.
func (s *System) compileTransition(t *ctrlTable, src *protocol.Transition, stateID map[string]int) uint32 {
	tr := transition{stall: src.Stall, next: stayState}
	if src.Next != "" {
		if id, ok := stateID[src.Next]; ok {
			tr.next = int16(id)
		} else {
			tr.next = int16(badState - len(t.badNext))
			t.badNext = append(t.badNext, src.Next)
		}
	}
	first := len(t.ops)
	for _, a := range src.Actions {
		o := op{kind: uint8(a.Kind)}
		if a.Kind == protocol.ASend {
			o.to = uint8(a.To)
			o.withAcks, o.inherit, o.reqSaved = a.WithAcks, a.Inherit, a.ReqSaved
			if id, ok := s.msgIdx[a.Msg]; ok {
				o.declared, o.msg = true, uint16(id)
				o.outer = s.msgOuter[id]
				o.carrier = s.p.Messages[a.Msg].Ack == protocol.AckCarrier
			} else {
				o.msg = uint16(len(s.undeclared))
				s.undeclared = append(s.undeclared, a.Msg)
			}
		}
		t.ops = append(t.ops, o)
	}
	tr.ops = t.ops[first:len(t.ops):len(t.ops)]
	t.trans = append(t.trans, tr)
	return uint32(len(t.trans) - 1)
}
