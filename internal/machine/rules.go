package machine

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"minvn/internal/icn"
	"minvn/internal/protocol"
)

// RuleKind discriminates the three rule families of the transition
// system.
type RuleKind int

const (
	// RuleCore: a cache issues a processor event for an address.
	RuleCore RuleKind = iota
	// RuleDeliver: the head of a global buffer moves to its
	// destination's input FIFO.
	RuleDeliver
	// RuleProcess: an endpoint consumes the head of one of its input
	// FIFOs.
	RuleProcess
)

// Rule identifies one deterministic transition. Plan selects, for each
// message the firing sends (in action order), which global buffer
// receives it; plans are enumerated by EnabledRules so that the model
// checker explores every insertion choice of the ICN model.
type Rule struct {
	Kind RuleKind

	// RuleCore fields.
	Cache int
	Addr  int
	Core  protocol.CoreEvent

	// RuleDeliver fields.
	VN  int
	Buf int

	// RuleProcess fields.
	Endpoint int
	PVN      int

	Plan []int
}

// String renders a rule compactly for traces and scenario matching.
func (r Rule) String() string {
	switch r.Kind {
	case RuleCore:
		return fmt.Sprintf("core c%d a%d %s plan=%v", r.Cache, r.Addr, r.Core, r.Plan)
	case RuleDeliver:
		return fmt.Sprintf("deliver vn%d buf%d", r.VN, r.Buf)
	default:
		return fmt.Sprintf("process ep%d vn%d plan=%v", r.Endpoint, r.PVN, r.Plan)
	}
}

// errBlocked marks a rule (or plan) that is disabled in the current
// state — not an error, just an absent transition.
var errBlocked = errors.New("blocked")

// violation builds an invariant-violation error.
func violation(format string, args ...any) error {
	return fmt.Errorf("invariant violation: "+format, args...)
}

// scratch is the working set of one expansion call: a decoded state
// that rules fire on in place and are rolled back from, the fired
// rule's out-messages, and what the call collects. It is pooled per
// System; a call that ends in an error drops its scratch instead of
// returning it, so a pooled scratch is always fully rolled back and its
// queues keep the capacity newScratch gave them.
type scratch struct {
	st   *state
	outs []icn.Message // what the fired rule sends, in action order
	plan []int         // the global buffer chosen for each of outs
	undo undo

	// Collected by emit: either the enabled rules (their plans back to
	// back in plans), or the encodings of the successors that differ
	// from raw, back to back in arena with their end offsets and rule
	// ids (indices into System.RuleNames). All of it is reused from call
	// to call; Expand lends the arena to its visitor and every other
	// caller copies out what it returns.
	raw       []byte
	wantRules bool
	rules     []Rule
	plans     []int
	arena     []byte
	ends      []int
	ids       []int

	// What a successor is spliced from (appendSpliced): at[q] is where
	// FIFO q starts in raw and at[len(at)-1] where raw ends, filled by
	// open; dirty is the FIFOs the fired rule changed, in order.
	at    []int
	dirty []int
}

// undo is what rollback restores after a rule fired on the scratch
// state: the controller entries at (ep, addr) and up to two queue
// headers (a pop reslices and an append within capacity leaves the
// popped head intact, so restoring the header restores the queue),
// with the queues' numbers.
type undo struct {
	ep, addr int // addr < 0: no controller entry touched
	cache    cacheEntry
	l2       l2Entry
	dir      dirEntry
	queue    [2]*[]icn.Message
	header   [2][]icn.Message
	number   [2]int
}

// newScratch builds a scratch whose every queue already has its full
// capacity, so firing rules on it never allocates.
func (s *System) newScratch() *scratch {
	st := s.newState()
	vns := s.net.NumVNs
	slab := make([]icn.Message, 2*vns*s.net.GlobalCap+s.endpoints*vns*s.net.LocalCap)
	carve := func(n int) []icn.Message {
		q := slab[:0:n]
		slab = slab[n:]
		return q
	}
	for vn := range st.net.Global {
		st.net.Global[vn] = [2][]icn.Message{carve(s.net.GlobalCap), carve(s.net.GlobalCap)}
	}
	for e := range st.net.Local {
		for vn := range st.net.Local[e] {
			st.net.Local[e][vn] = carve(s.net.LocalCap)
		}
	}
	return &scratch{st: st, at: make([]int, 0, s.queues+1)}
}

// open takes a scratch from the pool with raw decoded into it, set to
// collect enabled rules or successor encodings — for the latter with
// each FIFO's offset in raw, read off the decoded lengths.
func (s *System) open(raw []byte, wantRules bool) *scratch {
	sc := s.expandPool.Get().(*scratch)
	s.decodeInto(sc.st, raw)
	sc.raw, sc.wantRules = raw, wantRules
	if !wantRules {
		at, i := sc.at[:0], s.netOff
		for _, bufs := range sc.st.net.Global {
			for _, q := range bufs {
				at = append(at, i)
				i += 1 + len(q)*icn.MessageBytes
			}
		}
		for _, fifos := range sc.st.net.Local {
			for _, q := range fifos {
				at = append(at, i)
				i += 1 + len(q)*icn.MessageBytes
			}
		}
		sc.at = append(at, i)
	}
	return sc
}

// close returns a fully rolled-back scratch to the pool.
func (s *System) close(sc *scratch) {
	sc.raw = nil
	s.expandPool.Put(sc)
}

// touch starts an undo record covering every controller entry a
// transition at (ep, addr) can write.
func (sc *scratch) touch(ep, addr int) {
	st := sc.st
	sc.undo = undo{ep: ep, addr: addr, dir: st.dir[addr]}
	if st.l2 != nil {
		sc.undo.l2 = st.l2[addr]
	}
	if ep < len(st.cache) {
		sc.undo.cache = st.cache[ep][addr]
	}
}

// keep records the header of queue number n for rollback.
func (sc *scratch) keep(i int, q *[]icn.Message, n int) {
	sc.undo.queue[i], sc.undo.header[i], sc.undo.number[i] = q, *q, n
}

// rollback undoes the last fired rule.
func (sc *scratch) rollback() {
	u, st := &sc.undo, sc.st
	if u.addr >= 0 {
		st.dir[u.addr] = u.dir
		if st.l2 != nil {
			st.l2[u.addr] = u.l2
		}
		if u.ep < len(st.cache) {
			st.cache[u.ep][u.addr] = u.cache
		}
	}
	for i, q := range u.queue {
		if q != nil {
			*q = u.header[i]
		}
	}
}

// book is the directory-role bookkeeping an endpoint consults while
// processing: pointers to the entry holding owner/sharers/acks plus
// the endpoint-id range [lo,hi) of the clients that book tracks.
type book struct {
	owner   *uint8
	sharers *uint8
	acks    *int8
	lo, hi  int
}

// book returns the directory book endpoint ep uses for addr: the L2
// entry's inner fields at an L2 home (clients are the caches), the
// directory entry otherwise — whose clients are the caches in a flat
// system and the L2 homes in a two-level one.
func (s *System) book(st *state, ep, addr int) book {
	if s.isL2(ep) {
		e := &st.l2[addr]
		return book{&e.owner, &e.sharers, &e.acks, 0, s.cfg.Caches}
	}
	e := &st.dir[addr]
	lo, hi := 0, s.cfg.Caches
	if s.cfg.L2s > 0 {
		lo, hi = s.cfg.Caches, s.cfg.Caches+s.cfg.L2s
	}
	return book{&e.owner, &e.sharers, &e.acks, lo, hi}
}

// ackCounter returns the ack counter a message updates at endpoint ep:
// the cache entry's counter at a cache, the directory entry's at a
// directory, and — at an L2 home — the inner (directory-role) counter
// for inner traffic or the cache-role counter for its own outer
// transactions.
func (s *System) ackCounter(st *state, ep int, outer bool, addr int) *int8 {
	switch {
	case s.isCache(ep):
		return &st.cache[ep][addr].acks
	case s.isL2(ep):
		if outer {
			return &st.l2[addr].cacheAcks
		}
		return &st.l2[addr].acks
	default:
		return &st.dir[addr].acks
	}
}

// ctrlAt returns endpoint ep's compiled table and its state id for
// addr, as a pointer so a transition can move it.
func (s *System) ctrlAt(st *state, ep, addr int) (*ctrlTable, *uint8) {
	switch {
	case s.isCache(ep):
		return s.cache, &st.cache[ep][addr].state
	case s.isL2(ep):
		return s.l2, &st.l2[addr].state
	default:
		return s.dir, &st.dir[addr].state
	}
}

// qualify resolves the qualifier of receiving m at endpoint ep (paper
// §II's table columns such as "Data from Dir (ack>0)" or "PutM from
// Owner") to its index in the message's QualKind.Qualifiers: 0 for
// ack=0 / last-ack / from-owner / last-sharer and for unqualified
// messages, 1 for the other value.
func (s *System) qualify(st *state, ep int, m icn.Message) int {
	addr := int(m.Addr)
	first := true
	switch s.msgQual[m.Name] {
	case protocol.QualDataSource:
		acks := *s.ackCounter(st, ep, s.msgOuter[m.Name], addr)
		first = int(acks)+int(m.Acks) == 0
	case protocol.QualAckUnit:
		first = *s.ackCounter(st, ep, s.msgOuter[m.Name], addr) == 1
	case protocol.QualOwnership:
		bk := s.book(st, ep, addr)
		first = *bk.owner != 0 && *bk.owner-1 == m.Src
	case protocol.QualLastSharer:
		bk := s.book(st, ep, addr)
		first = countSharersIn(*bk.sharers, m.Req, bk.lo, bk.hi) == 0
	}
	if first {
		return 0
	}
	return 1
}

// reception finds the cell endpoint ep answers message m with: its
// table, its state id for m's address, the qualifier index m resolves
// to, and the transition (nil for an empty cell).
func (s *System) reception(st *state, ep int, m icn.Message) (tab *ctrlTable, state uint8, qual int, t *transition) {
	tab, at := s.ctrlAt(st, ep, int(m.Addr))
	qual = s.qualify(st, ep, m)
	return tab, *at, qual, tab.cell(*at, s.msgSlot(m.Name, qual))
}

// execute applies a transition at endpoint ep for addr, in place.
// trigger is the consumed message (nil for core events), already popped
// from its FIFO; requestor is the requestor id for new messages. The
// out-messages land in sc.outs in action order.
func (s *System) execute(sc *scratch, ep, addr int, t *transition, trigger *icn.Message, requestor uint8) error {
	st := sc.st
	sc.outs = sc.outs[:0]

	// Automatic ack arithmetic at reception (paper §II tables'
	// "ack--"/"ack+=" semantics).
	if trigger != nil {
		switch s.msgQual[trigger.Name] {
		case protocol.QualDataSource:
			*s.ackCounter(st, ep, s.msgOuter[trigger.Name], addr) += trigger.Acks
		case protocol.QualAckUnit:
			*s.ackCounter(st, ep, s.msgOuter[trigger.Name], addr)--
		}
	}

	for i := range t.ops {
		a := &t.ops[i]
		switch protocol.ActionKind(a.kind) {
		case protocol.ASend:
			if err := s.send(sc, ep, addr, a, trigger, requestor); err != nil {
				return err
			}

		case protocol.ARecordSaved:
			if !s.isCache(ep) || trigger == nil {
				return violation("RecordSaved outside cache message processing")
			}
			ce := &st.cache[ep][addr]
			if ce.saved != 0 {
				return violation("cache %d a%d defers a second forward (%s) with one saved register",
					ep, addr, s.msgNames[trigger.Name])
			}
			ce.saved = trigger.Req + 1
			ce.savedAcks = trigger.Acks

		case protocol.ASetOwnerToReq:
			*s.book(st, ep, addr).owner = requestor + 1
		case protocol.AClearOwner:
			*s.book(st, ep, addr).owner = 0
		case protocol.AAddReqToSharers:
			*s.book(st, ep, addr).sharers |= 1 << uint(requestor)
		case protocol.AAddOwnerToSharers:
			bk := s.book(st, ep, addr)
			if *bk.owner == 0 {
				return violation("AddOwnerToSharers with no owner (a%d)", addr)
			}
			if int(*bk.owner-1) < bk.lo || int(*bk.owner-1) >= bk.hi {
				return violation("owner %d is not a client (a%d)", *bk.owner-1, addr)
			}
			*bk.sharers |= 1 << uint(*bk.owner-1)
		case protocol.ARemoveReqFromSharers:
			*s.book(st, ep, addr).sharers &^= 1 << uint(requestor)
		case protocol.AClearSharers:
			*s.book(st, ep, addr).sharers = 0
		case protocol.AExpectAcks:
			bk := s.book(st, ep, addr)
			*bk.acks += int8(countSharersIn(*bk.sharers, requestor, bk.lo, bk.hi))
		case protocol.ACopyToMem:
			// Memory contents are not modeled; deadlock behaviour is
			// unaffected.
		default:
			return violation("unknown action kind %v", protocol.ActionKind(a.kind))
		}
	}

	if t.next != stayState {
		tab, at := s.ctrlAt(st, ep, addr)
		if t.next <= badState {
			return violation("%s next state %q undeclared", tab.kind, tab.badNext[badState-int(t.next)])
		}
		*at = uint8(t.next)
	}
	return nil
}

// send executes one compiled ASend, appending its message(s) to
// sc.outs.
func (s *System) send(sc *scratch, ep, addr int, a *op, trigger *icn.Message, requestor uint8) error {
	st := sc.st
	if !a.declared {
		return violation("endpoint %d sends undeclared message %q", ep, s.undeclared[a.msg])
	}
	name, to := s.msgNames[a.msg], protocol.Dest(a.to)
	bk := s.book(st, ep, addr)
	// One destination, or for ToSharers every client in fanout.
	dst, fanout := 0, uint8(0)
	switch to {
	case protocol.ToDir:
		// Inner traffic targets the tier's home (the L2 in a two-level
		// system), outer traffic the directory.
		if a.outer {
			dst = s.home(addr)
		} else {
			dst = s.innerHome(addr)
		}
	case protocol.ToReq:
		dst = int(requestor)
	case protocol.ToOwner:
		if *bk.owner == 0 {
			return violation("directory for a%d sends %s to missing owner", addr, name)
		}
		dst = int(*bk.owner - 1)
	case protocol.ToSharers:
		fanout = sharersIn(*bk.sharers, requestor, bk.lo, bk.hi)
	case protocol.ToSaved:
		ce := &st.cache[ep][addr]
		if ce.saved == 0 {
			return violation("cache %d a%d sends %s to empty saved register", ep, addr, name)
		}
		dst = int(ce.saved - 1)
	case protocol.ToSelf:
		dst = ep
	default:
		return violation("unknown destination %v", to)
	}
	var acks int8
	switch {
	case a.withAcks:
		acks = int8(countSharersIn(*bk.sharers, requestor, bk.lo, bk.hi))
	case to == protocol.ToSaved && a.carrier:
		acks = st.cache[ep][addr].savedAcks
	case a.inherit && trigger != nil:
		acks = trigger.Acks
	}
	req := requestor
	if to == protocol.ToSaved || a.reqSaved {
		// The deferred response answers the recorded requestor's
		// transaction.
		ce := &st.cache[ep][addr]
		if ce.saved == 0 {
			return violation("cache %d a%d sends %s with empty saved register", ep, addr, name)
		}
		req = ce.saved - 1
	}
	if a.outer && s.isL2(ep) {
		// The L2 home is the requestor of its own outer transactions,
		// even when an inner request triggered the send (the composer's
		// launch transitions).
		req = uint8(ep)
	}
	src := uint8(ep)
	if to == protocol.ToSelf && trigger != nil {
		// A self-requeue re-enqueues the message it is processing, so
		// the replay keeps the original sender and ownership qualifiers
		// resolve identically.
		src = trigger.Src
	}
	m := icn.Message{Name: uint8(a.msg), Addr: uint8(addr), Src: src, Req: req, Acks: acks}
	if to == protocol.ToSharers {
		for ; fanout != 0; fanout &= fanout - 1 {
			m.Dst = uint8(bits.TrailingZeros8(fanout))
			if int(m.Dst) == ep {
				return violation("endpoint %d sends %s to itself", ep, name)
			}
			sc.outs = append(sc.outs, m)
		}
	} else {
		if dst == ep && to != protocol.ToSelf {
			return violation("endpoint %d sends %s to itself", ep, name)
		}
		m.Dst = uint8(dst)
		sc.outs = append(sc.outs, m)
	}
	if to == protocol.ToSaved || a.reqSaved {
		st.cache[ep][addr].saved = 0
		st.cache[ep][addr].savedAcks = 0
	}
	return nil
}

// fireCore runs cache c's transition for the core event in slot on
// addr, in place on sc.st, leaving its sends in sc.outs. errBlocked
// means the rule is disabled and nothing was touched; any other error
// leaves sc.st partly written.
func (s *System) fireCore(sc *scratch, c, addr, slot int) error {
	t := s.cache.cell(sc.st.cache[c][addr].state, slot)
	if t == nil || t.stall {
		return errBlocked
	}
	sc.touch(c, addr)
	return s.execute(sc, c, addr, t, nil, uint8(c))
}

// fireDeliver moves the head of global buffer buf of vn to its
// destination's input FIFO. Same contract as fireCore.
func (s *System) fireDeliver(sc *scratch, vn, buf int) error {
	net := sc.st.net
	if !net.CanDeliver(s.net, vn, buf) {
		return errBlocked
	}
	sc.outs = sc.outs[:0]
	sc.undo = undo{addr: -1}
	dst := int(net.Global[vn][buf][0].Dst)
	sc.keep(0, &net.Global[vn][buf], globalQueue(vn, buf))
	sc.keep(1, &net.Local[dst][vn], s.localQueue(dst, vn))
	net.Deliver(vn, buf)
	return nil
}

// fireProcess has endpoint ep consume the head of its vn input FIFO,
// and returns the consumed message's id. Same contract as fireCore.
func (s *System) fireProcess(sc *scratch, ep, vn int) (uint8, error) {
	st := sc.st
	m, ok := st.net.Head(ep, vn)
	if !ok {
		return 0, errBlocked
	}
	addr := int(m.Addr)
	if !s.isCache(ep) {
		home := s.home(addr)
		if s.isL2(ep) {
			home = s.innerHome(addr)
		}
		if home != ep {
			return 0, violation("message for a%d delivered to wrong home ep%d", addr, ep)
		}
	}
	tab, state, qual, t := s.reception(st, ep, m)
	if t == nil {
		return 0, violation("%s ep%d in state %s has no transition for %s",
			tab.kind, ep, tab.states[state], s.eventOf(m.Name, qual))
	}
	if t.stall {
		return 0, errBlocked
	}
	sc.touch(ep, addr)
	sc.keep(0, &st.net.Local[ep][vn], s.localQueue(ep, vn))
	st.net.PopLocal(ep, vn)
	return m.Name, s.execute(sc, ep, addr, t, &m, m.Req)
}

// fire runs rule r's controller side (everything but the insertion of
// its sends, which r.Plan directs). Same contract as fireCore.
func (s *System) fire(sc *scratch, r *Rule) error {
	switch r.Kind {
	case RuleCore:
		slot := s.coreSlot(r.Core)
		if slot < 0 {
			return errBlocked
		}
		return s.fireCore(sc, r.Cache, r.Addr, slot)
	case RuleDeliver:
		return s.fireDeliver(sc, r.VN, r.Buf)
	default:
		_, err := s.fireProcess(sc, r.Endpoint, r.PVN)
		return err
	}
}

// place inserts sc.outs into the global buffers plan names, one per
// message, and reports whether every buffer had room; when one does
// not it takes the earlier ones back out.
func (s *System) place(sc *scratch, plan []int) bool {
	net := sc.st.net
	for j := range sc.outs {
		m := &sc.outs[j]
		if !net.CanSend(s.net, s.vnOf[m.Name], plan[j]) {
			s.unplace(sc, plan[:j])
			return false
		}
		net.Send(s.vnOf[m.Name], plan[j], *m)
	}
	return true
}

// unplace removes the messages place appended for plan, last first.
func (s *System) unplace(sc *scratch, plan []int) {
	net := sc.st.net
	for j := len(plan) - 1; j >= 0; j-- {
		q := &net.Global[s.vnOf[sc.outs[j].Name]][plan[j]]
		*q = (*q)[:len(*q)-1]
	}
}

// emitPlans emits the fired rule once per feasible buffer plan: the
// cartesian product of each out-message's allowed global buffers
// (icn.Config.BufferChoices), counted with the first message most
// significant. Each plan is insert → emit → take back out.
func (s *System) emitPlans(sc *scratch, r *Rule, id int) {
	k := len(sc.outs)
	for len(sc.plan) < k {
		sc.plan = append(sc.plan, 0)
	}
	plan := sc.plan[:k]
	plans := 1
	for _, m := range sc.outs {
		plans *= len(s.net.BufferChoices(m.Src, m.Dst))
	}
	for i := 0; i < plans; i++ {
		digits := i
		for j := k - 1; j >= 0; j-- {
			choices := s.net.BufferChoices(sc.outs[j].Src, sc.outs[j].Dst)
			plan[j] = choices[digits%len(choices)]
			digits /= len(choices)
		}
		if s.place(sc, plan) {
			s.emit(sc, r, plan, id)
			s.unplace(sc, plan)
		}
	}
}

// emit collects one enabled (rule, plan) whose effect is in sc.st: the
// rule itself, or its successor encoding unless it is a self-loop.
func (s *System) emit(sc *scratch, r *Rule, plan []int, id int) {
	if sc.wantRules {
		rr := *r
		if len(plan) > 0 {
			sc.plans = append(sc.plans, plan...)
			rr.Plan = sc.plans[len(sc.plans)-len(plan):]
		}
		sc.rules = append(sc.rules, rr)
		return
	}
	start := len(sc.arena)
	sc.arena = s.appendSpliced(sc.arena, sc, plan)
	if bytes.Equal(sc.arena[start:], sc.raw) {
		sc.arena = sc.arena[:start]
		return
	}
	sc.ends = append(sc.ends, len(sc.arena))
	sc.ids = append(sc.ids, id)
}

// appendSpliced appends what encode would return for sc.st after a rule
// fired under plan, at the cost of what the rule changed: the controller
// sections encoded afresh, raw's network copied but for the FIFOs the
// rule touched — those it kept for rollback and the global buffers plan
// sent to — which are written from sc.st.
func (s *System) appendSpliced(out []byte, sc *scratch, plan []int) []byte {
	dirty := sc.dirty[:0]
	for i, q := range sc.undo.queue {
		if q != nil {
			dirty = append(dirty, sc.undo.number[i])
		}
	}
	for j, m := range sc.outs {
		dirty = append(dirty, globalQueue(s.vnOf[m.Name], plan[j]))
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	sc.dirty = dirty

	out = s.appendControllers(out, sc.st)
	from := s.netOff
	for _, q := range dirty {
		out = append(out, sc.raw[from:sc.at[q]]...)
		out = appendQueue(out, s.queue(sc.st, q))
		from = sc.at[q+1]
	}
	return append(out, sc.raw[from:]...)
}

// enumerate fires every enabled rule of sc.st under every feasible
// plan, in the fixed order core events → deliveries → processing, and
// emits each; sc.st is back to the decoded state afterwards. A non-nil
// return is an invariant violation.
func (s *System) enumerate(sc *scratch) error {
	sc.rules, sc.plans = sc.rules[:0], sc.plans[:0]
	sc.arena, sc.ends, sc.ids = sc.arena[:0], sc.ends[:0], sc.ids[:0]
	var r Rule
	for c := 0; c < s.cfg.Caches; c++ {
		for a := 0; a < s.cfg.Addrs; a++ {
			for _, slot := range s.coreEnum {
				switch err := s.fireCore(sc, c, a, slot); err {
				case nil:
					r = Rule{Kind: RuleCore, Cache: c, Addr: a, Core: s.coreSlots[slot]}
					s.emitPlans(sc, &r, slot)
					sc.rollback()
				case errBlocked:
				default:
					return err
				}
			}
		}
	}
	for vn := 0; vn < s.net.NumVNs; vn++ {
		for buf := 0; buf < 2; buf++ {
			if s.fireDeliver(sc, vn, buf) == nil {
				r = Rule{Kind: RuleDeliver, VN: vn, Buf: buf}
				s.emit(sc, &r, nil, s.deliverRule+vn)
				sc.rollback()
			}
		}
	}
	for ep := 0; ep < s.endpoints; ep++ {
		for vn := 0; vn < s.net.NumVNs; vn++ {
			switch msg, err := s.fireProcess(sc, ep, vn); err {
			case nil:
				r = Rule{Kind: RuleProcess, Endpoint: ep, PVN: vn}
				s.emitPlans(sc, &r, s.processRule+int(msg))
				sc.rollback()
			case errBlocked:
			default:
				return err
			}
		}
	}
	return nil
}
