package machine

import (
	"fmt"
	"strings"

	"minvn/internal/icn"
)

// The System implements mc.Model over its encoded states.

// Initial returns the single initial state: every controller in its
// initial stable state, the network empty.
func (s *System) Initial() [][]byte {
	return [][]byte{s.encode(s.newState())}
}

// Expand is the streaming form of expansion, mc's Expander: it calls
// visit once per successor of raw, in the fixed rule order, with the
// successor's encoding and the id of the rule that produced it — an
// index into RuleNames. The bytes are lent from the pooled scratch and
// are only valid until Expand returns; a visitor that keeps a successor
// copies it. An invariant violation in (or when leaving) raw is returned
// before any visit. Expand itself allocates nothing. Self-loop
// transitions (e.g. a load hit, which changes nothing) are filtered out,
// matching Murphi's deadlock semantics: a state whose only enabled
// rules map it to itself is deadlocked.
func (s *System) Expand(raw []byte, visit func(succ []byte, rule int)) (n int, err error) {
	sc, err := s.expanded(raw)
	if err != nil {
		return 0, err
	}
	lo := 0
	for i, hi := range sc.ends {
		visit(sc.arena[lo:hi:hi], sc.ids[i])
		lo = hi
	}
	n = len(sc.ends)
	s.close(sc)
	return n, nil
}

// RuleNames lists the rule labels by the ids Expand reports. Labels
// aggregate a rule's enumeration parameters (plan, endpoint ids) into
// the protocol-level identity that matters for the paper's per-rule
// fire counts: the processor event for core rules ("core/Load"), the
// virtual network for deliveries ("deliver/vn3"), and the consumed
// message name for processing rules ("process/GetM"). The strings are
// interned at New; callers must not modify the slice.
func (s *System) RuleNames() []string { return s.ruleNames }

// expanded opens a scratch on raw with every successor collected in it.
func (s *System) expanded(raw []byte) (*scratch, error) {
	sc := s.open(raw, false)
	if err := s.checkInvariants(sc.st); err != nil {
		return nil, err
	}
	if err := s.enumerate(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// Successors is Expand collected into freshly allocated slices, for
// callers that keep every successor.
func (s *System) Successors(raw []byte) ([][]byte, error) {
	out, _, err := s.successors(raw, false)
	return out, err
}

// SuccessorsNamed implements the model checker's NamedModel: Successors
// plus each successor's rule label (see RuleNames).
func (s *System) SuccessorsNamed(raw []byte) ([][]byte, []string, error) {
	return s.successors(raw, true)
}

// successors allocates exactly what it returns: the two slices and the
// bytes of each successor. It reads the successor count off the scratch
// to size them, which a visitor cannot.
func (s *System) successors(raw []byte, named bool) ([][]byte, []string, error) {
	sc, err := s.expanded(raw)
	if err != nil {
		return nil, nil, err
	}
	var out [][]byte
	var labels []string
	if n := len(sc.ends); n > 0 {
		out = make([][]byte, n)
		if named {
			labels = make([]string, n)
		}
		lo := 0
		for i, hi := range sc.ends {
			out[i] = append(make([]byte, 0, hi-lo), sc.arena[lo:hi]...)
			if named {
				labels[i] = s.ruleNames[sc.ids[i]]
			}
			lo = hi
		}
	}
	s.close(sc)
	return out, labels, nil
}

// EnabledRules lists the enabled rules of a state, for the scenario
// driver and diagnostics. It fires each rule to learn what it sends
// (plans depend on it) but encodes nothing.
func (s *System) EnabledRules(raw []byte) ([]Rule, error) {
	return s.enabled(raw, false)
}

// enabled is EnabledRules, optionally behind the invariant check that
// guards Successors.
func (s *System) enabled(raw []byte, invariants bool) ([]Rule, error) {
	sc := s.open(raw, true)
	if invariants {
		if err := s.checkInvariants(sc.st); err != nil {
			return nil, err
		}
	}
	if err := s.enumerate(sc); err != nil {
		// The rules listed before the violation are still reported.
		return sc.takeRules(), err
	}
	out := sc.takeRules()
	s.close(sc)
	return out, nil
}

// takeRules copies the collected rules out of the scratch: one slice
// of rules, one of plan entries that the rules' Plans are cut from.
func (sc *scratch) takeRules() []Rule {
	if len(sc.rules) == 0 {
		return nil
	}
	out := append(make([]Rule, 0, len(sc.rules)), sc.rules...)
	plans := make([]int, len(sc.plans))
	for i := range out {
		if k := len(out[i].Plan); k > 0 {
			copy(plans[:k:k], out[i].Plan)
			out[i].Plan, plans = plans[:k:k], plans[k:]
		}
	}
	return out
}

// Apply fires one rule on an encoded state.
func (s *System) Apply(raw []byte, r Rule) ([]byte, error) {
	sc := s.open(raw, false)
	if err := s.fire(sc, &r); err != nil {
		return nil, err
	}
	plan := r.Plan
	if r.Kind == RuleDeliver {
		plan = nil // a delivery sends nothing; its Plan is ignored
	}
	if len(plan) != len(sc.outs) {
		return nil, violation("plan length %d for %d messages", len(plan), len(sc.outs))
	}
	if !s.place(sc, plan) {
		return nil, errBlocked
	}
	out := s.encode(sc.st)
	s.unplace(sc, plan)
	sc.rollback()
	s.close(sc)
	return out, nil
}

// Quiescent: every controller stable and the network drained. It reads
// the controller-state bytes of the encoding directly.
func (s *System) Quiescent(raw []byte) bool {
	s.checkLen(raw)
	for i := 0; i < s.l2Off; i += cacheEntryBytes {
		if s.cache.transient[raw[i]] {
			return false
		}
	}
	for i := s.l2Off; i < s.dirOff; i += l2EntryBytes {
		if s.l2.transient[raw[i]] {
			return false
		}
	}
	for i := s.dirOff; i < s.netOff; i += dirEntryBytes {
		if s.dir.transient[raw[i]] {
			return false
		}
	}
	return s.InFlight(raw) == 0
}

// Describe renders a state for counterexample traces.
func (s *System) Describe(raw []byte) string {
	st := s.decode(raw)
	var b strings.Builder
	for c := range st.cache {
		fmt.Fprintf(&b, "  cache %d:", c)
		for a := range st.cache[c] {
			e := st.cache[c][a]
			fmt.Fprintf(&b, "  a%d=%s", a, s.cache.states[e.state])
			if e.acks != 0 {
				fmt.Fprintf(&b, "(acks=%d)", e.acks)
			}
			if e.saved != 0 {
				fmt.Fprintf(&b, "(saved=ep%d", e.saved-1)
				if e.savedAcks != 0 {
					fmt.Fprintf(&b, " acks=%d", e.savedAcks)
				}
				b.WriteByte(')')
			}
		}
		b.WriteByte('\n')
	}
	for a := range st.l2 {
		e := st.l2[a]
		fmt.Fprintf(&b, "  l2(a%d) ep%d: %s", a, s.innerHome(a), s.l2.states[e.state])
		if e.owner != 0 {
			fmt.Fprintf(&b, " owner=ep%d", e.owner-1)
		}
		if e.sharers != 0 {
			fmt.Fprintf(&b, " sharers=")
			for c := 0; c < 8; c++ {
				if e.sharers&(1<<uint(c)) != 0 {
					fmt.Fprintf(&b, "c%d", c)
				}
			}
		}
		if e.acks != 0 {
			fmt.Fprintf(&b, " acks=%d", e.acks)
		}
		if e.cacheAcks != 0 {
			fmt.Fprintf(&b, " outer-acks=%d", e.cacheAcks)
		}
		b.WriteByte('\n')
	}
	for a := range st.dir {
		e := st.dir[a]
		fmt.Fprintf(&b, "  dir(a%d) ep%d: %s", a, s.home(a), s.dir.states[e.state])
		if e.owner != 0 {
			fmt.Fprintf(&b, " owner=ep%d", e.owner-1)
		}
		if e.sharers != 0 {
			fmt.Fprintf(&b, " sharers=")
			for c := 0; c < 8; c++ {
				if e.sharers&(1<<uint(c)) != 0 {
					fmt.Fprintf(&b, "c%d", c)
				}
			}
		}
		if e.acks != 0 {
			fmt.Fprintf(&b, " acks=%d", e.acks)
		}
		b.WriteByte('\n')
	}
	if net := st.net.Format(s.msgNames); net != "" {
		b.WriteString(net)
	}
	return b.String()
}

// Seeded wraps a System to start exploration from given states
// instead of the reset state — e.g. from a scenario-built prefix such
// as the Fig. 3 setup, which makes deep deadlock hunts cheap while
// remaining sound (every seed is itself reachable).
type Seeded struct {
	*System
	Seeds [][]byte
}

// Initial returns the seed states.
func (s *Seeded) Initial() [][]byte { return s.Seeds }

// CacheState returns cache c's state name for addr in an encoded
// state (test helper).
func (s *System) CacheState(raw []byte, c, addr int) string {
	s.checkLen(raw)
	return s.cache.states[raw[(c*s.cfg.Addrs+addr)*cacheEntryBytes]]
}

// DirState returns the home directory state name for addr.
func (s *System) DirState(raw []byte, addr int) string {
	s.checkLen(raw)
	return s.dir.states[raw[s.dirOff+addr*dirEntryBytes]]
}

// InFlight counts in-flight messages in an encoded state: every queue
// is one length byte plus a fixed-size record per message, so the count
// is what the network section holds beyond its length bytes.
func (s *System) InFlight(raw []byte) int {
	s.checkLen(raw)
	return (len(raw) - s.netOff - s.queues) / icn.MessageBytes
}
