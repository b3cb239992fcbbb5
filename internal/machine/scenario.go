package machine

import (
	"fmt"
	"strings"

	"minvn/internal/protocol"
)

// Scenario drives a system deterministically, one chosen rule at a
// time — the tool for replaying concrete executions such as the
// paper's Fig. 3 deadlock. Each step selects an enabled rule by
// predicate; the scenario records a readable log.
type Scenario struct {
	sys   *System
	state []byte
	log   []string
}

// NewScenario starts a scenario at the system's initial state.
func NewScenario(sys *System) *Scenario {
	return &Scenario{sys: sys, state: sys.Initial()[0]}
}

// State returns the current encoded state.
func (sc *Scenario) State() []byte { return sc.state }

// Log returns the step log.
func (sc *Scenario) Log() []string { return append([]string(nil), sc.log...) }

// System returns the underlying system.
func (sc *Scenario) System() *System { return sc.sys }

// step finds the unique enabled rule matching pred and fires it.
func (sc *Scenario) step(desc string, pred func(Rule) bool) error {
	rules, err := sc.sys.EnabledRules(sc.state)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", desc, err)
	}
	var match *Rule
	for i := range rules {
		if pred(rules[i]) {
			if match != nil {
				// Multiple plans of the same logical step: take the
				// first (buffer choice is immaterial to a replay).
				break
			}
			match = &rules[i]
		}
	}
	if match == nil {
		return fmt.Errorf("scenario %q: no enabled rule matches (state:\n%s)",
			desc, sc.sys.Describe(sc.state))
	}
	next, err := sc.sys.Apply(sc.state, *match)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", desc, err)
	}
	sc.state = next
	sc.log = append(sc.log, fmt.Sprintf("%-40s %s", desc, match))
	return nil
}

// Core fires a processor event at a cache.
func (sc *Scenario) Core(cache, addr int, ev protocol.CoreEvent) error {
	return sc.step(
		fmt.Sprintf("cache %d: %s a%d", cache, ev, addr),
		func(r Rule) bool {
			return r.Kind == RuleCore && r.Cache == cache && r.Addr == addr && r.Core == ev
		})
}

// DeliverTo pumps deliveries until the named message for addr reaches
// endpoint dst's input FIFO (at most the number of in-flight messages
// of steps).
func (sc *Scenario) DeliverTo(msgName string, addr, dst int) error {
	idx, ok := sc.sys.msgIdx[msgName]
	if !ok {
		return fmt.Errorf("scenario: unknown message %q", msgName)
	}
	limit := sc.sys.InFlight(sc.state) + 1
	for i := 0; i < limit; i++ {
		st := sc.sys.decode(sc.state)
		// Already delivered?
		vn := sc.sys.vnOf[idx]
		for _, m := range st.net.Local[dst][vn] {
			if m.Name == idx && int(m.Addr) == addr {
				return nil
			}
		}
		// Find a global buffer whose head is the wanted message.
		found := false
		for buf := 0; buf < 2 && !found; buf++ {
			q := st.net.Global[vn][buf]
			if len(q) > 0 && q[0].Name == idx && int(q[0].Addr) == addr && int(q[0].Dst) == dst {
				found = true
				if err := sc.step(
					fmt.Sprintf("deliver %s a%d to ep%d", msgName, addr, dst),
					func(r Rule) bool {
						return r.Kind == RuleDeliver && r.VN == vn && r.Buf == buf
					}); err != nil {
					return err
				}
			}
		}
		if !found {
			return fmt.Errorf("scenario: %s for a%d toward ep%d is not at any buffer head (state:\n%s)",
				msgName, addr, dst, sc.sys.Describe(sc.state))
		}
	}
	return nil
}

// Process consumes the head of endpoint ep's input FIFO on the VN of
// msgName, checking the head is that message for addr.
func (sc *Scenario) Process(ep int, msgName string, addr int) error {
	idx, ok := sc.sys.msgIdx[msgName]
	if !ok {
		return fmt.Errorf("scenario: unknown message %q", msgName)
	}
	vn := sc.sys.vnOf[idx]
	st := sc.sys.decode(sc.state)
	head, ok2 := st.net.Head(ep, vn)
	if !ok2 || head.Name != idx || int(head.Addr) != addr {
		return fmt.Errorf("scenario: ep%d VN%d head is not %s a%d (state:\n%s)",
			ep, vn, msgName, addr, sc.sys.Describe(sc.state))
	}
	return sc.step(
		fmt.Sprintf("ep%d processes %s a%d", ep, msgName, addr),
		func(r Rule) bool {
			return r.Kind == RuleProcess && r.Endpoint == ep && r.PVN == vn
		})
}

// Handle delivers msgName for addr to ep and processes it.
func (sc *Scenario) Handle(ep int, msgName string, addr int) error {
	if err := sc.DeliverTo(msgName, addr, ep); err != nil {
		return err
	}
	return sc.Process(ep, msgName, addr)
}

// ProcessVia is Process with all outgoing messages directed into
// global buffer buf — the lever for scripting specific network
// reorderings (the Fig. 3 replay interleaves two generations of
// forwards through different buffers).
func (sc *Scenario) ProcessVia(ep int, msgName string, addr, buf int) error {
	idx, ok := sc.sys.msgIdx[msgName]
	if !ok {
		return fmt.Errorf("scenario: unknown message %q", msgName)
	}
	vn := sc.sys.vnOf[idx]
	st := sc.sys.decode(sc.state)
	head, ok2 := st.net.Head(ep, vn)
	if !ok2 || head.Name != idx || int(head.Addr) != addr {
		return fmt.Errorf("scenario: ep%d VN%d head is not %s a%d (state:\n%s)",
			ep, vn, msgName, addr, sc.sys.Describe(sc.state))
	}
	return sc.step(
		fmt.Sprintf("ep%d processes %s a%d via buf%d", ep, msgName, addr, buf),
		func(r Rule) bool {
			if r.Kind != RuleProcess || r.Endpoint != ep || r.PVN != vn {
				return false
			}
			for _, b := range r.Plan {
				if b != buf {
					return false
				}
			}
			return true
		})
}

// HandleVia delivers msgName for addr to ep and processes it, routing
// the resulting sends into global buffer buf.
func (sc *Scenario) HandleVia(ep int, msgName string, addr, buf int) error {
	if err := sc.DeliverTo(msgName, addr, ep); err != nil {
		return err
	}
	return sc.ProcessVia(ep, msgName, addr, buf)
}

// Stuck reports whether the current state has no enabled rules while
// not quiescent — a deadlock.
func (sc *Scenario) Stuck() (bool, error) {
	rules, err := sc.sys.EnabledRules(sc.state)
	if err != nil {
		return false, err
	}
	return len(rules) == 0 && !sc.sys.Quiescent(sc.state), nil
}

// StalledHeads lists input-FIFO heads whose processing is currently
// stalled, as "ep3 VN0: Fwd-GetM a1" strings — the visible footprint
// of a (potential) deadlock.
func (sc *Scenario) StalledHeads() []string {
	st := sc.sys.decode(sc.state)
	var out []string
	for ep := 0; ep < sc.sys.endpoints; ep++ {
		for vn := 0; vn < sc.sys.net.NumVNs; vn++ {
			m, ok := st.net.Head(ep, vn)
			if !ok {
				continue
			}
			tab, state, _, t := sc.sys.reception(st, ep, m)
			if t != nil && t.stall {
				out = append(out, fmt.Sprintf("ep%d VN%d: %s a%d stalled in %s",
					ep, vn, sc.sys.msgNames[m.Name], m.Addr, tab.states[state]))
			}
		}
	}
	return out
}

// Describe renders the current state.
func (sc *Scenario) Describe() string { return sc.sys.Describe(sc.state) }

// FormatLog renders the step log.
func (sc *Scenario) FormatLog() string { return strings.Join(sc.log, "\n") }

// OwnedSeed drives sys into the Fig. 3 starting point — cache i owns
// address i in the modified state, for i < min(caches, addrs, 2) — and
// returns the encoded state, the seed of the Table I deadlock hunts.
// The ownership prefix uses each protocol family's write-request
// vocabulary.
func OwnedSeed(sys *System) ([]byte, error) {
	cfg := sys.Config()
	sc := NewScenario(sys)
	dataName, getM, ack := "Data", "GetM", ""
	switch cfg.Protocol.Name {
	case "CHI":
		dataName, getM, ack = "CompData", "ReadUnique", "CompAck"
	case "TileLink":
		dataName, getM, ack = "GrantUnique", "AcquireUnique", "GrantAck"
	}
	for i := 0; i < min(cfg.Caches, cfg.Addrs, 2); i++ {
		home := cfg.Caches + i%cfg.Dirs
		if err := sc.Core(i, i, protocol.Store); err != nil {
			return nil, err
		}
		if err := sc.Handle(home, getM, i); err != nil {
			return nil, err
		}
		if err := sc.Handle(i, dataName, i); err != nil {
			return nil, err
		}
		if ack != "" {
			if err := sc.Handle(home, ack, i); err != nil {
				return nil, err
			}
		}
	}
	return sc.State(), nil
}
