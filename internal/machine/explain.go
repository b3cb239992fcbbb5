package machine

import (
	"fmt"
	"sort"
	"strings"
)

// Deadlock explanation: given a wedged state, reconstruct the wait-for
// graph between endpoints in the paper's vocabulary — which queue
// heads are stalled (waits edges), which messages are queued behind
// them (queues edges), and the cycle that closes the deadlock. This is
// the dynamic counterpart of Eq. 4 and turns a raw counterexample into
// the kind of narrative the paper uses for Fig. 3.

// BlockedHead describes one stalled input-FIFO head.
type BlockedHead struct {
	Endpoint     int
	VN           int
	Msg          string
	Addr         int
	State        string // controller state doing the stalling
	QueuedBehind []QueuedMsg
}

// QueuedMsg is a message stuck behind a stalled head.
type QueuedMsg struct {
	Msg  string
	Addr int
	Src  int
	Req  int
}

// Explanation is the analysis of a wedged (or wedging) state.
type Explanation struct {
	Blocked []BlockedHead
	// PendingTransients lists controllers sitting in transient states
	// with empty queues — they wait for messages that are stuck
	// elsewhere.
	PendingTransients []string
	// CycleHint names message kinds that appear both stalled and
	// queued-behind — the same-name collisions that make Class 2
	// protocols unfixable.
	CycleHint []string
}

// Explain analyzes an encoded state.
func (s *System) Explain(raw []byte) *Explanation {
	st := s.decode(raw)
	ex := &Explanation{}

	stalledNames := map[string]bool{}
	queuedNames := map[string]bool{}

	for ep := 0; ep < s.endpoints; ep++ {
		for vn := 0; vn < s.net.NumVNs; vn++ {
			q := st.net.Local[ep][vn]
			if len(q) == 0 {
				continue
			}
			m := q[0]
			tab, state, _, t := s.reception(st, ep, m)
			if t == nil || !t.stall {
				continue
			}
			head := BlockedHead{
				Endpoint: ep,
				VN:       vn,
				Msg:      s.msgNames[m.Name],
				Addr:     int(m.Addr),
				State:    tab.states[state],
			}
			stalledNames[head.Msg] = true
			for _, behind := range q[1:] {
				head.QueuedBehind = append(head.QueuedBehind, QueuedMsg{
					Msg:  s.msgNames[behind.Name],
					Addr: int(behind.Addr),
					Src:  int(behind.Src),
					Req:  int(behind.Req),
				})
				queuedNames[s.msgNames[behind.Name]] = true
			}
			ex.Blocked = append(ex.Blocked, head)
		}
	}

	// Transient controllers with nothing deliverable: starved waiters.
	for c := 0; c < s.cfg.Caches; c++ {
		for a := 0; a < s.cfg.Addrs; a++ {
			if id := st.cache[c][a].state; s.cache.transient[id] {
				ex.PendingTransients = append(ex.PendingTransients,
					fmt.Sprintf("cache %d a%d in %s", c, a, s.cache.states[id]))
			}
		}
	}
	for a := range st.l2 {
		if id := st.l2[a].state; s.l2.transient[id] {
			ex.PendingTransients = append(ex.PendingTransients,
				fmt.Sprintf("l2(a%d) in %s", a, s.l2.states[id]))
		}
	}
	for a := 0; a < s.cfg.Addrs; a++ {
		if id := st.dir[a].state; s.dir.transient[id] {
			ex.PendingTransients = append(ex.PendingTransients,
				fmt.Sprintf("directory(a%d) in %s", a, s.dir.states[id]))
		}
	}

	for n := range stalledNames {
		if queuedNames[n] {
			ex.CycleHint = append(ex.CycleHint, n)
		}
	}
	sort.Strings(ex.CycleHint)
	return ex
}

// String renders the explanation as a short narrative.
func (e *Explanation) String() string {
	var b strings.Builder
	if len(e.Blocked) == 0 {
		b.WriteString("no stalled queue heads — the state is starved, not stalled\n")
	}
	for _, h := range e.Blocked {
		fmt.Fprintf(&b, "ep%d VN%d: %s (a%d) is stalled by state %s\n",
			h.Endpoint, h.VN, h.Msg, h.Addr, h.State)
		for _, q := range h.QueuedBehind {
			fmt.Fprintf(&b, "    %s (a%d, from ep%d) is queued behind it\n", q.Msg, q.Addr, q.Src)
		}
	}
	if len(e.PendingTransients) > 0 {
		fmt.Fprintf(&b, "waiting controllers: %s\n", strings.Join(e.PendingTransients, "; "))
	}
	if len(e.CycleHint) > 0 {
		fmt.Fprintf(&b, "same-name collision (Class 2 signature): %s both stalls and queues behind itself\n",
			strings.Join(e.CycleHint, ", "))
	}
	return b.String()
}

// SequenceChart renders a model-checking trace as an ASCII message
// sequence chart: one column per endpoint, one row per step that
// changed a controller state or moved a message. Rows show the rule's
// visible effect; long traces elide unchanged prefixes.
func (s *System) SequenceChart(trace [][]byte, maxRows int) string {
	if len(trace) == 0 {
		return ""
	}
	var b strings.Builder
	// Header.
	fmt.Fprintf(&b, "%-6s", "step")
	for ep := 0; ep < s.endpoints; ep++ {
		fmt.Fprintf(&b, " %-14s", s.epLabel(ep))
	}
	b.WriteString("\n")

	start := 0
	if maxRows > 0 && len(trace) > maxRows {
		start = len(trace) - maxRows
		fmt.Fprintf(&b, "… %d earlier steps elided …\n", start)
	}
	for i := start; i < len(trace); i++ {
		st := s.decode(trace[i])
		fmt.Fprintf(&b, "%-6d", i)
		for ep := 0; ep < s.endpoints; ep++ {
			cell := ""
			switch {
			case s.isCache(ep):
				var parts []string
				for a := 0; a < s.cfg.Addrs; a++ {
					parts = append(parts, s.cache.states[st.cache[ep][a].state])
				}
				cell = strings.Join(parts, "/")
			case s.isL2(ep):
				var parts []string
				for a := 0; a < s.cfg.Addrs; a++ {
					if s.innerHome(a) == ep {
						parts = append(parts, s.l2.states[st.l2[a].state])
					}
				}
				cell = strings.Join(parts, "/")
			default:
				var parts []string
				for a := 0; a < s.cfg.Addrs; a++ {
					if s.home(a) == ep {
						parts = append(parts, s.dir.states[st.dir[a].state])
					}
				}
				cell = strings.Join(parts, "/")
			}
			// Mark queue occupancy.
			pend := 0
			for vn := 0; vn < s.net.NumVNs; vn++ {
				pend += len(st.net.Local[ep][vn])
			}
			if pend > 0 {
				cell += fmt.Sprintf("(+%d)", pend)
			}
			fmt.Fprintf(&b, " %-14s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
