package machine

import (
	"fmt"
	"sort"

	"minvn/internal/icn"
)

// OccupancyProfiler adapts icn.OccupancyProfiler to the model
// checker's state-observer hook: it slices the network portion out of
// an encoded system state and aggregates its per-VN queue depths. One
// profiler observes one run; feed it to mc.Options.Observer.
//
// Like System.decode, it only ever sees bytes the system itself
// encoded, so a malformed state is a programming bug and panics rather
// than returning an error through the checker's hot path.
type OccupancyProfiler struct {
	prof *icn.OccupancyProfiler
	// ctrlBytes is the length of the controller-entry prefix that
	// precedes the network encoding in every encoded state.
	ctrlBytes int
}

// NewOccupancyProfiler builds a profiler for this system's states,
// with each VN labeled by the message names assigned to it.
func (s *System) NewOccupancyProfiler() *OccupancyProfiler {
	p := &OccupancyProfiler{
		prof:      icn.NewOccupancyProfiler(s.net),
		ctrlBytes: s.netOff,
	}
	byVN := make([][]string, s.cfg.NumVNs)
	for name, vn := range s.cfg.VN {
		byVN[vn] = append(byVN[vn], name)
	}
	for vn, names := range byVN {
		sort.Strings(names)
		p.prof.SetMessages(vn, names)
	}
	return p
}

// Observe implements mc.StateObserver for encoded system states.
func (p *OccupancyProfiler) Observe(state []byte) {
	if len(state) < p.ctrlBytes {
		panic(fmt.Sprintf("machine: occupancy observer: state truncated to %d bytes (controllers need %d)",
			len(state), p.ctrlBytes))
	}
	if err := p.prof.ObserveEncoded(state[p.ctrlBytes:]); err != nil {
		panic(fmt.Sprintf("machine: occupancy observer: corrupt network state: %v", err))
	}
}

// Stats returns the aggregate so far. The model checker embeds it in
// every mc.Snapshot of a run this profiler observes.
func (p *OccupancyProfiler) Stats() *icn.OccupancyStats { return p.prof.Stats() }
