package icn

// Occupancy profiling: aggregate per-VN queue-depth distributions over
// the states a model-checking run stores. The paper sizes virtual
// networks so that its sufficient condition holds; these histograms are
// the empirical counterpart — across every reachable (stored) state,
// how deep do each VN's global buffers and endpoint input FIFOs
// actually get, and how close do they come to the configured
// capacities? Shallow occupancy under the computed minimal assignment
// is the evidence that minimizing VNs does not trade deadlock freedom
// for congestion.

import "fmt"

// VNOccupancy aggregates one virtual network's queue depths across all
// observed states. Histogram index d counts observations of depth d:
// GlobalHist counts one observation per global buffer per state (two
// per state), LocalHist one per endpoint input FIFO per state.
type VNOccupancy struct {
	VN int `json:"vn"`
	// Messages lists the message names assigned to this VN, when the
	// observer knows the assignment (machine-level profilers fill it).
	Messages []string `json:"messages,omitempty"`

	GlobalHist []int64 `json:"global_depth_hist"`
	LocalHist  []int64 `json:"local_depth_hist"`

	// High-water marks: the deepest any global buffer / endpoint FIFO
	// of this VN got in any observed state.
	GlobalHighWater int `json:"global_high_water"`
	LocalHighWater  int `json:"local_high_water"`
}

// OccupancyStats is the serializable aggregate over a whole run.
type OccupancyStats struct {
	// StatesObserved counts the states aggregated — for the model
	// checker, the distinct stored states.
	StatesObserved int64 `json:"states_observed"`
	// GlobalCap and LocalCap record the configured capacities so the
	// histograms can be read against their ceilings.
	GlobalCap int `json:"global_cap"`
	LocalCap  int `json:"local_cap"`

	PerVN []VNOccupancy `json:"per_vn"`

	// GlobalHighWater and LocalHighWater are the maxima over all VNs —
	// the headline "how deep did any queue get" numbers.
	GlobalHighWater int `json:"global_high_water"`
	LocalHighWater  int `json:"local_high_water"`
}

// Equal reports whether two aggregates are identical — the engine
// parity tests' comparison.
func (o *OccupancyStats) Equal(p *OccupancyStats) bool {
	if o == nil || p == nil {
		return o == p
	}
	if o.StatesObserved != p.StatesObserved ||
		o.GlobalCap != p.GlobalCap || o.LocalCap != p.LocalCap ||
		o.GlobalHighWater != p.GlobalHighWater || o.LocalHighWater != p.LocalHighWater ||
		len(o.PerVN) != len(p.PerVN) {
		return false
	}
	histEq := func(a, b []int64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := range o.PerVN {
		a, b := &o.PerVN[i], &p.PerVN[i]
		if a.VN != b.VN || a.GlobalHighWater != b.GlobalHighWater ||
			a.LocalHighWater != b.LocalHighWater ||
			!histEq(a.GlobalHist, b.GlobalHist) || !histEq(a.LocalHist, b.LocalHist) {
			return false
		}
	}
	return true
}

// OccupancyProfiler accumulates OccupancyStats state by state. Not
// safe for concurrent use; the model checker feeds it from its
// single-threaded store path.
type OccupancyProfiler struct {
	cfg      Config
	observed int64
	// hist is every VN's global-buffer depth histogram (GlobalCap+1
	// slots each), then every VN's endpoint-FIFO one (LocalCap+1 each),
	// in one flat array; high-water marks are read off it by Stats.
	// base[i] is where the histogram of the encoding's i-th queue starts,
	// and depths[i] is where ObserveEncoded records that queue's length.
	hist     []int64
	base     []int
	depths   []uint8
	messages [][]string
}

// NewOccupancyProfiler builds a profiler for states shaped by cfg.
func NewOccupancyProfiler(cfg Config) *OccupancyProfiler {
	g, l := cfg.GlobalCap+1, cfg.LocalCap+1
	p := &OccupancyProfiler{
		cfg:      cfg,
		hist:     make([]int64, cfg.NumVNs*(g+l)),
		depths:   make([]uint8, cfg.NumVNs*(2+cfg.Endpoints)),
		messages: make([][]string, cfg.NumVNs),
	}
	// Queues in State.Encode's order: each VN's two global buffers, then
	// each endpoint's FIFO per VN.
	for vn := 0; vn < cfg.NumVNs; vn++ {
		p.base = append(p.base, vn*g, vn*g)
	}
	for e := 0; e < cfg.Endpoints; e++ {
		for vn := 0; vn < cfg.NumVNs; vn++ {
			p.base = append(p.base, cfg.NumVNs*g+vn*l)
		}
	}
	return p
}

// ObserveEncoded aggregates one encoded network state (exactly the
// bytes State.Encode wrote) without decoding a message: it reads each
// queue's length byte and skips its records. It rejects what
// DecodeInto rejects — a length above the queue's capacity or past the
// end of the input — and, since the network is the encoding's tail,
// bytes left after the last FIFO. A rejected state leaves the
// aggregate untouched.
func (p *OccupancyProfiler) ObserveEncoded(data []byte) error {
	// Each length byte says where the next one is, so the walk is one
	// chain of dependent loads; it only records the lengths, and the
	// counting, which nothing chains, happens once the state is valid.
	off, globals := 0, 2*p.cfg.NumVNs
	for i := range p.depths {
		if off >= len(data) {
			return fmt.Errorf("icn: truncated state: missing queue length")
		}
		n, capacity := int(data[off]), p.cfg.LocalCap
		if i < globals {
			capacity = p.cfg.GlobalCap
		}
		if n > capacity {
			return fmt.Errorf("icn: queue length %d exceeds capacity %d", n, capacity)
		}
		next := off + 1 + n*MessageBytes
		if next > len(data) {
			return fmt.Errorf("icn: truncated state: queue needs %d bytes, %d left",
				n*MessageBytes, len(data)-off-1)
		}
		p.depths[i] = uint8(n)
		off = next
	}
	if off < len(data) {
		return fmt.Errorf("icn: %d bytes after the last queue", len(data)-off)
	}
	p.observed++
	for i, d := range p.depths {
		p.hist[p.base[i]+int(d)]++
	}
	return nil
}

// Stats returns the aggregate so far, with each histogram cut after its
// high-water mark (the serialized form stays readable for large
// capacities).
func (p *OccupancyProfiler) Stats() *OccupancyStats {
	out := &OccupancyStats{StatesObserved: p.observed, GlobalCap: p.cfg.GlobalCap, LocalCap: p.cfg.LocalCap,
		PerVN: make([]VNOccupancy, p.cfg.NumVNs)}
	g, l := p.cfg.GlobalCap+1, p.cfg.LocalCap+1
	local := p.hist[p.cfg.NumVNs*g:]
	// upTo copies hist through its deepest observed depth, which it
	// returns as the high-water mark.
	upTo := func(hist []int64) ([]int64, int) {
		hw := len(hist) - 1
		for hw > 0 && hist[hw] == 0 {
			hw--
		}
		return append([]int64(nil), hist[:hw+1]...), hw
	}
	for vn := range out.PerVN {
		v := &out.PerVN[vn]
		v.VN = vn
		v.Messages = append([]string(nil), p.messages[vn]...)
		v.GlobalHist, v.GlobalHighWater = upTo(p.hist[vn*g : (vn+1)*g])
		v.LocalHist, v.LocalHighWater = upTo(local[vn*l : (vn+1)*l])
		out.GlobalHighWater = max(out.GlobalHighWater, v.GlobalHighWater)
		out.LocalHighWater = max(out.LocalHighWater, v.LocalHighWater)
	}
	return out
}

// SetMessages labels a VN with the message names assigned to it.
func (p *OccupancyProfiler) SetMessages(vn int, names []string) {
	p.messages[vn] = append([]string(nil), names...)
}

// Merge folds another aggregate into o, leaving p as it was: the way
// mc.MergeSnapshots combines per-worker profiles over a partitioned
// state space (internal/dist) into a fresh aggregate:
// histograms add element-wise (padded to the longer), high-water marks
// take the maximum, and StatesObserved sums. Because the distributed
// engine partitions states by fingerprint owner, each state is
// observed by exactly one worker and the merged aggregate equals a
// single profiler observing the whole set — which the distributed
// parity suite pins against the pipelined engine. Both aggregates must
// describe the same network shape (VN count and capacities); Merge
// panics on a shape mismatch, which can only be a coordinator bug.
func (o *OccupancyStats) Merge(p *OccupancyStats) {
	if p == nil {
		return
	}
	if o.StatesObserved == 0 && len(o.PerVN) == 0 {
		// Merging into a zero aggregate adopts p's shape.
		o.GlobalCap, o.LocalCap = p.GlobalCap, p.LocalCap
		o.PerVN = make([]VNOccupancy, len(p.PerVN))
		for i, v := range p.PerVN {
			c := v
			c.Messages = append([]string(nil), v.Messages...)
			c.GlobalHist = make([]int64, len(v.GlobalHist))
			c.LocalHist = make([]int64, len(v.LocalHist))
			o.PerVN[i] = c
		}
	}
	if o.GlobalCap != p.GlobalCap || o.LocalCap != p.LocalCap || len(o.PerVN) != len(p.PerVN) {
		panic("icn: merging occupancy aggregates of different network shapes")
	}
	addHist := func(dst *[]int64, src []int64) {
		for len(*dst) < len(src) {
			*dst = append(*dst, 0)
		}
		for i, v := range src {
			(*dst)[i] += v
		}
	}
	o.StatesObserved += p.StatesObserved
	for i := range p.PerVN {
		a, b := &o.PerVN[i], &p.PerVN[i]
		addHist(&a.GlobalHist, b.GlobalHist)
		addHist(&a.LocalHist, b.LocalHist)
		if b.GlobalHighWater > a.GlobalHighWater {
			a.GlobalHighWater = b.GlobalHighWater
		}
		if b.LocalHighWater > a.LocalHighWater {
			a.LocalHighWater = b.LocalHighWater
		}
		if len(a.Messages) == 0 {
			a.Messages = append([]string(nil), b.Messages...)
		}
	}
	if p.GlobalHighWater > o.GlobalHighWater {
		o.GlobalHighWater = p.GlobalHighWater
	}
	if p.LocalHighWater > o.LocalHighWater {
		o.LocalHighWater = p.LocalHighWater
	}
}
