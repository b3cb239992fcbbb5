// Package machine gives a protocol specification executable semantics:
// a system of N cache controllers and D directories over A addresses
// (address a is homed at directory a mod D), communicating through the
// paper's ICN model (package icn) under a concrete message→VN
// assignment. It exposes the guarded-rule transition system the model
// checker explores (paper §VII-A) and a deterministic scenario driver
// for replaying specific executions such as the Fig. 3 deadlock.
//
// New compiles the protocol once (compile.go): the source tables, maps
// keyed by state and event names, become dense per-controller tables
// indexed by state id and event slot, with the unqualified fallback
// column folded in, actions resolved to message ids, and rule labels
// interned. Expansion (rules.go) then runs over a pooled scratch state:
// decode into it, fire one rule in place, splice the successor into the
// scratch's arena — the parent's bytes with the controller sections and
// the few queues the rule changed written afresh — and roll the rule
// back. Expand (model.go) lends those encodings to a visitor and
// allocates nothing — the form the model checker runs on, since most
// successors turn out to be duplicates and are never kept; the
// collecting forms beside it copy them into fresh slices.
// AppendCanonical (canon.go) relabels straight from the encoded bytes
// into the caller's buffer; Canonicalize is the same into a fresh one.
// The reference for all of it is testdata/expansion.golden, recorded
// from the table interpreter this replaced.
package machine

import (
	"fmt"
	"math/bits"
	"sync"

	"minvn/internal/icn"
	"minvn/internal/protocol"
)

// Config describes one system instance. The paper's verification uses
// 3 caches, 2 addresses, and 2 directories (§VII-A.2).
//
// The JSON form is what the distributed engine sends its workers: the
// protocol travels as its canonical protocol.Encode document and is
// rebuilt through the hardened protocol.Decode, so every worker builds
// the identical system or refuses the document.
type Config struct {
	Protocol *protocol.Protocol `json:"protocol"`
	Caches   int                `json:"caches"`
	Dirs     int                `json:"dirs"`
	Addrs    int                `json:"addrs"`
	// L2s is the number of L2 home nodes for a two-level composite
	// protocol (Protocol.L2 != nil); it must be 0 for flat protocols.
	// Address a is homed at L2 a mod L2s on the inner tier and at
	// directory a mod Dirs on the outer tier. Endpoint ids run caches,
	// then L2 homes, then directories. Caches+L2s must stay ≤ 8 (the
	// sharer bitmasks are bytes of absolute endpoint ids).
	L2s int `json:"l2s,omitempty"`
	// VN maps message names to virtual networks; NumVNs must exceed
	// every value. Helpers in this package build common assignments.
	VN     map[string]int `json:"vn"`
	NumVNs int            `json:"num_vns"`
	// Buffer capacities. When zero they default to the paper's
	// sizing (footnote 5: the model suffices for protocols limiting
	// in-flight messages per source/destination pair to two):
	// GlobalCap = 2·E·(E−1), LocalCap = 2·(E−1) for E endpoints —
	// large enough that sends and deliveries never block, so every
	// reported deadlock is a genuine protocol/VN deadlock rather
	// than buffer backpressure. Smaller explicit values model
	// capacity-constrained networks (the capacity-sweep ablation).
	GlobalCap int `json:"global_cap,omitempty"`
	LocalCap  int `json:"local_cap,omitempty"`
	// PointToPoint selects ordered mode with the given mapping
	// variant (see icn.UniformP2P).
	PointToPoint bool `json:"point_to_point,omitempty"`
	P2PVariant   int  `json:"p2p_variant,omitempty"`
	// NoSymmetry disables the cache-permutation symmetry reduction.
	NoSymmetry bool `json:"no_symmetry,omitempty"`
	// CoreEvents restricts the processor events the model checker
	// injects (nil = all of Load, Store, Replacement). Restricting
	// the workload is standard verification practice for focusing a
	// search; the Table I deadlock hunts for MOSI/MOESI use
	// {Load, Store}.
	CoreEvents []protocol.CoreEvent `json:"core_events,omitempty"`
	// Invariants enables SWMR and bookkeeping checks on every
	// explored state (see invariants.go).
	Invariants bool `json:"invariants,omitempty"`
	// Permissions overrides the stable-state permission table used by
	// the SWMR check, for protocols with novel state names.
	Permissions map[string]Permission `json:"permissions,omitempty"`
}

// System is an executable instance; build with New.
type System struct {
	cfg Config
	p   *protocol.Protocol

	// Messages by id (declaration order) and their attributes.
	msgNames []string
	msgIdx   map[string]uint8
	vnOf     []int
	msgQual  []protocol.QualKind
	msgOuter []bool
	// undeclared holds the spellings of sent messages the protocol does
	// not declare, for the violation such a send raises when it fires.
	undeclared []string

	// The compiled controller tables (l2 is nil for flat systems), the
	// core events by slot, the slots expansion injects, and the interned
	// rule labels by rule id: a core rule's id is its slot, a delivery's
	// deliverRule + VN, a processing rule's processRule + message id. See
	// compile.go.
	cache, dir, l2 *ctrlTable
	cachePerm      []Permission // cache state id → access granted (SWMR check)
	coreSlots      []protocol.CoreEvent
	coreEnum       []int
	ruleNames      []string
	deliverRule    int
	processRule    int

	endpoints int
	net       icn.Config
	perms     []perm // cache permutations for symmetry reduction; nil when off

	// Layout of an encoded state: the cache section starts at 0, then
	// the l2 section (empty for flat systems), the directory section
	// and the network, which holds `queues` FIFOs.
	l2Off, dirOff, netOff, queues int

	// expandPool recycles the scratch of expansion across (possibly
	// concurrent) calls.
	expandPool sync.Pool
}

// New validates cfg and builds a system.
func New(cfg Config) (*System, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("machine: no protocol")
	}
	if cfg.Caches < 1 || cfg.Caches > 8 {
		return nil, fmt.Errorf("machine: caches must be in 1..8, got %d", cfg.Caches)
	}
	if cfg.Dirs < 1 || cfg.Addrs < 1 {
		return nil, fmt.Errorf("machine: need at least one directory and address")
	}
	if cfg.Addrs < cfg.Dirs {
		return nil, fmt.Errorf("machine: fewer addresses (%d) than directories (%d) leaves idle directories", cfg.Addrs, cfg.Dirs)
	}
	if cfg.Protocol.TwoLevel() != (cfg.L2s > 0) {
		if cfg.Protocol.TwoLevel() {
			return nil, fmt.Errorf("machine: two-level protocol %q needs L2s >= 1", cfg.Protocol.Name)
		}
		return nil, fmt.Errorf("machine: L2s set but protocol %q has no L2 controller", cfg.Protocol.Name)
	}
	if cfg.L2s > 0 {
		if cfg.Caches+cfg.L2s > 8 {
			return nil, fmt.Errorf("machine: caches+L2s (%d) beyond the sharer-bitmask limit of 8", cfg.Caches+cfg.L2s)
		}
		if cfg.Addrs < cfg.L2s {
			return nil, fmt.Errorf("machine: fewer addresses (%d) than L2 homes (%d) leaves idle homes", cfg.Addrs, cfg.L2s)
		}
		if cfg.Invariants {
			return nil, fmt.Errorf("machine: invariant checking is not supported for two-level protocols")
		}
	}
	endpoints := cfg.Caches + cfg.L2s + cfg.Dirs
	if cfg.GlobalCap == 0 {
		cfg.GlobalCap = 2 * endpoints * (endpoints - 1)
	}
	if cfg.LocalCap == 0 {
		cfg.LocalCap = 2 * (endpoints - 1)
	}
	if cfg.GlobalCap > 250 || cfg.LocalCap > 250 {
		return nil, fmt.Errorf("machine: buffer capacities beyond the byte-encoded limit (250)")
	}
	if cfg.NumVNs < 1 {
		return nil, fmt.Errorf("machine: NumVNs must be positive, got %d", cfg.NumVNs)
	}

	s := &System{
		cfg:       cfg,
		p:         cfg.Protocol,
		msgIdx:    make(map[string]uint8),
		endpoints: endpoints,
	}
	for _, name := range s.p.MessageNames() {
		s.msgIdx[name] = uint8(len(s.msgNames))
		s.msgNames = append(s.msgNames, name)
		vn, ok := cfg.VN[name]
		if !ok {
			return nil, fmt.Errorf("machine: message %q has no VN assignment", name)
		}
		if vn < 0 || vn >= cfg.NumVNs {
			return nil, fmt.Errorf("machine: message %q assigned VN %d outside [0,%d)", name, vn, cfg.NumVNs)
		}
		s.vnOf = append(s.vnOf, vn)
	}

	s.net = icn.Config{
		NumVNs:       cfg.NumVNs,
		Endpoints:    s.endpoints,
		GlobalCap:    cfg.GlobalCap,
		LocalCap:     cfg.LocalCap,
		PointToPoint: cfg.PointToPoint,
	}
	if cfg.PointToPoint {
		s.net.P2P = icn.UniformP2P(s.endpoints, cfg.P2PVariant)
	}
	if err := s.net.Validate(); err != nil {
		return nil, err
	}
	s.compile()

	s.l2Off = cfg.Caches * cfg.Addrs * cacheEntryBytes
	s.dirOff = s.l2Off
	if cfg.L2s > 0 {
		s.dirOff += cfg.Addrs * l2EntryBytes
	}
	s.netOff = s.dirOff + cfg.Addrs*dirEntryBytes
	s.queues = (2 + s.endpoints) * cfg.NumVNs

	if !cfg.NoSymmetry {
		s.perms = permutations(cfg.Caches)
	}
	s.expandPool.New = func() any { return s.newScratch() }
	return s, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// home returns the endpoint id of the directory owning addr — the one
// and only home in a flat system, the outer home in a two-level one.
func (s *System) home(addr int) int { return s.cfg.Caches + s.cfg.L2s + addr%s.cfg.Dirs }

// innerHome returns the home the caches send inner requests to: the L2
// home of addr in a two-level system, the directory otherwise.
func (s *System) innerHome(addr int) int {
	if s.cfg.L2s > 0 {
		return s.cfg.Caches + addr%s.cfg.L2s
	}
	return s.home(addr)
}

// isCache reports whether endpoint e is an L1 cache.
func (s *System) isCache(e int) bool { return e < s.cfg.Caches }

// isL2 reports whether endpoint e is an L2 home.
func (s *System) isL2(e int) bool {
	return e >= s.cfg.Caches && e < s.cfg.Caches+s.cfg.L2s
}

// cacheEntry is one cache's per-address state.
type cacheEntry struct {
	state     uint8
	acks      int8
	saved     uint8 // 0 = none, else cache/endpoint id + 1
	savedAcks int8
}

// dirEntry is the home directory's per-address state. In a two-level
// system the owner and sharers reference L2 endpoint ids.
type dirEntry struct {
	state   uint8
	owner   uint8 // 0 = none, else endpoint id + 1
	sharers uint8 // bitmask over client endpoint ids
	acks    int8
}

// l2Entry is the L2 home's per-address state in a two-level system: a
// directory book over the inner caches plus a cache-side ack counter
// for its own outer transactions.
type l2Entry struct {
	state     uint8
	owner     uint8 // inner owner: 0 = none, else cache id + 1
	sharers   uint8 // inner sharers: bitmask over cache ids
	acks      int8  // inner directory ack counter
	cacheAcks int8  // outer (cache-role) ack counter
}

// Encoded sizes of the three entry kinds (see appendControllers).
const (
	cacheEntryBytes = 4 // state, acks, saved, savedAcks
	l2EntryBytes    = 5 // state, owner, sharers, acks, cacheAcks
	dirEntryBytes   = 4 // state, owner, sharers, acks
)

// state is the decoded system state. l2 is nil for flat systems.
type state struct {
	cache [][]cacheEntry // [cache][addr]
	l2    []l2Entry      // [addr]
	dir   []dirEntry     // [addr]
	net   *icn.State
}

func (s *System) newState() *state {
	st := &state{
		cache: make([][]cacheEntry, s.cfg.Caches),
		dir:   make([]dirEntry, s.cfg.Addrs),
		net:   icn.NewState(s.net),
	}
	rows := make([]cacheEntry, s.cfg.Caches*s.cfg.Addrs)
	for i := range rows {
		rows[i].state = s.cache.initial
	}
	for c := range st.cache {
		st.cache[c] = rows[c*s.cfg.Addrs : (c+1)*s.cfg.Addrs : (c+1)*s.cfg.Addrs]
	}
	for a := range st.dir {
		st.dir[a].state = s.dir.initial
	}
	if s.cfg.L2s > 0 {
		st.l2 = make([]l2Entry, s.cfg.Addrs)
		for a := range st.l2 {
			st.l2[a].state = s.l2.initial
		}
	}
	return st
}

func int8b(v int8) byte { return byte(uint8(v) + 128) }
func bInt8(b byte) int8 { return int8(b - 128) }

// encode produces the deterministic byte form used for deduplication
// and trace storage: the controller sections, then the network.
// Expansion splices its successors instead (appendSpliced), so this is
// the encoder of Initial, Apply and the scenario driver — and Apply the
// independent reference the splice is tested against.
func (s *System) encode(st *state) []byte {
	size := s.netOff + s.queues + st.net.InFlight()*icn.MessageBytes
	return st.net.Encode(s.appendControllers(make([]byte, 0, size), st))
}

// appendControllers appends the controller sections of st's encoding:
// every cache entry, then the l2 and the directory entries.
func (s *System) appendControllers(out []byte, st *state) []byte {
	for _, row := range st.cache {
		for _, e := range row {
			out = append(out, e.state, int8b(e.acks), e.saved, int8b(e.savedAcks))
		}
	}
	// The l2 section is only present in two-level systems, so flat
	// encodings are byte-identical to the historical format.
	for _, e := range st.l2 {
		out = append(out, e.state, e.owner, e.sharers, int8b(e.acks), int8b(e.cacheAcks))
	}
	for _, e := range st.dir {
		out = append(out, e.state, e.owner, e.sharers, int8b(e.acks))
	}
	return out
}

// The network's FIFOs are numbered in encoding order (icn.State.Encode):
// the two global buffers of each VN, then every endpoint's input FIFOs,
// VN by VN. globalQueue and localQueue give a FIFO's number, queue the
// FIFO a number names.

func globalQueue(vn, buf int) int { return 2*vn + buf }

func (s *System) localQueue(e, vn int) int { return (2+e)*s.net.NumVNs + vn }

func (s *System) queue(st *state, q int) []icn.Message {
	vns := s.net.NumVNs
	if q < 2*vns {
		return st.net.Global[q/2][q%2]
	}
	q -= 2 * vns
	return st.net.Local[q/vns][q%vns]
}

// appendQueue appends one FIFO's encoding: its length byte, then each
// message's icn.MessageBytes record.
func appendQueue(out []byte, q []icn.Message) []byte {
	out = append(out, byte(len(q)))
	for _, m := range q {
		out = append(out, m.Name, m.Addr, m.Src, m.Req, m.Dst, int8b(m.Acks))
	}
	return out
}

// checkLen panics unless raw is long enough to hold every controller
// entry and queue length. The package only ever sees bytes produced by
// encode (model-checker states feed back into Successors), so a short
// state is a programming bug, not an input condition — it panics with
// the codec message rather than returning an error through every
// caller, or faulting on an index.
func (s *System) checkLen(raw []byte) {
	if len(raw) < s.netOff+s.queues {
		panic(fmt.Sprintf("machine: state truncated: %d bytes, controllers and queue lengths need %d",
			len(raw), s.netOff+s.queues))
	}
}

// decode is the inverse of encode, into a fresh state.
func (s *System) decode(raw []byte) *state {
	st := s.newState()
	s.decodeInto(st, raw)
	return st
}

// decodeInto is decode into a reusable state of this system's shape
// (newState or a previous decodeInto); it allocates nothing once st's
// queues have grown to their working size. Corrupt input panics, see
// checkLen.
func (s *System) decodeInto(st *state, raw []byte) {
	s.checkLen(raw)
	i := 0
	for c := range st.cache {
		row := st.cache[c]
		for a := range row {
			row[a] = cacheEntry{raw[i], bInt8(raw[i+1]), raw[i+2], bInt8(raw[i+3])}
			i += cacheEntryBytes
		}
	}
	for a := range st.l2 {
		st.l2[a] = l2Entry{raw[i], raw[i+1], raw[i+2], bInt8(raw[i+3]), bInt8(raw[i+4])}
		i += l2EntryBytes
	}
	for a := range st.dir {
		st.dir[a] = dirEntry{raw[i], raw[i+1], raw[i+2], bInt8(raw[i+3])}
		i += dirEntryBytes
	}
	rest, err := icn.DecodeInto(s.net, st.net, raw[i:])
	if err != nil {
		panic(fmt.Sprintf("machine: corrupt network state: %v", err))
	}
	if len(rest) != 0 {
		panic(fmt.Sprintf("machine: %d trailing bytes after network state", len(rest)))
	}
}

// UniformVN assigns every message to VN 0.
func UniformVN(p *protocol.Protocol) (map[string]int, int) {
	vn := make(map[string]int, len(p.Messages))
	for _, m := range p.MessageNames() {
		vn[m] = 0
	}
	return vn, 1
}

// PerMessageVN assigns every message its own VN (used for Class 1 /
// Class 2 checking, §V).
func PerMessageVN(p *protocol.Protocol) (map[string]int, int) {
	vn := make(map[string]int, len(p.Messages))
	for i, m := range p.MessageNames() {
		vn[m] = i
	}
	return vn, len(vn)
}

// TypeVN assigns one VN per message type present in the protocol —
// the textbook assignment (requests / forwarded / responses share by
// type, data and control responses together when merge is set).
func TypeVN(p *protocol.Protocol, mergeResponses bool) (map[string]int, int) {
	classOf := func(t protocol.MsgType) int {
		if mergeResponses && t == protocol.CtrlResponse {
			return int(protocol.DataResponse)
		}
		return int(t)
	}
	used := map[int]int{}
	vn := make(map[string]int, len(p.Messages))
	for _, m := range p.MessageNames() {
		c := classOf(p.Messages[m].Type)
		if _, ok := used[c]; !ok {
			used[c] = len(used)
		}
		vn[m] = used[c]
	}
	return vn, len(used)
}

// sharersIn returns the bits of mask for endpoint ids within [lo,hi),
// without req's.
func sharersIn(mask uint8, req uint8, lo, hi int) uint8 {
	within := (uint8(1)<<uint(hi) - 1) &^ (uint8(1)<<uint(lo) - 1) // hi = 8 wraps to all ones
	return mask & within &^ (1 << req)
}

// countSharersIn counts the endpoint ids in mask within [lo,hi),
// excluding req.
func countSharersIn(mask uint8, req uint8, lo, hi int) int {
	return bits.OnesCount8(sharersIn(mask, req, lo, hi))
}
