// Package machine gives a protocol specification executable semantics:
// a system of N cache controllers and D directories over A addresses
// (address a is homed at directory a mod D), communicating through the
// paper's ICN model (package icn) under a concrete message→VN
// assignment. It exposes the guarded-rule transition system the model
// checker explores (paper §VII-A) and a deterministic scenario driver
// for replaying specific executions such as the Fig. 3 deadlock.
package machine

import (
	"fmt"
	"sort"
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

	msgNames []string
	msgIdx   map[string]uint8
	msgs     []*protocol.Message
	vnOf     []int

	cacheStates   []string
	cacheStateIdx map[string]uint8
	dirStates     []string
	dirStateIdx   map[string]uint8
	l2States      []string
	l2StateIdx    map[string]uint8

	endpoints int
	net       icn.Config
	perms     [][]int // cache permutations for symmetry reduction
	// canonPool recycles the canonicalizer's scratch states and
	// buffers across (possibly concurrent) Canonicalize calls.
	canonPool sync.Pool
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
		cfg:           cfg,
		p:             cfg.Protocol,
		msgIdx:        make(map[string]uint8),
		cacheStateIdx: make(map[string]uint8),
		dirStateIdx:   make(map[string]uint8),
		endpoints:     endpoints,
	}
	for _, name := range s.p.MessageNames() {
		s.msgIdx[name] = uint8(len(s.msgNames))
		s.msgNames = append(s.msgNames, name)
		s.msgs = append(s.msgs, s.p.Messages[name])
		vn, ok := cfg.VN[name]
		if !ok {
			return nil, fmt.Errorf("machine: message %q has no VN assignment", name)
		}
		if vn < 0 || vn >= cfg.NumVNs {
			return nil, fmt.Errorf("machine: message %q assigned VN %d outside [0,%d)", name, vn, cfg.NumVNs)
		}
		s.vnOf = append(s.vnOf, vn)
	}
	for _, st := range s.p.Cache.StateNames() {
		s.cacheStateIdx[st] = uint8(len(s.cacheStates))
		s.cacheStates = append(s.cacheStates, st)
	}
	for _, st := range s.p.Dir.StateNames() {
		s.dirStateIdx[st] = uint8(len(s.dirStates))
		s.dirStates = append(s.dirStates, st)
	}
	if s.p.L2 != nil {
		s.l2StateIdx = make(map[string]uint8)
		for _, st := range s.p.L2.StateNames() {
			s.l2StateIdx[st] = uint8(len(s.l2States))
			s.l2States = append(s.l2States, st)
		}
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

	if !cfg.NoSymmetry {
		s.perms = permutations(cfg.Caches)
	}
	s.canonPool.New = func() any { return &canonScratch{} }
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
	ci := s.cacheStateIdx[s.p.Cache.Initial]
	di := s.dirStateIdx[s.p.Dir.Initial]
	for c := range st.cache {
		st.cache[c] = make([]cacheEntry, s.cfg.Addrs)
		for a := range st.cache[c] {
			st.cache[c][a].state = ci
		}
	}
	for a := range st.dir {
		st.dir[a].state = di
	}
	if s.cfg.L2s > 0 {
		st.l2 = make([]l2Entry, s.cfg.Addrs)
		li := s.l2StateIdx[s.p.L2.Initial]
		for a := range st.l2 {
			st.l2[a].state = li
		}
	}
	return st
}

func (st *state) clone() *state {
	c := &state{
		cache: make([][]cacheEntry, len(st.cache)),
		dir:   append([]dirEntry(nil), st.dir...),
		net:   st.net.Clone(),
	}
	if st.l2 != nil {
		c.l2 = append([]l2Entry(nil), st.l2...)
	}
	for i := range st.cache {
		c.cache[i] = append([]cacheEntry(nil), st.cache[i]...)
	}
	return c
}

func int8b(v int8) byte { return byte(uint8(v) + 128) }
func bInt8(b byte) int8 { return int8(b - 128) }

// encode produces the deterministic byte form used for deduplication
// and trace storage.
func (s *System) encode(st *state) []byte {
	size := len(st.cache)*s.cfg.Addrs*4 + s.cfg.Addrs*4 + len(st.l2)*5
	return s.appendEncode(make([]byte, 0, size+64), st)
}

// appendEncode appends st's encoding to out, reusing out's capacity —
// the allocation-free form the canonicalizer and the parallel engines
// lean on when scoring many candidate encodings per successor.
func (s *System) appendEncode(out []byte, st *state) []byte {
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
	return st.net.Encode(out)
}

// decode is the inverse of encode. It only ever sees bytes produced by
// encode (model-checker states feed back into Successors), so a decode
// failure is a programming bug, not an input condition — it panics with
// the codec error rather than returning one through every caller.
func (s *System) decode(raw []byte) *state {
	st := &state{
		cache: make([][]cacheEntry, s.cfg.Caches),
		dir:   make([]dirEntry, s.cfg.Addrs),
	}
	i := 0
	minSize := (s.cfg.Caches + 1) * s.cfg.Addrs * 4
	if s.cfg.L2s > 0 {
		minSize += s.cfg.Addrs * 5
	}
	if len(raw) < minSize {
		panic(fmt.Sprintf("machine: state truncated: %d bytes for %d controllers",
			len(raw), s.cfg.Caches+1))
	}
	for c := 0; c < s.cfg.Caches; c++ {
		st.cache[c] = make([]cacheEntry, s.cfg.Addrs)
		for a := 0; a < s.cfg.Addrs; a++ {
			st.cache[c][a] = cacheEntry{raw[i], bInt8(raw[i+1]), raw[i+2], bInt8(raw[i+3])}
			i += 4
		}
	}
	if s.cfg.L2s > 0 {
		st.l2 = make([]l2Entry, s.cfg.Addrs)
		for a := 0; a < s.cfg.Addrs; a++ {
			st.l2[a] = l2Entry{raw[i], raw[i+1], raw[i+2], bInt8(raw[i+3]), bInt8(raw[i+4])}
			i += 5
		}
	}
	for a := 0; a < s.cfg.Addrs; a++ {
		st.dir[a] = dirEntry{raw[i], raw[i+1], raw[i+2], bInt8(raw[i+3])}
		i += 4
	}
	net, rest, err := icn.Decode(s.net, raw[i:])
	if err != nil {
		panic(fmt.Sprintf("machine: corrupt network state: %v", err))
	}
	if len(rest) != 0 {
		panic(fmt.Sprintf("machine: %d trailing bytes after network state", len(rest)))
	}
	st.net = net
	return st
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// permuteEndpoint maps endpoint id e under cache permutation perm
// (L2 homes and directories are fixed points).
func permuteEndpoint(perm []int, e uint8) uint8 {
	if int(e) < len(perm) {
		return uint8(perm[e])
	}
	return e
}

// permuteMask relabels a sharer bitmask of endpoint ids under perm.
// Bits at or beyond len(perm) (L2 homes, directories) stay in place.
func permuteMask(perm []int, mask uint8) uint8 {
	var out uint8
	for b := 0; b < 8; b++ {
		if mask&(1<<uint(b)) != 0 {
			out |= 1 << uint(permuteEndpoint(perm, uint8(b)))
		}
	}
	return out
}

// Canonicalize lives in canon.go (pooled, allocation-free scratch);
// applyPerm below is its allocating reference implementation, kept for
// the equivalence tests that pin the two against each other.

func (s *System) applyPerm(st *state, perm []int) *state {
	out := st.clone()
	for c := range st.cache {
		out.cache[perm[c]] = append([]cacheEntry(nil), st.cache[c]...)
	}
	for c := range out.cache {
		for a := range out.cache[c] {
			e := &out.cache[c][a]
			if e.saved != 0 {
				e.saved = permuteEndpoint(perm, e.saved-1) + 1
			}
		}
	}
	for a := range out.l2 {
		e := &out.l2[a]
		if e.owner != 0 {
			e.owner = permuteEndpoint(perm, e.owner-1) + 1
		}
		e.sharers = permuteMask(perm, e.sharers)
	}
	for a := range out.dir {
		e := &out.dir[a]
		if e.owner != 0 {
			e.owner = permuteEndpoint(perm, e.owner-1) + 1
		}
		e.sharers = permuteMask(perm, e.sharers)
	}
	permMsg := func(m icn.Message) icn.Message {
		m.Src = permuteEndpoint(perm, m.Src)
		m.Req = permuteEndpoint(perm, m.Req)
		m.Dst = permuteEndpoint(perm, m.Dst)
		return m
	}
	for vn := range out.net.Global {
		for b := 0; b < 2; b++ {
			q := out.net.Global[vn][b]
			for i := range q {
				q[i] = permMsg(q[i])
			}
		}
	}
	// Local FIFOs move with their endpoints: cache c's queues become
	// cache perm[c]'s queues.
	local := make([][][]icn.Message, len(out.net.Local))
	copy(local, out.net.Local)
	for c := 0; c < s.cfg.Caches; c++ {
		local[perm[c]] = out.net.Local[c]
	}
	out.net.Local = local
	for e := range out.net.Local {
		for vn := range out.net.Local[e] {
			q := out.net.Local[e][vn]
			for i := range q {
				q[i] = permMsg(q[i])
			}
		}
	}
	return out
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

// sharersIn lists the endpoint ids in mask within [lo,hi) excluding
// req, ascending.
func sharersIn(mask uint8, req uint8, lo, hi int) []int {
	var out []int
	for c := lo; c < hi; c++ {
		if mask&(1<<uint(c)) != 0 && uint8(c) != req {
			out = append(out, c)
		}
	}
	return out
}

func countSharersIn(mask uint8, req uint8, lo, hi int) int {
	n := 0
	for c := lo; c < hi; c++ {
		if mask&(1<<uint(c)) != 0 && uint8(c) != req {
			n++
		}
	}
	return n
}

// sharersExcept lists the cache ids in mask excluding req, ascending.
func sharersExcept(mask uint8, req uint8, caches int) []int {
	return sharersIn(mask, req, 0, caches)
}

func countSharersExcept(mask uint8, req uint8, caches int) int {
	return countSharersIn(mask, req, 0, caches)
}

// sortedKeys is a tiny helper for deterministic map iteration.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
