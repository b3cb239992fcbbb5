// Package dist is the distributed explicit-state search engine: a
// coordinator drives a fleet of workers, each of which owns a
// deterministic hash range of state-fingerprint space (mc.OwnerOf),
// expands the states it owns, and ships non-owned successors to their
// owners as batched frontier messages in a length-prefixed wire codec.
// It is the process-level promotion of the thread-level partition in
// mc's sharded visited set — the step the ROADMAP names from
// single-node search to fleet-scale runs.
//
// A worker is one API (coord.go's member and peer) over two transports:
// an in-process fleet is Workers called directly, through no socket,
// still encoding and decoding every batch; a remote one is worker
// daemons (cmd/vnworkerd) over HTTP, all of which is http.go.
//
// # Search structure
//
// The search is a level-synchronized distributed BFS. For each depth d
// the coordinator tells every worker to expand its depth-d frontier
// (workers forward each non-owned successor to its owner as they go),
// then to settle: deduplicate the accumulated depth-d+1 candidates
// against the worker's visited store and report cumulative statistics.
// Termination detection is distributed quiescence with in-flight
// accounting — every frontier batch is acknowledged before a worker
// reports its expansion done, expand responses carry per-peer sent
// counts, and the settle request carries the entry count each worker
// must have received, so a lost or duplicated delivery is detected at
// the level boundary rather than silently corrupting the search. The
// run completes when every worker's next frontier is empty.
//
// # Parity
//
// For runs that end Complete, or bounded only by MaxDepth, and with
// symmetry reduction off (machine.Config.NoSymmetry), every pinned
// quantity — outcome, state count, max depth, expansion count, rule
// firings, depth histogram, dedup counters, stripe histograms, and
// per-VN occupancy aggregates — is independent of the order states are
// stored in, because each distinct state is probed and stored at
// exactly one owner and each stored state below the bound is expanded
// exactly once. Under symmetry reduction that is not a general
// property: the cache-permutation quotient keeps whichever
// representative of an orbit is expanded first, so the stored set
// depends on exploration order, hence on the fleet size (CXL_cache at
// 3c/1d/1a: 44,662 / 44,719 / 44,763 states on 1 / 2 / 3 workers,
// 265,171 on all of them without symmetry; EXPERIMENTS.md). The parity
// suite observes bit-identity with symmetry on at 2 caches and pins the
// real guarantee with a 3-cache NoSymmetry row. MaxStates is a second
// exception: it applies at level granularity, so state-bounded
// distributed runs are reproducible but not comparable to the
// sequential engine's mid-level cut. Both are why Job.Key keys a
// distributed job on engine=dist and its fleet size.
package dist

import (
	"fmt"
	"runtime"
	"strings"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/protocol"
	"minvn/internal/vnassign"
)

// VN assignment modes a Spec can name.
const (
	VNMinimal    = "minimal" // the computed minimum assignment (Class 3 only)
	VNPerMessage = "permsg"  // one VN per message: the Class 1/2 testing mode
	VNUniform    = "uniform" // every message on VN 0
	VNType       = "type"    // one VN per message type (the textbook rule)
	vnGiven      = "given"   // Spec.Assignment; not nameable from outside
)

// Spec is the one plain-data description of a verification. Every
// entry point — the CLIs' flags (cliflag.Search), vnserved's request
// options (serve.VerifyOptions is this type), the matrix tools, and
// minvn.Verify — fills one in, and Resolve is the only code that turns
// it into a machine.Config, mc.Options and engine selection. The zero
// value is the paper's experiment: 3 caches, 2 directories, 2 addresses,
// the minimal assignment, unbounded BFS on the exact store.
//
// The JSON form is vnserved's "options" object; fields tagged "-" are
// reachable only from code (CLI flags, the library), never a request.
type Spec struct {
	VN        string `json:"vn,omitempty"` // minimal | permsg | uniform | type
	Caches    int    `json:"caches,omitempty"`
	Dirs      int    `json:"dirs,omitempty"`
	Addrs     int    `json:"addrs,omitempty"`
	Strategy  string `json:"strategy,omitempty"` // bfs | dfs
	MaxStates int    `json:"max_states,omitempty"`
	MaxDepth  int    `json:"max_depth,omitempty"`
	GlobalCap int    `json:"global_cap,omitempty"`
	LocalCap  int    `json:"local_cap,omitempty"`
	// P2P, when non-nil, selects point-to-point ordered mode with the
	// given mapping variant (0-3).
	P2P           *int `json:"p2p,omitempty"`
	NoReplacement bool `json:"no_replacement,omitempty"`
	NoSymmetry    bool `json:"no_symmetry,omitempty"`
	Invariants    bool `json:"invariants,omitempty"`
	// Which of these three can change a result, and why, is Key's doc.
	Engine  string `json:"engine,omitempty"` // auto | seq | pipeline | dist
	Store   string `json:"store,omitempty"`  // exact | compact
	Workers int    `json:"workers,omitempty"`

	// L2s is the L2 home count of a two-level protocol (0 = 1 for a
	// two-level protocol, none otherwise).
	L2s int `json:"-"`
	// SeedOwned starts the search from the Fig. 3 ownership prefix
	// (machine.OwnedSeed) instead of the reset state.
	SeedOwned bool `json:"-"`
	// Traces keeps parent links so a terminal outcome carries its
	// counterexample trace.
	Traces bool `json:"-"`
	// Peers are the worker daemons of a distributed run (empty runs
	// Workers in-process workers).
	Peers []string `json:"-"`
	// Assignment, when non-nil, is an explicit message→VN map over
	// NumVNs networks and replaces the VN mode.
	Assignment map[string]int `json:"-"`
	NumVNs     int            `json:"-"`
}

// maxWorkers is the most workers a Spec may ask for: each is a
// goroutine, a lane and channel slots in the pipelined engine, and a
// whole Worker in an in-process dist fleet.
const maxWorkers = 1024

// RequestError is a fault in what was asked — an unknown mode, an
// out-of-range value, a combination an engine cannot honor, a protocol
// with no assignment of the requested kind — as opposed to a failure
// while answering. The CLIs map it to exit status 2, vnserved to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

// RequestErrorf builds a *RequestError.
func RequestErrorf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// normalize applies the defaults and validates the values, so that two
// specs asking the same question are equal afterwards; it also returns
// the parsed engine and store. The VN mode is validated where it is
// used, in Resolve.
func (s Spec) normalize(p *protocol.Protocol) (n Spec, engine mc.Engine, store mc.Store, err error) {
	n = s
	if n.Assignment != nil {
		n.VN = vnGiven
	} else if n.VN == "" {
		n.VN = VNMinimal
	}
	if n.Caches == 0 {
		n.Caches = 3
	}
	if n.Dirs == 0 {
		n.Dirs = 2
	}
	if n.Addrs == 0 {
		n.Addrs = 2
	}
	if n.L2s == 0 && p.TwoLevel() {
		n.L2s = 1
	}
	switch n.Strategy = strings.ToLower(n.Strategy); n.Strategy {
	case "":
		n.Strategy = "bfs"
	case "bfs", "dfs":
	default:
		return n, 0, 0, RequestErrorf("unknown strategy %q (want bfs or dfs)", s.Strategy)
	}
	n.MaxStates, n.MaxDepth = max(n.MaxStates, 0), max(n.MaxDepth, 0)
	if n.Workers > maxWorkers {
		return n, 0, 0, RequestErrorf("workers %d exceeds the maximum of %d", n.Workers, maxWorkers)
	}
	if n.P2P != nil && (*n.P2P < 0 || *n.P2P > 3) {
		return n, 0, 0, RequestErrorf("p2p variant %d out of range 0-3", *n.P2P)
	}
	if engine, err = mc.ParseEngine(n.Engine); err != nil {
		return n, 0, 0, RequestErrorf("%v", err)
	}
	if store, err = mc.ParseStore(n.Store); err != nil {
		return n, 0, 0, RequestErrorf("%v", err)
	}
	n.Engine, n.Store = engine.String(), store.String()
	return n, engine, store, nil
}

// Resolve turns the spec into the Job that Run takes for protocol p:
// defaults applied, the VN mode turned into an assignment (the minimal
// mode's analysis stages are timed on tl, which may be nil), the system
// built once — so a configuration the machine rejects is refused here,
// not when the job runs — and the search seeded when asked. Every error
// is a *RequestError. Telemetry (Options.Progress/Trace, Occupancy) is
// the caller's to add to the returned job.
func (s Spec) Resolve(p *protocol.Protocol, tl *obs.Timeline) (Job, error) {
	n, engine, store, err := s.normalize(p)
	if err != nil {
		return Job{}, err
	}
	cfg := machine.Config{
		Protocol: p, Caches: n.Caches, Dirs: n.Dirs, Addrs: n.Addrs, L2s: n.L2s,
		VN: n.Assignment, NumVNs: n.NumVNs,
		GlobalCap: n.GlobalCap, LocalCap: n.LocalCap,
		NoSymmetry: n.NoSymmetry, Invariants: n.Invariants,
	}
	switch n.VN {
	case VNMinimal:
		a := vnassign.AssignObserved(p, tl)
		if a.Class != vnassign.Class3 {
			return Job{}, RequestErrorf("%s is %s — no finite per-name assignment exists; use vn=permsg to exhibit the deadlock", p.Name, a.Class)
		}
		cfg.VN, cfg.NumVNs = a.VN, a.NumVNs
	case VNPerMessage:
		cfg.VN, cfg.NumVNs = machine.PerMessageVN(p)
	case VNUniform:
		cfg.VN, cfg.NumVNs = machine.UniformVN(p)
	case VNType:
		cfg.VN, cfg.NumVNs = machine.TypeVN(p, true)
	default:
		if n.Assignment == nil {
			return Job{}, RequestErrorf("unknown vn mode %q (want minimal, permsg, uniform, or type)", n.VN)
		}
	}
	if n.P2P != nil {
		cfg.PointToPoint, cfg.P2PVariant = true, *n.P2P
	}
	if n.NoReplacement {
		cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
	}
	sys, err := machine.New(cfg)
	if err != nil {
		return Job{}, RequestErrorf("%v", err)
	}
	job := Job{
		Spec: n, Config: cfg, System: sys,
		Options: mc.Options{MaxStates: n.MaxStates, MaxDepth: n.MaxDepth, DisableTraces: !n.Traces, Store: store},
		Engine:  engine, Workers: n.Workers, Peers: n.Peers,
	}
	if n.Strategy == "dfs" {
		job.Options.Strategy = mc.DFS
	}
	if n.SeedOwned {
		seed, err := machine.OwnedSeed(sys)
		if err != nil {
			return Job{}, RequestErrorf("seeding: %v", err)
		}
		job.Seeds = [][]byte{seed}
	}
	if job.Engine == mc.EngineDist {
		if err := job.distRefusal(); err != nil {
			return Job{}, err
		}
	}
	return job, nil
}

// Params is the one rendering of a resolved job's question, under the
// key names run records have always used.
func (j Job) Params() map[string]any {
	return map[string]any{
		"protocol": j.Config.Protocol.Name,
		"vn_mode":  j.Spec.VN, "num_vns": j.Config.NumVNs, "vn": j.Config.VN,
		"caches": j.Config.Caches, "dirs": j.Config.Dirs, "addrs": j.Config.Addrs,
		"global_cap": j.Config.GlobalCap, "local_cap": j.Config.LocalCap,
		"point_to_point": j.Config.PointToPoint,
		"symmetry":       !j.Config.NoSymmetry,
		"invariants":     j.Config.Invariants,
		"strategy":       j.Options.Strategy.String(),
		"store":          j.Options.Store.String(),
		"max_states":     j.Options.MaxStates, "max_depth": j.Options.MaxDepth,
		"engine": j.Engine.String(), "workers": j.Workers,
	}
}

// Key renders the result-affecting part of a resolved job's spec: two
// jobs over the same protocol with equal keys produce bit-identical
// results, so one may be served from the other's cache entry. Engine
// and Workers are absent for the in-process engines: seq and
// pipeline run one search core, pinned bit-identical by the parity
// suite. Store is present: a hash-compacted visited set can (with
// ~n²/2⁶⁵ probability) conflate distinct states and change the outcome
// class. A distributed job is keyed on engine=dist and its fleet size:
// dist cuts MaxStates at a level boundary rather than mid-level, and
// under symmetry reduction its stored-state set depends on how many
// workers partition the frontier (package comment, "Parity").
// Telemetry and Traces never change a result.
func (j Job) Key() string {
	n := j.Spec
	p2p := -1
	if n.P2P != nil {
		p2p = *n.P2P
	}
	engine := ""
	if j.Engine == mc.EngineDist {
		engine = fmt.Sprintf("dist/%d", j.fleetSize())
	}
	return fmt.Sprintf("vn=%s given=%v/%d caches=%d dirs=%d addrs=%d l2s=%d strategy=%s "+
		"max_states=%d max_depth=%d gcap=%d lcap=%d p2p=%d norepl=%t nosym=%t invariants=%t "+
		"seed_owned=%t store=%s engine=%s",
		n.VN, n.Assignment, n.NumVNs, n.Caches, n.Dirs, n.Addrs, n.L2s, n.Strategy,
		n.MaxStates, n.MaxDepth, n.GlobalCap, n.LocalCap, p2p, n.NoReplacement, n.NoSymmetry, n.Invariants,
		n.SeedOwned, j.Options.Store, engine)
}

// fleetSize is the number of workers a distributed run of j uses.
func (j Job) fleetSize() int {
	switch {
	case len(j.Peers) > 0:
		return len(j.Peers)
	case j.Workers >= 1:
		return j.Workers
	}
	return runtime.GOMAXPROCS(0)
}
