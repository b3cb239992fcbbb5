// Package minvn determines the minimum number of virtual networks
// (VNs) a directory cache coherence protocol needs to provably avoid
// deadlock, and generates the mapping from message names to VNs — a Go
// implementation of:
//
//	Li, Goens, Oswald, Nagarajan, Sorin.
//	"Determining the Minimum Number of Virtual Networks for Different
//	Coherence Protocols." ISCA 2024.
//
// The package is a facade over the implementation packages:
//
//   - internal/protocol: the tabular protocol formalism,
//   - internal/protocols: built-in MSI/MESI/MOSI/MOESI/CHI variants,
//   - internal/analysis: the causes/stalls/waits relations (paper §IV),
//   - internal/vnassign: the minimum-VN algorithm (paper §VI),
//   - internal/machine + internal/icn + internal/mc: the executable
//     semantics, the paper's ICN model, and the explicit-state model
//     checker used for verification (paper §VII),
//   - internal/dist: the verification spec every entry point shares and
//     the one place a search is dispatched to an engine.
//
// Quick use:
//
//	p, _ := minvn.LoadProtocol("CHI")
//	res := minvn.Minimize(p)
//	fmt.Println(res.NumVNs)        // 2 — not the 4 the spec mandates
//	fmt.Println(res.VN["SnpShared"])
package minvn

import (
	"context"
	"fmt"

	"minvn/internal/analysis"
	"minvn/internal/dist"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// Re-exported classification values (paper §I).
const (
	Class1 = vnassign.Class1 // protocol deadlock: unfixable by VNs
	Class2 = vnassign.Class2 // inevitable VN deadlock: cycle in waits
	Class3 = vnassign.Class3 // practical: a constant number of VNs
)

// Result is the outcome of Minimize.
type Result struct {
	// Protocol is the analyzed specification.
	Protocol *protocol.Protocol
	// Class is the paper's classification. Class1 is never produced
	// statically; use Verify with per-message VNs and one address to
	// detect protocol deadlocks.
	Class vnassign.Class
	// NumVNs and VN are the minimum VN count and the message→VN
	// mapping (Class 3 only).
	NumVNs int
	VN     map[string]int
	// WaitsCycle witnesses Class 2.
	WaitsCycle []string
	// Textbook is what the conventional rule would have said.
	Textbook int
	// Assignment exposes the full diagnostic record.
	Assignment *vnassign.Assignment
}

// ProtocolNames lists the built-in protocols.
func ProtocolNames() []string { return protocols.Names() }

// Constraint demands two messages land on different VNs (paper §VI-C:
// a designer "may choose to use more" — e.g. separating data from
// control responses for flit sizing).
type Constraint = vnassign.Constraint

// SeparateDataFromControl builds the data/control separation
// constraint set for a protocol.
func SeparateDataFromControl(p *protocol.Protocol) []Constraint {
	return vnassign.SeparateDataFromControl(p)
}

// MinimizeConstrained is Minimize with designer constraints folded
// into the conflict graph; the result is minimal subject to them.
func MinimizeConstrained(p *protocol.Protocol, cs []Constraint) (*Result, error) {
	r := analysis.Analyze(p)
	a, err := vnassign.AssignConstrained(r, cs)
	if err != nil {
		return nil, err
	}
	return result(a), nil
}

// EnumerateMinimal lists up to limit distinct minimal assignments
// (nil for Class 2 protocols).
func EnumerateMinimal(p *protocol.Protocol, limit int) []*vnassign.Assignment {
	return vnassign.EnumerateAssignments(analysis.Analyze(p), limit)
}

// LoadProtocol returns a built-in protocol by name ("MSI", "CHI",
// "MESI_nonblocking_cache", …).
func LoadProtocol(name string) (*protocol.Protocol, error) {
	return protocols.Load(name)
}

// DecodeProtocol parses a JSON protocol definition.
func DecodeProtocol(data []byte) (*protocol.Protocol, error) {
	return protocol.Decode(data)
}

// Minimize runs the paper's algorithm on a protocol.
func Minimize(p *protocol.Protocol) *Result {
	return result(vnassign.AssignFromAnalysis(analysis.Analyze(p)))
}

// result is the facade's view of an assignment.
func result(a *vnassign.Assignment) *Result {
	return &Result{
		Protocol:   a.Protocol,
		Class:      a.Class,
		NumVNs:     a.NumVNs,
		VN:         a.VN,
		WaitsCycle: a.WaitsCycle,
		Textbook:   vnassign.Textbook(a.Analysis).NumVNs,
		Assignment: a,
	}
}

// VerifyConfig shapes a model-checking run; zero values select the
// paper's system model (3 caches, 2 directories, 2 addresses) with a
// 200k-state budget.
type VerifyConfig struct {
	Caches, Dirs, Addrs int
	// VN maps messages to VNs; nil uses the minimal assignment (and
	// fails for Class 2 protocols, which have none).
	VN     map[string]int
	NumVNs int
	// PerMessageVNs gives every message its own VN — the Class 1 /
	// Class 2 testing mode of paper §V.
	PerMessageVNs bool
	// MaxStates bounds the search (0 = paper default of 200k).
	MaxStates int
	// DFS hunts deadlocks depth-first instead of breadth-first.
	DFS bool
	// Workers > 1 runs the BFS on the pipelined parallel engine with
	// that many workers; results are identical to the sequential run.
	Workers int
	// Invariants enables SWMR/bookkeeping checking on every state.
	Invariants bool
	// Ordered selects the point-to-point-ordered ICN mode with the
	// static mapping PointToPointVariant (0–3, see icn.UniformP2P);
	// the default is the unordered mode, which over-approximates all
	// orderings.
	Ordered             bool
	PointToPointVariant int
}

// VerifyResult is the repository's one description of a verification
// run (dist.Verdict): the protocol, the normalized options, the VN
// mapping searched, and the outcome tag ("complete", "bounded",
// "deadlock" or "violation"), states, rules, depth and, for a
// violation, its message.
type VerifyResult = dist.Verdict

// Verify model checks a protocol under a VN assignment on the paper's
// ICN model. It describes the run as the repository's one verification
// spec (dist.Spec), so it means exactly what the equivalent vnverify
// command line or vnserved request means.
func Verify(p *protocol.Protocol, cfg VerifyConfig) (VerifyResult, error) {
	spec := dist.Spec{
		Caches: cfg.Caches, Dirs: cfg.Dirs, Addrs: cfg.Addrs,
		Assignment: cfg.VN, NumVNs: cfg.NumVNs,
		MaxStates:  cfg.MaxStates,
		Workers:    max(cfg.Workers, 1),
		Invariants: cfg.Invariants,
	}
	if spec.MaxStates == 0 {
		spec.MaxStates = 200_000
	}
	if cfg.PerMessageVNs {
		spec.VN, spec.Assignment = dist.VNPerMessage, nil
	}
	if cfg.DFS {
		spec.Strategy = "dfs"
	}
	if cfg.Ordered {
		spec.P2P = &cfg.PointToPointVariant
	}
	job, err := spec.Resolve(p, nil)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("minvn: %w", err)
	}
	res, err := dist.Run(context.Background(), job)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("minvn: %w", err)
	}
	return job.Verdict(res), nil
}
