package ptest

import (
	"context"
	"fmt"
	"strings"

	"minvn/internal/analysis"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/vnassign"
)

// Verdict classifies one differential run.
type Verdict int

const (
	// VerdictOK: every phase clean — the static answer and every
	// engine's dynamic answer agree.
	VerdictOK Verdict = iota
	// VerdictDynInvalid: the mutant's table is incomplete at run time
	// (a reachable reception with no cell). Expected for mutants;
	// skipped, not an oracle violation.
	VerdictDynInvalid
	// VerdictClass1: the screen under per-message VNs deadlocked — a
	// protocol deadlock, outside Eq. 4's scope (the paper's condition
	// assumes protocol-deadlock-free inputs).
	VerdictClass1
	// VerdictClass2: the analysis proved waits cyclic; no per-name
	// assignment exists, so only engine parity is cross-checked.
	VerdictClass2
	// VerdictInconclusive: the assigned-VN check deadlocked but the
	// screen was state-bounded, so a deep protocol deadlock cannot be
	// ruled out. Recorded, never counted as an oracle violation.
	VerdictInconclusive
	// VerdictParityBug: oracle (b) — the engines disagreed.
	VerdictParityBug
	// VerdictSoundnessBug: oracle (a) — Eq. 4 held under the assigned
	// mapping, the screen completed deadlock-free, yet the checker
	// deadlocked under that mapping.
	VerdictSoundnessBug
	// VerdictAssignmentBug: oracle (c) — the checker deadlocked under
	// the k VNs the assignment claimed sufficient (and Eq. 4 itself
	// rejects the produced mapping: the refine loop mis-terminated).
	VerdictAssignmentBug
)

var verdictNames = [...]string{
	"ok", "dyn-invalid", "class1", "class2", "inconclusive",
	"parity-bug", "soundness-bug", "assignment-bug",
}

func (v Verdict) String() string {
	if v < 0 || int(v) >= len(verdictNames) {
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
	return verdictNames[v]
}

// IsViolation reports whether the verdict is one of the three oracle
// violations that fail a campaign.
func (v Verdict) IsViolation() bool {
	return v == VerdictParityBug || v == VerdictSoundnessBug || v == VerdictAssignmentBug
}

// Options configures the differential harness.
type Options struct {
	// System size; defaults 2 caches, 1 directory, 1 address — small
	// enough that the per-case state spaces usually complete, which is
	// what makes the soundness oracle definitive.
	Caches, Dirs, Addrs int
	// MaxStates bounds each model-checking run (default 50_000).
	MaxStates int
	// Engines to cross-check (default seq, pipeline; in-process only).
	Engines []mc.Engine
	// Stores to cross-check (default exact only). With more than one,
	// every engine runs under every store and all answers must agree —
	// the exact-vs-compact differential applied to mutants.
	Stores []mc.Store
	// Workers for the parallel engines (default 2).
	Workers int
	// AnalysisHook, when non-nil, runs on the analysis result before
	// the VN assignment — the fault-injection port for the self-test.
	AnalysisHook func(*analysis.Result)
}

func (o Options) normalized() Options {
	if o.Caches <= 0 {
		o.Caches = 2
	}
	if o.Dirs <= 0 {
		o.Dirs = 1
	}
	if o.Addrs <= 0 {
		o.Addrs = o.Dirs
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 50_000
	}
	if len(o.Engines) == 0 {
		o.Engines = []mc.Engine{mc.EngineSeq, mc.EnginePipeline}
	}
	if len(o.Stores) == 0 {
		o.Stores = []mc.Store{mc.StoreExact}
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	return o
}

// RunRecord is one engine's answer on one system instance.
type RunRecord struct {
	Phase    string `json:"phase"` // "screen" or "assigned"
	Engine   string `json:"engine"`
	Store    string `json:"store"`
	Outcome  string `json:"outcome"`
	States   int    `json:"states"`
	MaxDepth int    `json:"max_depth"`
}

// CaseResult is the harness's full answer for one protocol.
type CaseResult struct {
	Verdict Verdict
	Class   vnassign.Class
	NumVNs  int
	VN      map[string]int
	Runs    []RunRecord
	// Detail is a one-line human explanation of non-OK verdicts.
	Detail string
}

// RunCase pushes one protocol through the full stack and applies the
// three oracles. Phase 1 ("screen") model checks under per-message VNs
// — the paper's Class 1 test: any deadlock there is a protocol
// deadlock, not a VN artifact. Phase 2 ("assigned") model checks under
// the computed minimum assignment; a deadlock there, with a clean and
// complete screen, is an oracle (a)/(c) violation. Every phase runs all
// configured engines and compares their answers (oracle (b)).
func RunCase(p *protocol.Protocol, opts Options) *CaseResult {
	opts = opts.normalized()
	res := &CaseResult{}

	r := analysis.Analyze(p)
	if opts.AnalysisHook != nil {
		opts.AnalysisHook(r)
	}
	a := vnassign.AssignFromAnalysis(r)
	res.Class = a.Class
	res.NumVNs, res.VN = a.NumVNs, a.VN

	// Phase 1: screen under per-message VNs.
	screen, verdict, detail := runAllEngines(p, dist.Spec{VN: dist.VNPerMessage}, "screen", opts, res)
	if verdict != VerdictOK {
		res.Verdict, res.Detail = verdict, detail
		return res
	}
	switch screen.Outcome {
	case mc.Violation:
		res.Verdict = VerdictDynInvalid
		res.Detail = screen.Message
		return res
	case mc.Deadlock:
		res.Verdict = VerdictClass1
		res.Detail = "protocol deadlock under per-message VNs"
		return res
	}

	if a.Class != vnassign.Class3 {
		// No finite assignment exists (Class 2): parity was the only
		// checkable oracle, and it passed.
		res.Verdict = VerdictClass2
		return res
	}

	// Phase 2: the assigned mapping.
	final, verdict, detail := runAllEngines(p, dist.Spec{Assignment: a.VN, NumVNs: a.NumVNs}, "assigned", opts, res)
	if verdict != VerdictOK {
		res.Verdict, res.Detail = verdict, detail
		return res
	}
	switch final.Outcome {
	case mc.Violation:
		// The screen already ran the same table; a violation only here
		// would be an engine/semantics bug surfaced by the mapping.
		res.Verdict = VerdictParityBug
		res.Detail = "invariant violation under assigned VNs but not under per-message VNs: " + final.Message
	case mc.Deadlock:
		if screen.Outcome != mc.Complete {
			res.Verdict = VerdictInconclusive
			res.Detail = fmt.Sprintf("deadlock under %d assigned VN(s), but screen was bounded at %d states", a.NumVNs, screen.States)
			return res
		}
		if ok, _ := analysis.DeadlockFree(r, a.VN); ok {
			res.Verdict = VerdictSoundnessBug
			res.Detail = fmt.Sprintf("Eq. 4 accepts the %d-VN mapping but the checker deadlocks under it", a.NumVNs)
		} else {
			res.Verdict = VerdictAssignmentBug
			res.Detail = fmt.Sprintf("assignment claims %d VN(s) suffice but Eq. 4 rejects its own mapping and the checker deadlocks", a.NumVNs)
		}
	}
	return res
}

// runAllEngines checks one system instance — p under the VN assignment
// spec names, at the harness's system size and bound — with every
// configured engine, appends the records to res, and reports the first
// engine's result plus a parity verdict. A configuration the shared
// resolver refuses is reported as VerdictDynInvalid (the mutant asks
// for something the executable semantics rejects).
func runAllEngines(p *protocol.Protocol, spec dist.Spec,
	phase string, opts Options, res *CaseResult) (mc.Result, Verdict, string) {

	spec.Caches, spec.Dirs, spec.Addrs = opts.Caches, opts.Dirs, opts.Addrs
	spec.MaxStates, spec.Workers = opts.MaxStates, opts.Workers
	job, err := spec.Resolve(p, nil)
	if err != nil {
		return mc.Result{}, VerdictDynInvalid, err.Error()
	}
	var first mc.Result
	var firstTag string
	for _, st := range opts.Stores {
		job.Options.Store = st
		for _, eng := range opts.Engines {
			job.Engine = eng
			r, err := dist.Run(context.Background(), job)
			if err != nil {
				return first, VerdictParityBug, fmt.Sprintf("%s phase: %v/%v failed to run: %v", phase, eng, st, err)
			}
			res.Runs = append(res.Runs, RunRecord{
				Phase: phase, Engine: eng.String(), Store: st.String(),
				Outcome: r.Outcome.Tag(),
				States:  r.States, MaxDepth: r.MaxDepth,
			})
			tag := eng.String() + "/" + st.String()
			if firstTag == "" {
				first, firstTag = r, tag
				continue
			}
			if !mc.Agree(r, first) {
				detail := fmt.Sprintf("%s phase: %s=(%s,%d states,depth %d) vs %s=(%s,%d states,depth %d)",
					phase, firstTag, first.Outcome.Tag(), first.States, first.MaxDepth,
					tag, r.Outcome.Tag(), r.States, r.MaxDepth)
				return first, VerdictParityBug, detail
			}
		}
	}
	return first, VerdictOK, ""
}

// Summary renders the run table for diagnostics.
func (c *CaseResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%s class=%v vns=%d", c.Verdict, c.Class, c.NumVNs)
	if c.Detail != "" {
		fmt.Fprintf(&b, " (%s)", c.Detail)
	}
	for _, r := range c.Runs {
		fmt.Fprintf(&b, "\n  %-8s %-8s %-8s %-10s states=%-8d depth=%d", r.Phase, r.Engine, r.Store, r.Outcome, r.States, r.MaxDepth)
	}
	return b.String()
}
