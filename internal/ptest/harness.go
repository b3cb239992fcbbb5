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
	// Spec is the search every phase runs under its own VN mode or
	// assignment. Zero fields default to 2 caches, 1 directory, as many
	// addresses as directories, 50,000 states and 2 workers — small
	// enough that the per-case state spaces usually complete, which is
	// what makes the soundness oracle definitive.
	dist.Spec
	// Engines to cross-check (default seq, pipeline; in-process only).
	Engines []dist.Engine `json:"engines"`
	// Stores to cross-check (default exact only). With more than one,
	// every engine runs under every store and all answers must agree —
	// the exact-vs-compact differential applied to mutants.
	Stores []mc.Store `json:"stores"`
	// AnalysisHook, when non-nil, runs on the analysis result before
	// the VN assignment — the fault-injection port for the self-test.
	AnalysisHook func(*analysis.Result) `json:"-"`
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
		o.Engines = []dist.Engine{dist.EngineSeq, dist.EnginePipeline}
	}
	if len(o.Stores) == 0 {
		o.Stores = []mc.Store{mc.StoreExact}
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	return o
}

// Cell is one engine × store run of a cross-check.
type Cell struct {
	Engine   string `json:"engine"`
	Store    string `json:"store"`
	Outcome  string `json:"outcome"` // mc.Outcome.Tag
	States   int    `json:"states"`
	MaxDepth int    `json:"max_depth"`
	Rules    int    `json:"rules"`
}

// CrossCheck runs a resolved job on every engine × store cell, engine
// by engine, and returns every cell in that order, the first cell's
// result, and a description of the first cell that fails mc.Agree
// against it ("" when all agree). It is the one cross-check of the
// matrix tools: vnsweep records every cell, and RunCase's parity
// oracle fails on the first disagreement. err reports a run that
// failed; the cells before it are returned with it.
func CrossCheck(ctx context.Context, job dist.Job, engines []dist.Engine, stores []mc.Store) (cells []Cell, first mc.Result, disagree string, err error) {
	for _, eng := range engines {
		for _, st := range stores {
			job.Engine, job.Options.Store = eng, st
			r, err := dist.Run(ctx, job)
			if err != nil {
				return cells, first, disagree, fmt.Errorf("%v/%v failed to run: %w", eng, st, err)
			}
			c := Cell{
				Engine: eng.String(), Store: st.String(), Outcome: r.Outcome.Tag(),
				States: r.States, MaxDepth: r.MaxDepth, Rules: r.Rules,
			}
			if len(cells) == 0 {
				first = r
			} else if disagree == "" && !mc.Agree(r, first) {
				disagree = fmt.Sprintf("%s vs %s", cells[0], c)
			}
			cells = append(cells, c)
		}
	}
	return cells, first, disagree, nil
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s=(%s,%d states,depth %d)", c.Engine, c.Store, c.Outcome, c.States, c.MaxDepth)
}

// CaseResult is the harness's full answer for one protocol.
type CaseResult struct {
	Verdict Verdict
	// Static is the analysis' answer, under the AnalysisHook if any.
	Static vnassign.Verdict
	// Screen and Assigned are the two phases' cross-check cells.
	Screen, Assigned []Cell
	// Detail is a one-line human explanation of non-OK verdicts.
	Detail string
}

// RunCase pushes one protocol through the full stack and applies the
// three oracles. Phase 1 ("screen") model checks under per-message VNs
// — the paper's Class 1 test: any deadlock there is a protocol
// deadlock, not a VN artifact. Phase 2 ("assigned") model checks under
// the computed minimum assignment; a deadlock there, with a clean and
// complete screen, is an oracle (a)/(c) violation. Every phase is
// cross-checked on the configured engine × store matrix (oracle (b)).
func RunCase(p *protocol.Protocol, opts Options) *CaseResult {
	opts = opts.normalized()
	res := &CaseResult{}

	r := analysis.Analyze(p)
	if opts.AnalysisHook != nil {
		opts.AnalysisHook(r)
	}
	a := vnassign.AssignFromAnalysis(r)
	res.Static = a.Verdict()

	// Phase 1: screen under per-message VNs.
	spec := opts.Spec
	spec.VN = dist.VNPerMessage
	screen, verdict, detail := runPhase(p, spec, "screen", opts, &res.Screen)
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
	spec = opts.Spec
	spec.Assignment, spec.NumVNs = a.VN, a.NumVNs
	final, verdict, detail := runPhase(p, spec, "assigned", opts, &res.Assigned)
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

// runPhase cross-checks p under spec on the harness's matrix, stores
// the cells in *cells, and reports the first cell's result plus a
// parity verdict. A configuration the shared resolver refuses is
// reported as VerdictDynInvalid (the mutant asks for something the
// executable semantics rejects).
func runPhase(p *protocol.Protocol, spec dist.Spec, phase string, opts Options, cells *[]Cell) (mc.Result, Verdict, string) {
	job, err := spec.Resolve(p, nil)
	if err != nil {
		return mc.Result{}, VerdictDynInvalid, err.Error()
	}
	var first mc.Result
	var disagree string
	*cells, first, disagree, err = CrossCheck(context.TODO(), job, opts.Engines, opts.Stores)
	switch {
	case err != nil:
		return first, VerdictParityBug, phase + " phase: " + err.Error()
	case disagree != "":
		return first, VerdictParityBug, phase + " phase: " + disagree
	}
	return first, VerdictOK, ""
}

// Summary renders the run table for diagnostics.
func (c *CaseResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%s class=%s vns=%d", c.Verdict, c.Static.Class, c.Static.NumVNs)
	if c.Detail != "" {
		fmt.Fprintf(&b, " (%s)", c.Detail)
	}
	for i, cells := range [][]Cell{c.Screen, c.Assigned} {
		for _, r := range cells {
			fmt.Fprintf(&b, "\n  %-8s %-8s %-8s %-10s states=%-8d depth=%d",
				[...]string{"screen", "assigned"}[i], r.Engine, r.Store, r.Outcome, r.States, r.MaxDepth)
		}
	}
	return b.String()
}
