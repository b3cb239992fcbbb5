// Package mc is an explicit-state model checker in the style of Murphi
// (paper §VII): it enumerates the reachable states of a guarded-rule
// transition system, detecting deadlocks (non-quiescent states with no
// enabled rule) and invariant violations, with breadth-first or
// depth-first exploration, bounded model checking (state and depth
// limits), optional symmetry reduction via a canonicalization hook,
// and counterexample trace reconstruction.
//
// Like Murphi, the search has one loop (check): take the next stored
// state, expand it, merge its successors. Check and CheckCtx run it on
// one goroutine; CheckPipelined runs the same loop with a pool of
// workers expanding batches of states ahead of it, in the order the loop
// takes them (engine_pipeline.go), so both produce the same result.
// Which engine runs a search is dist.Run's choice, not this package's.
//
// Nor does the search ever materialize a duplicate. It runs on the
// model's streaming form (Expander; a model that has only Successors is
// adapted by asExpander): each successor is visited in the model's work
// buffer, canonicalized and fingerprinted in a reusable arena (the
// collector, search.go), probed, and copied out — once, to the tail of
// the state log (statelog.go) — only if it is new. Every engine and the
// seed go through that one path. The sequential BFS, and a Partition,
// first look each successor up by its raw bytes among states stored
// recently and still in the log (rawCache, statelog.go); one byte-equal
// to such a state is settled as its duplicate without being
// canonicalized, fingerprinted or probed.
package mc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"minvn/internal/obs/trace"
)

// Model is an explicit-state transition system over opaque encoded
// states. Implementations must produce deterministic encodings: two
// equal states must encode to equal byte strings.
type Model interface {
	// Initial returns the initial states.
	Initial() [][]byte
	// Successors returns all successor states of state. A non-nil
	// error reports an invariant violation in (or when leaving) this
	// state, aborting the search.
	Successors(state []byte) ([][]byte, error)
	// Quiescent reports whether a state with no successors is an
	// acceptable terminal state rather than a deadlock.
	Quiescent(state []byte) bool
	// Describe renders a state for counterexample traces.
	Describe(state []byte) string
}

// Canonicalizer is an optional Model extension: states are deduplicated
// by their canonical form (symmetry reduction). Canonicalize must be
// idempotent and preserve all properties the search checks.
type Canonicalizer interface {
	Canonicalize(state []byte) []byte
}

// NamedModel is an optional Model extension providing rule-name
// attribution: SuccessorsNamed behaves exactly like Successors but
// also returns, for each successor, the name of the guarded rule that
// produced it (rules[i] names the rule behind succs[i]). When a model
// implements it, the checker accumulates per-rule firing counts into
// the run's telemetry (Snapshot.RuleFirings) — the CMurphi-style
// per-rule fire report the paper's experiments rely on.
type NamedModel interface {
	SuccessorsNamed(state []byte) (succs [][]byte, rules []string, err error)
}

// Expander is an optional Model extension, the streaming form the search
// core runs on: successors are visited in the model's own work buffer,
// canonicalized into the caller's, and copied only if they turn out to
// be new — two of three are not, at the paper's configuration. A model
// without it is adapted from its Successors/SuccessorsNamed and
// Canonicalize (asExpander), at the cost of the allocations those make.
type Expander interface {
	// Expand calls visit once per successor of state, in the order
	// Successors would return them. succ is only valid until Expand
	// returns — a visitor that keeps it copies it — and rule indexes
	// RuleNames. A non-nil error is what Successors would have returned,
	// and is returned before any visit. n is the number of visits.
	Expand(state []byte, visit func(succ []byte, rule int)) (n int, err error)
	// RuleNames resolves Expand's rule ids: nil when the model does not
	// attribute successors to rules (the ids are then meaningless), else
	// a slice covering every id reported so far. Callers do not modify it.
	RuleNames() []string
	// AppendCanonical returns raw's canonical form (see Canonicalizer):
	// raw itself when raw is canonical, else the form appended to dst[:0]
	// or freshly allocated. Safe for concurrent use, like Expand.
	AppendCanonical(dst, raw []byte) []byte
}

// collected adapts a Model without Expand to Expander by collecting its
// successor slices and interning its rule names.
type collected struct {
	m     Model
	named NamedModel    // nil without rule attribution
	canon Canonicalizer // nil without symmetry reduction

	mu    sync.Mutex // guards ids and names: pipeline workers expand concurrently
	ids   map[string]int
	names []string
}

// asExpander returns m's streaming form: m itself when it has one, the
// collecting adapter otherwise. It is the search core's only way to a
// model's successors.
func asExpander(m Model) Expander {
	if e, ok := m.(Expander); ok {
		return e
	}
	c := &collected{m: m}
	c.canon, _ = m.(Canonicalizer)
	if c.named, _ = m.(NamedModel); c.named != nil {
		c.ids, c.names = make(map[string]int), []string{}
	}
	return c
}

func (c *collected) Expand(state []byte, visit func(succ []byte, rule int)) (int, error) {
	if c.named == nil {
		succs, err := c.m.Successors(state)
		if err != nil {
			return 0, err
		}
		for _, s := range succs {
			visit(s, 0)
		}
		return len(succs), nil
	}
	succs, rules, err := c.named.SuccessorsNamed(state)
	if err != nil {
		return 0, err
	}
	ids := make([]int, len(succs))
	c.mu.Lock()
	for i, name := range rules {
		id, ok := c.ids[name]
		if !ok {
			id = len(c.names)
			c.ids[name] = id
			c.names = append(c.names, name)
		}
		ids[i] = id
	}
	c.mu.Unlock()
	for i, s := range succs {
		visit(s, ids[i])
	}
	return len(succs), nil
}

// RuleNames returns the names interned so far; entries are never
// rewritten, so the returned prefix stays valid while workers intern more.
func (c *collected) RuleNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.names[:len(c.names):len(c.names)]
}

func (c *collected) AppendCanonical(_, raw []byte) []byte {
	if c.canon == nil {
		return raw
	}
	return c.canon.Canonicalize(raw)
}

// Strategy selects the exploration order.
type Strategy int

const (
	// BFS explores breadth-first: counterexamples are minimal-depth,
	// and bounded runs cover all states up to the bound (the paper's
	// bounded model checking, §VII).
	BFS Strategy = iota
	// DFS explores depth-first: typically finds deep deadlocks with
	// far fewer stored states.
	DFS
)

func (s Strategy) String() string {
	if s == DFS {
		return "DFS"
	}
	return "BFS"
}

// DefaultProgressEvery is the stored-state period used when a
// Progress callback is set without any explicit threshold.
const DefaultProgressEvery = 100_000

// StateObserver receives every freshly stored state, in storage order,
// from the single-threaded store path of whichever engine runs the
// search (implementations need not be thread-safe). state is lent, like
// an Expander's visitor's: it is valid only during the call, and an
// observer that keeps it copies it. Observers are strictly passive:
// because all engines store the identical state set in the identical
// order, an observer sees the same sequence no matter which engine ran —
// the occupancy profiler (machine.OccupancyProfiler) is the canonical
// implementation.
type StateObserver interface {
	Observe(state []byte)
}

// Options bounds and configures a search. The zero value means BFS
// with no bounds and traces enabled. Negative bounds are treated as 0
// (unbounded).
type Options struct {
	Strategy  Strategy
	MaxStates int // stop after storing this many states (0 = unbounded)
	MaxDepth  int // do not explore beyond this depth (0 = unbounded)
	// Store selects the visited-set representation: StoreExact (the
	// zero value) keeps full canonical bytes and exact results;
	// StoreCompact keeps 64-bit fingerprints (hash compaction) for a
	// fraction of the memory at a ~n²/2⁶⁵ state-omission probability.
	// The choice can change the outcome class of a run, so callers
	// that key caches on results must include it (internal/serve does).
	Store Store
	// DisableTraces gives up counterexamples (Result.Trace is then the
	// bad state alone) for memory: no parent table is kept, and a stored
	// state's bytes are held only until it has been expanded.
	DisableTraces bool
	// Progress, when non-nil, receives live telemetry snapshots: after
	// every ProgressEvery stored states, after every ProgressInterval
	// of wall clock (whichever fires first), and once more with the
	// final metrics (Final = true) when the search ends. When both
	// thresholds are zero, ProgressEvery defaults to
	// DefaultProgressEvery. The callback runs on the search goroutine
	// (single-threaded, even under the pipelined engine); keep it cheap.
	Progress         func(Snapshot)
	ProgressEvery    int
	ProgressInterval time.Duration
	// Trace, when non-nil, records the run into the flight recorder:
	// expansion spans on per-worker lanes, merge activity, progress
	// instants, and bound/termination events. Purely observational —
	// outcome, states, depth, and traces are unchanged.
	Trace *trace.Recorder
	// Observer, when non-nil, receives every freshly stored state from
	// the single-threaded store path (see StateObserver). Purely
	// observational. An observer that also has a
	// Stats() *icn.OccupancyStats method (machine.OccupancyProfiler)
	// fills every Snapshot's Occupancy.
	Observer StateObserver
}

// normalized clamps invalid bounds to "unbounded" and applies the
// progress default, so every engine agrees on Options semantics.
func (o Options) normalized() Options {
	if o.MaxStates < 0 {
		o.MaxStates = 0
	}
	if o.MaxDepth < 0 {
		o.MaxDepth = 0
	}
	if o.Progress != nil && o.ProgressEvery <= 0 && o.ProgressInterval <= 0 {
		o.ProgressEvery = DefaultProgressEvery
	}
	return o
}

// Outcome classifies a search result, mirroring the three result
// types of the paper's appendix H.
type Outcome int

const (
	// Complete: the reachable state space was exhausted with no
	// deadlock or violation.
	Complete Outcome = iota
	// Bounded: a limit was hit first; no deadlock or violation found
	// up to the bound.
	Bounded
	// Deadlock: a non-quiescent state with no successors was found.
	Deadlock
	// Violation: Successors reported an invariant violation.
	Violation
	// Canceled: the search's context was canceled (or its deadline
	// expired) before any terminal verdict; no deadlock or violation
	// was found in the states explored so far. Result.Message carries
	// the context error.
	Canceled
	// Capacity: the visited set or state log reached a hard
	// implementation limit (int32 node ids, a shard's slot table, uint32
	// arena locations) or the Go memory limit — see CapacityError — and the search
	// stopped rather than wrap indices or be killed. No deadlock or violation
	// was found in the states explored; Result.Message names the limit.
	Capacity
)

// Tag returns a short stable identifier for machine-readable run
// artifacts: "complete", "bounded", "deadlock", or "violation".
func (o Outcome) Tag() string {
	switch o {
	case Complete:
		return "complete"
	case Bounded:
		return "bounded"
	case Deadlock:
		return "deadlock"
	case Violation:
		return "violation"
	case Canceled:
		return "canceled"
	case Capacity:
		return "capacity"
	default:
		return fmt.Sprintf("outcome-%d", int(o))
	}
}

func (o Outcome) String() string {
	switch o {
	case Complete:
		return "complete, no deadlock"
	case Bounded:
		return "bounded, no deadlock up to bound"
	case Deadlock:
		return "DEADLOCK"
	case Violation:
		return "INVARIANT VIOLATION"
	case Canceled:
		return "canceled before completion"
	case Capacity:
		return "stopped at a capacity limit"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result reports a finished search.
type Result struct {
	Outcome  Outcome
	States   int      // distinct states stored
	Rules    int      // transitions fired (successor computations)
	MaxDepth int      // deepest level reached
	Message  string   // violation description, if any
	Trace    [][]byte // initial → bad state (when traces enabled)
	Duration time.Duration
	// Stats is the final telemetry snapshot (Final = true): states/sec,
	// dedup hit rate, depth histogram, per-rule firing counts (for
	// models that name their rules), and the bytes held, by structure
	// (Health).
	Stats Snapshot
}

func (r Result) String() string {
	return fmt.Sprintf("%s (%d states, %d transitions, depth %d, %v)",
		r.Outcome, r.States, r.Rules, r.MaxDepth, r.Duration.Round(time.Millisecond))
}

// Agree is the cross-engine, cross-store agreement predicate of
// ptest.CrossCheck, the one engine × store loop, which vnsweep's family
// sweep and vnfuzz's differential harness both run: two runs of the
// same search agree when they report the same outcome, stored-state
// count and depth. Bounded and terminal runs are held to it too — seq
// and pipeline are two schedulers over one search core, so they stop
// at the same state.
func Agree(a, b Result) bool {
	return a.Outcome == b.Outcome && a.States == b.States && a.MaxDepth == b.MaxDepth
}

// Check explores the reachable states of m under opts.
func Check(m Model, opts Options) Result {
	return CheckCtx(context.Background(), m, opts)
}

// CheckCtx is Check with cancellation: the context is polled at the
// same granularity as the MaxStates bound (once per expansion), so a
// cancel or deadline stops the search promptly with Outcome Canceled.
// A background (never-canceled) context changes nothing — the result
// is bit-identical to Check's, which the parity suite pins.
func CheckCtx(ctx context.Context, m Model, opts Options) Result {
	return check(ctx, m, opts, 1)
}

// check is the one search loop, behind every in-process engine: take
// the next stored state in BFS or DFS order, have it expanded, and hand
// the expansion to the search core's merge (search.go). With one worker
// the loop expands each state itself, on the core's collector; with
// more (BFS only: DFS always runs on one) a pipeline expands batches of
// states ahead of it, in the same order, and the loop takes each
// expansion from it. Of the loop's searches the sequential BFS alone has
// the raw cache.
func check(ctx context.Context, m Model, opts Options, workers int) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalized()
	dfs := opts.Strategy == DFS
	if dfs {
		workers = 1
	}
	s := newSearch(ctx, m, opts, "search ("+opts.Strategy.String()+")", workers)
	var p *pipeline
	if workers > 1 {
		p = newPipeline(s, workers)
		defer p.close()
	} else if !dfs {
		s.addRawCache()
	}
	if res, done := s.seed(); done {
		return res
	}

	// BFS order is storage order, so the BFS work list is just a cursor
	// over the log; DFS pops the core's stack of states it has yet to
	// expand.
	var cur ref
	for {
		if (dfs && len(s.stack) == 0) || (!dfs && int(cur.id) == s.stored) {
			return s.exhausted()
		}
		if res, done := s.stop(); done {
			return res
		}
		var w work
		if dfs {
			w = s.pop()
		} else {
			w = s.next(&cur)
		}
		if s.atDepthBound(w.depth) {
			continue
		}

		var e *expansion
		if p == nil {
			x := s.collect(w)
			e = &x
		} else if e = p.take(w); e == nil {
			return s.cancel(ctx.Err())
		}
		if res, done := s.merge(e); done {
			return res
		}
		frontier := s.stored - int(cur.id)
		if dfs {
			frontier = len(s.stack)
		} else {
			// Only now: w's bytes, lent from the log, were in use until
			// its merge, and a pipeline worker's before that.
			s.log.release(cur.pos)
			s.raw.allocate(s.stored)
		}
		s.tr.maybeProgress(s.stored, frontier, s.res.MaxDepth, s.res.Rules)
	}
}
