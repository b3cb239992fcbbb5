package mc

import (
	"context"
	"slices"
	"time"

	"minvn/internal/obs/health"
	"minvn/internal/obs/trace"
)

// search is the one search core behind every in-process engine: the
// visited set, the state log, the telemetry tracker, and the Result
// under construction, plus the store-thread bookkeeping that decides
// what is stored, counted, and reported. CheckCtx and the pipelined
// merge loop only schedule — who computes an expansion and when — and
// hand every expansion to merge in storage order, which is what makes
// their results bit-identical by construction rather than by parallel
// maintenance.
//
// Except for the Expander itself (safe from worker goroutines, each on
// its batch's collector), every method is store-thread only.
type search struct {
	ctx    context.Context
	m      Model
	exp    Expander // m's streaming form; the only way to its successors
	opts   Options  // normalized
	start  time.Time
	lane   *trace.Lane
	tr     *tracker
	set    *VisitedStore
	log    stateLog
	stored int    // states stored so far: the next state's id
	nodes  []node // the parent table, by id; traces on only
	// levels[d] is the id of the first state at depth d: BFS stores in depth
	// order, so a cursor reads its depth off it. DFS's work list is stack.
	levels   []int32
	stack    []ref
	popped   []byte // the state pop took, which the log no longer holds
	memLimit int64  // the Go memory limit, read once (see stop)
	res      Result
	// bounded records that some state was left unexpanded at MaxDepth.
	bounded bool
	col     *collector  // the store thread's: seed, and the sequential scheduler
	ireqs   []insertReq // settle's reusable insert batch
}

// node is what a counterexample needs of one stored state: where its
// bytes are in the log, and the state it was first reached from.
type node struct {
	pos    logPos
	parent int32
}

// ref names one stored state. A BFS work list is one ref walked along
// the log, storage order being BFS order (the sequential cursor, the
// pipeline's dispatch and merge cursors); DFS's is a stack of them.
type ref struct {
	pos       logPos
	id, depth int32
}

// work is one stored state on its way to expansion. state is lent from
// the log: valid until the state has been merged.
type work struct {
	ref
	state []byte
}

// succ is one generated successor on its way to the store. Its bytes
// are lent — they alias a collector's arena, the store thread's or a
// pipeline batch's — so settle copies the state of one it stores.
type succ struct {
	state []byte
	ckey  []byte // canonical bytes (aliases state when state is canonical)
	fp    uint64
	rule  int32 // producing rule's id (see Expander.RuleNames)
}

// aliases reports whether a and b are the same bytes in memory — how an
// Expander says "already canonical" without a second return value.
func aliases(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// expansion is one stored state's successor set, or its terminal info.
type expansion struct {
	work     // the expanded state; its bytes serve traces on terminal outcomes
	err      error
	deadlock bool
	succs    []succ
}

// collector is the one expansion path of both schedulers: it visits a
// state's successors in the model's work buffer and, per successor,
// appends the raw bytes to a reusable arena, has the model write the
// canonical key — when it differs — straight behind them, and notes the
// rule id; resolve then fingerprints the keys four at a time. Nothing
// is allocated once the arena is warm. Everything collected since the
// last reset stays valid until the next one, so a pipeline batch's
// collector holds the whole batch until the merge has settled it. One
// goroutine at a time per collector.
type collector struct {
	m     Model
	exp   Expander
	visit func(succ []byte, rule int) // c.add, bound once
	arena []byte
	spans []span
	succs []succ
}

// span locates one collected successor in the arena, which may move
// while a collection is under way: raw bytes in [lo, mid), the key in
// [mid, end), or the raw bytes again when mid == end.
type span struct{ lo, mid, end int }

func newCollector(m Model, exp Expander) *collector {
	c := &collector{m: m, exp: exp}
	c.visit = c.add
	return c
}

func (c *collector) reset() {
	c.arena, c.spans, c.succs = c.arena[:0], c.spans[:0], c.succs[:0]
}

// add collects one successor; it is the Expander's visitor. The arena's
// spare capacity is AppendCanonical's destination, so a key of the
// state's length is written once, in place; a model that returns one
// elsewhere has it copied in.
func (c *collector) add(state []byte, rule int) {
	lo := len(c.arena)
	c.arena = slices.Grow(append(c.arena, state...), len(state))
	mid := len(c.arena)
	tail := c.arena[mid:]
	switch key := c.exp.AppendCanonical(tail, state); {
	case aliases(key, state):
	case len(key) <= cap(tail) && aliases(key, tail[:len(key)]):
		c.arena = c.arena[:mid+len(key)]
	default:
		c.arena = append(c.arena, key...)
	}
	c.spans = append(c.spans, span{lo, mid, len(c.arena)})
	c.succs = append(c.succs, succ{rule: int32(rule)})
}

// expand collects w's successors behind whatever is already collected.
// The expansion's succs alias the collector's list and get their bytes
// from the next resolve. That serves the latest expansion of a
// collection; an earlier one may have been left behind by the list's
// growth, but its length is still right, and the lengths partition
// resolve's result in expansion order.
func (c *collector) expand(w work) expansion {
	from := len(c.succs)
	n, err := c.exp.Expand(w.state, c.visit)
	e := expansion{work: w, err: err}
	if err == nil {
		e.deadlock = n == 0 && !c.m.Quiescent(w.state)
		e.succs = c.succs[from:len(c.succs):len(c.succs)]
	}
	return e
}

// resolve points every collected successor at its bytes, now that the
// arena has stopped moving, fingerprints the keys in groups of four (a
// short last group fills its spare lanes with its own keys) and returns
// them all.
func (c *collector) resolve() []succ {
	for i, sp := range c.spans {
		sc := &c.succs[i]
		sc.state = c.arena[sp.lo:sp.mid:sp.mid]
		sc.ckey = sc.state
		if sp.mid != sp.end {
			sc.ckey = c.arena[sp.mid:sp.end:sp.end]
		}
	}
	for lo := 0; lo < len(c.succs); lo += 4 {
		g := c.succs[lo:min(lo+4, len(c.succs))]
		var keys [4][]byte
		for j := range keys {
			keys[j] = g[j%len(g)].ckey
		}
		fps := fingerprint4(keys)
		for j := range g {
			g[j].fp = fps[j]
		}
	}
	return c.succs
}

// newSearch builds the core for one run; mainLane names the store
// thread's flight-recorder lane.
func newSearch(ctx context.Context, m Model, opts Options, mainLane string, workers int) *search {
	s := &search{ctx: ctx, m: m, exp: asExpander(m), opts: opts, start: time.Now()}
	s.col = newCollector(m, s.exp)
	tc, _ := trace.TraceContextFrom(ctx)
	s.lane = opts.Trace.Lane(tc.LanePrefix() + mainLane)
	s.set = newVisitedStore(opts.Store, DefaultShards)
	s.log.keep = !opts.DisableTraces
	s.memLimit = memoryLimit()
	s.tr = newTracker(opts, s.start, s.exp)
	s.tr.lane = s.lane
	s.tr.workers = health.NewWorkerSet(workers)
	s.tr.setHealth = func(r *health.Report) {
		r.ArenaBytes = s.set.st.arenaBytes
		r.SetBytes = s.set.st.setBytes
		r.FrontierBytes = s.frontierBytes()
	}
	return s
}

// frontierBytes is what the search holds beside the visited set.
func (s *search) frontierBytes() int64 {
	return s.log.held + int64(cap(s.nodes))*12 + int64(cap(s.stack))*16 // a node, a ref
}

// seed stores the model's initial states.
func (s *search) seed() (Result, bool) {
	s.col.reset()
	for _, st := range s.m.Initial() {
		s.col.add(st, 0)
	}
	if err := s.settle(-1, 0, s.col.resolve()); err != nil {
		s.res.Message = err.Error()
		return s.finish(Capacity), true
	}
	return Result{}, false
}

// settle probes digested successors of parent against the visited set
// in order and stores the fresh ones at depth: one insertBatch (which
// assigns ids stored+0,1,… to fresh entries in request order, the order
// they are appended to the log below), then the
// per-successor bookkeeping — rule firing, probe accounting, log append,
// parent table or DFS stack, observer. The batch stops after the insert
// that reaches MaxStates; the caller's next stop() ends the search. A
// *CapacityError means nothing past the offending successor was counted
// (its rule firing still is: fire precedes store).
func (s *search) settle(parent, depth int32, succs []succ) error {
	s.ireqs = s.ireqs[:0]
	for i := range succs {
		sc := &succs[i]
		s.ireqs = append(s.ireqs, insertReq{fp: sc.fp, key: sc.ckey})
	}
	limit := -1
	if s.opts.MaxStates > 0 {
		limit = s.opts.MaxStates - s.stored
	}
	processed, _, err := s.set.insertBatch(s.ireqs, int32(s.stored), limit)
	for i := 0; i < processed; i++ {
		sc, r := &succs[i], &s.ireqs[i]
		if r.fresh {
			at := ref{id: int32(s.stored), depth: depth}
			if at.pos, err = s.log.append(sc.state); err != nil {
				processed = i
				break
			}
			s.stored++
			if s.log.keep {
				s.nodes = append(s.nodes, node{at.pos, parent})
			}
			if s.opts.Strategy == DFS {
				s.stack = append(s.stack, at)
			} else if int(depth) == len(s.levels) {
				s.levels = append(s.levels, at.id)
			}
			s.res.MaxDepth = max(s.res.MaxDepth, int(depth))
		}
		if parent >= 0 {
			s.tr.fire(sc.rule)
		}
		s.tr.recordProbe(sc.fp, depth, r.fresh, r.conflated)
		if r.fresh && s.opts.Observer != nil {
			s.opts.Observer.Observe(sc.state)
		}
	}
	if err != nil && parent >= 0 {
		s.tr.fire(succs[processed].rule)
	}
	return err
}

// next takes the state under a BFS cursor and moves the cursor past it.
func (s *search) next(c *ref) work {
	for int(c.depth)+1 < len(s.levels) && c.id >= s.levels[c.depth+1] {
		c.depth++
	}
	w := work{ref: *c}
	w.state, c.pos = s.log.read(c.pos)
	c.id++
	return w
}

// pop takes the top of the DFS stack. With traces off the log holds the
// stack's bytes and nothing else, so the state moves to a buffer of its
// own and the log is cut back to where its successors will go.
func (s *search) pop() work {
	w := work{ref: s.stack[len(s.stack)-1]}
	s.stack = s.stack[:len(s.stack)-1]
	w.state, _ = s.log.read(w.pos)
	if !s.log.keep {
		s.popped = append(s.popped[:0], w.state...)
		w.state = s.popped
		s.log.truncate(w.pos)
	}
	return w
}

// stop is the pre-expansion check: cancellation, the stored-state bound
// and the memory limit end the search before the next state is merged,
// so Result.States never exceeds MaxStates and always counts states
// actually stored, and the held bytes (SetBytes + FrontierBytes) pass the
// limit by less than one expansion's successors, not into the OOM killer.
func (s *search) stop() (Result, bool) {
	if err := s.ctx.Err(); err != nil {
		return s.cancel(err), true
	}
	if s.set.st.setBytes+s.frontierBytes() >= s.memLimit {
		s.res.Message = (&CapacityError{Limit: "memory", Max: s.memLimit}).Error()
		return s.finish(Capacity), true
	}
	if s.opts.MaxStates > 0 && s.stored >= s.opts.MaxStates {
		return s.finish(Bounded), true
	}
	return Result{}, false
}

// atDepthBound reports whether a state at depth sits at MaxDepth and
// must not be expanded.
func (s *search) atDepthBound(depth int32) bool {
	if s.opts.MaxDepth > 0 && int(depth) >= s.opts.MaxDepth {
		s.bounded = true
		return true
	}
	return false
}

// merge applies one expansion to the store. The scheduler must call it
// in the order the sequential engine would expand (storage order for
// BFS); done means the expansion ended the search.
func (s *search) merge(e *expansion) (Result, bool) {
	s.res.Rules++
	switch {
	case e.err != nil:
		s.res.Message = e.err.Error()
		s.res.Trace = s.trace(e.id, e.state)
		return s.finish(Violation), true
	case e.deadlock:
		s.res.Message = "no enabled rule in non-quiescent state"
		s.res.Trace = s.trace(e.id, e.state)
		return s.finish(Deadlock), true
	}
	s.tr.generated += int64(len(e.succs))
	if err := s.settle(e.id, e.depth+1, e.succs); err != nil {
		s.res.Message = err.Error()
		return s.finish(Capacity), true
	}
	return Result{}, false
}

// trace reconstructs the path from an initial state to state id, whose
// bytes are last, as copies: the log's bytes are only lent.
func (s *search) trace(id int32, last []byte) [][]byte {
	out := [][]byte{append([]byte(nil), last...)}
	if !s.log.keep {
		return out
	}
	for cur := s.nodes[id].parent; cur >= 0; cur = s.nodes[cur].parent {
		state, _ := s.log.read(s.nodes[cur].pos)
		out = append(out, append([]byte(nil), state...))
	}
	slices.Reverse(out)
	return out
}

// cancel ends the search on a context error.
func (s *search) cancel(err error) Result {
	s.res.Message = err.Error()
	return s.finish(Canceled)
}

// exhausted ends a search that ran out of work.
func (s *search) exhausted() Result {
	if s.bounded {
		return s.finish(Bounded)
	}
	return s.finish(Complete)
}

func (s *search) finish(o Outcome) Result {
	s.lane.InstantArg("outcome/"+o.Tag(), "states", int64(s.stored))
	s.res.Outcome = o
	s.res.States = s.stored
	s.res.Duration = time.Since(s.start)
	s.res.Stats = s.tr.finish(s.res.States, s.res.MaxDepth, s.res.Rules)
	return s.res
}
