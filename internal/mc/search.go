package mc

import (
	"context"
	"time"

	"minvn/internal/obs/health"
	"minvn/internal/obs/trace"
)

// search is the one search core behind every in-process engine: the
// visited set, the node table, the telemetry tracker, and the Result
// under construction, plus the store-thread bookkeeping that decides
// what is stored, counted, and reported. CheckCtx and the pipelined
// merge loop only schedule — who computes an expansion and when — and
// hand every expansion to merge in storage order, which is what makes
// their results bit-identical by construction rather than by parallel
// maintenance.
//
// Except for the Expander itself (safe from worker goroutines, each with
// its own collector), every method is store-thread only.
type search struct {
	ctx   context.Context
	m     Model
	exp   Expander // m's streaming form; the only way to its successors
	opts  Options  // normalized
	start time.Time
	lane  *trace.Lane
	tr    *tracker
	set   *VisitedStore
	nodes []node
	res   Result
	// bounded records that some state was left unexpanded at MaxDepth.
	bounded bool
	col     *collector  // the store thread's: seed, and the sequential scheduler
	ireqs   []insertReq // settle's reusable insert batch
	scratch setScratch
}

// node is one stored state. state is the node's own exact-size copy,
// retained until the scheduler takes it for expansion and, when traces
// are enabled, for good.
type node struct {
	state  []byte
	parent int32
	depth  int32
}

// succ is one generated successor on its way to the store. Its bytes
// are lent — they alias a collector's arena or a worker's batch buffer —
// so settle copies the state of one it stores.
type succ struct {
	state []byte // nil once a worker probe proved it a duplicate
	ckey  []byte // canonical bytes (aliases state when state is canonical)
	fp    uint64
	rule  int32 // producing rule's id (see Expander.RuleNames)
	// dup marks a duplicate verdict already proven by a worker's
	// read-only probe (the set only grows, so it is conclusive);
	// conflated carries that probe's unverified-hit flag, which is
	// time-stable (see the shardset.go contract).
	dup       bool
	conflated bool
}

// keyed reports whether sc's canonical key is bytes of its own rather
// than the state's.
func keyed(sc *succ) bool { return !aliases(sc.ckey, sc.state) }

// aliases reports whether a and b are the same bytes in memory — how an
// Expander says "already canonical" without a second return value.
func aliases(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// expansion is one stored state's successor set, or its terminal info.
type expansion struct {
	id       int32
	state    []byte // the expanded state, for traces on terminal outcomes
	err      error
	deadlock bool
	succs    []succ
}

// collector is the one expansion path of both schedulers: it visits a
// state's successors in the model's work buffer and, per successor,
// appends the raw bytes and — when it differs — the canonical key to a
// reusable arena, fingerprints the key, and notes the rule id. Nothing
// is allocated once the arena is warm. Everything collected since the
// last reset stays valid until the next one, so a pipeline worker
// collects a whole batch before it probes. One collector per goroutine.
type collector struct {
	m     Model
	exp   Expander
	visit func(succ []byte, rule int) // c.add, bound once
	arena []byte
	key   []byte // AppendCanonical's destination
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

// add collects one successor; it is the Expander's visitor.
func (c *collector) add(state []byte, rule int) {
	lo := len(c.arena)
	c.arena = append(c.arena, state...)
	mid := len(c.arena)
	key := c.exp.AppendCanonical(c.key, state)
	if !aliases(key, state) {
		c.arena = append(c.arena, key...)
		c.key = key[:0]
	}
	c.spans = append(c.spans, span{lo, mid, len(c.arena)})
	c.succs = append(c.succs, succ{fp: Fingerprint(key), rule: int32(rule)})
}

// expand collects id's successors behind whatever is already collected.
// The expansion's succs alias the collector's list and get their bytes
// from the next resolve. That serves the latest expansion of a
// collection; an earlier one may have been left behind by the list's
// growth, but its length is still right, and the lengths partition
// resolve's result in expansion order.
func (c *collector) expand(id int32, state []byte) expansion {
	from := len(c.succs)
	n, err := c.exp.Expand(state, c.visit)
	e := expansion{id: id, state: state, err: err}
	if err == nil {
		e.deadlock = n == 0 && !c.m.Quiescent(state)
		e.succs = c.succs[from:len(c.succs):len(c.succs)]
	}
	return e
}

// resolve points every collected successor at its bytes, now that the
// arena has stopped moving, and returns them all.
func (c *collector) resolve() []succ {
	for i, sp := range c.spans {
		sc := &c.succs[i]
		sc.state = c.arena[sp.lo:sp.mid:sp.mid]
		sc.ckey = sc.state
		if sp.mid != sp.end {
			sc.ckey = c.arena[sp.mid:sp.end:sp.end]
		}
	}
	return c.succs
}

// newSearch builds the core for one run; mainLane names the store
// thread's flight-recorder lane. shards <= 0 picks DefaultShards.
func newSearch(ctx context.Context, m Model, opts Options, mainLane string, workers, shards int) *search {
	s := &search{ctx: ctx, m: m, exp: asExpander(m), opts: opts, start: time.Now()}
	s.col = newCollector(m, s.exp)
	tc, _ := trace.TraceContextFrom(ctx)
	s.lane = opts.Trace.Lane(tc.LanePrefix() + mainLane)
	s.set = newVisitedStore(opts.Store, shards)
	s.tr = newTracker(opts, s.start, s.exp)
	s.tr.lane = s.lane
	s.tr.workers = health.NewWorkerSet(workers)
	s.tr.setHealth = func(r *health.Report) {
		st := s.set.stats()
		r.ArenaBytes = st.arenaBytes
		r.SetBytes = st.setBytes
		r.LockWaitNS, r.LockWaitSamples = s.set.lockWait()
	}
	return s
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
// in order and stores the fresh ones at depth: one shard-grouped
// insertBatch (which assigns ids len(nodes)+0,1,… to fresh entries in
// request order, so the nodes appended below land exactly on their
// ids), then the per-successor bookkeeping — rule firing, probe
// accounting, node append, observer. The batch stops after the insert
// that reaches MaxStates; the caller's next stop() ends the search. A
// *CapacityError means nothing past the offending successor was
// touched (its rule firing is still counted: fire precedes store).
func (s *search) settle(parent, depth int32, succs []succ) error {
	s.ireqs = s.ireqs[:0]
	for i := range succs {
		sc := &succs[i]
		s.ireqs = append(s.ireqs, insertReq{fp: sc.fp, key: sc.ckey, skip: sc.dup})
	}
	limit := -1
	if s.opts.MaxStates > 0 {
		limit = s.opts.MaxStates - len(s.nodes)
	}
	processed, _, err := s.set.insertBatch(s.ireqs, int32(len(s.nodes)), limit, &s.scratch)
	for i := 0; i < processed; i++ {
		sc, r := &succs[i], &s.ireqs[i]
		if parent >= 0 {
			s.tr.fire(sc.rule)
		}
		switch {
		case sc.dup:
			s.tr.recordProbe(sc.fp, depth, false, sc.conflated)
		case !r.fresh:
			s.tr.recordProbe(sc.fp, depth, false, r.conflated)
		default:
			s.tr.recordProbe(sc.fp, depth, true, false)
			state := append(make([]byte, 0, len(sc.state)), sc.state...)
			s.nodes = append(s.nodes, node{state: state, parent: parent, depth: depth})
			if int(depth) > s.res.MaxDepth {
				s.res.MaxDepth = int(depth)
			}
			if s.opts.Observer != nil {
				s.opts.Observer.Observe(state)
			}
		}
	}
	if err != nil && parent >= 0 {
		s.tr.fire(succs[processed].rule)
	}
	return err
}

// take hands node id's state to the scheduler for expansion, dropping
// the node table's reference when traces do not need it.
func (s *search) take(id int32) []byte {
	n := &s.nodes[id]
	state := n.state
	if s.opts.DisableTraces {
		n.state = nil
	}
	return state
}

// stop is the pre-expansion check: cancellation and the stored-state
// bound end the search before the next state is merged, so
// Result.States never exceeds MaxStates and always counts states
// actually stored.
func (s *search) stop() (Result, bool) {
	if err := s.ctx.Err(); err != nil {
		return s.cancel(err), true
	}
	if s.opts.MaxStates > 0 && len(s.nodes) >= s.opts.MaxStates {
		return s.finish(Bounded), true
	}
	return Result{}, false
}

// atDepthBound reports whether node id sits at MaxDepth and must not be
// expanded.
func (s *search) atDepthBound(id int32) bool {
	if s.opts.MaxDepth > 0 && int(s.nodes[id].depth) >= s.opts.MaxDepth {
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
	if err := s.settle(e.id, s.nodes[e.id].depth+1, e.succs); err != nil {
		s.res.Message = err.Error()
		return s.finish(Capacity), true
	}
	return Result{}, false
}

// trace reconstructs the path from an initial state to node id, whose
// state is last (the node table may no longer hold it).
func (s *search) trace(id int32, last []byte) [][]byte {
	if s.opts.DisableTraces {
		return [][]byte{last}
	}
	var rev [][]byte
	for cur := id; cur >= 0; cur = s.nodes[cur].parent {
		rev = append(rev, s.nodes[cur].state)
	}
	out := make([][]byte, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
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
	s.lane.InstantArg("outcome/"+o.Tag(), "states", int64(len(s.nodes)))
	s.res.Outcome = o
	s.res.States = len(s.nodes)
	s.res.Duration = time.Since(s.start)
	s.res.Stats = s.tr.finish(s.res.States, s.res.MaxDepth, s.res.Rules)
	return s.res
}
