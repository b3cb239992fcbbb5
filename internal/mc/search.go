package mc

import (
	"context"
	"slices"
	"time"

	"minvn/internal/obs/health"
	"minvn/internal/obs/trace"
)

// search is the one search core behind every engine: the visited set,
// the state log, the telemetry tracker, and the Result under
// construction, plus the store-thread bookkeeping that decides what is
// stored, counted, and reported. The one search loop (check) hands it
// every expansion in storage order, whether it computed the expansion
// itself or took it from a pipeline, which is what makes the in-process
// engines' results bit-identical by construction rather than by parallel
// maintenance. A distributed worker runs it over its owned slice, as a
// Partition.
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
	col     *collector  // the store thread's: seed, the one-worker loop, a Partition
	ireqs   []insertReq // settle's reusable insert batch
	raw     *rawCache   // the sequential BFS's or a Partition's, shared with col; nil otherwise
	// outbox is what a Partition's caller holds for its peers, counted in
	// the frontier bytes; nil otherwise.
	outbox func() int64
}

// node is what a counterexample needs of one stored state: where its
// bytes are in the log, and the state it was first reached from.
type node struct {
	pos    logPos
	parent int32
}

// ref names one stored state. A BFS work list is one ref walked along
// the log, storage order being BFS order (the loop's cursor, the
// pipeline's dispatch cursor); DFS's is a stack of them.
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
// pipeline batch's — so settle copies the state of one it stores. A
// known successor is a duplicate the raw cache recognized: it has no
// bytes, and fp and conflated are the visited set's verdict, replayed.
type succ struct {
	state     []byte
	ckey      []byte // canonical bytes (aliases state when state is canonical)
	fp        uint64
	rule      int32 // producing rule's id (see Expander.RuleNames)
	known     bool
	conflated bool
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

// collector is the one expansion path of every engine: it visits a
// state's successors in the model's work buffer and, per successor,
// appends the raw bytes to a reusable arena, has the model write the
// canonical key — when it differs — straight behind them, and notes the
// rule id; resolve then fingerprints the keys four at a time. With a
// raw cache (the sequential BFS's or a Partition's), a successor byte-equal to a cached
// stored state is noted as known instead, and none of that is done for
// it. Nothing is allocated once the arena is warm. Everything collected
// since the last reset stays valid until the next one, so a pipeline
// batch's collector holds the whole batch until the loop has merged it.
// One goroutine at a time per collector.
type collector struct {
	m     Model
	exp   Expander
	visit func(succ []byte, rule int) // c.add, bound once
	raw   *rawCache                   // nil but for the sequential BFS and a Partition
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
	sc := succ{rule: int32(rule)}
	if c.raw.on() {
		if e := c.raw.lookup(rawHash(state), state); e != nil {
			sc.fp, sc.conflated, sc.known = e.fp, e.conflated(), true
			c.spans = append(c.spans, span{})
			c.succs = append(c.succs, sc)
			return
		}
	}
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
	c.succs = append(c.succs, sc)
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

// resolve points every collected successor but the known ones at its
// bytes, now that the arena has stopped moving, fingerprints their keys
// in groups of four and returns them all.
func (c *collector) resolve() []succ {
	var g [4]int32 // a group's indexes into succs
	n := 0
	for i, sp := range c.spans {
		sc := &c.succs[i]
		if sc.known {
			continue
		}
		sc.state = c.arena[sp.lo:sp.mid:sp.mid]
		sc.ckey = sc.state
		if sp.mid != sp.end {
			sc.ckey = c.arena[sp.mid:sp.end:sp.end]
		}
		g[n] = int32(i)
		if n++; n == len(g) {
			c.fingerprint(g[:])
			n = 0
		}
	}
	if n > 0 {
		c.fingerprint(g[:n])
	}
	return c.succs
}

// fingerprint fingerprints the keys of the successors at idx, one to
// four of them; a short group fills its spare lanes with its own keys.
func (c *collector) fingerprint(idx []int32) {
	var keys [4][]byte
	for j := range keys {
		keys[j] = c.succs[idx[j%len(idx)]].ckey
	}
	fps := fingerprint4(keys)
	for j, i := range idx {
		c.succs[i].fp = fps[j]
	}
}

// newSearch builds the core for one run; mainLane names the store
// thread's flight-recorder lane.
func newSearch(ctx context.Context, m Model, opts Options, mainLane string, workers int) *search {
	s := &search{ctx: ctx, m: m, exp: asExpander(m), opts: opts, start: time.Now()}
	s.col = newCollector(m, s.exp)
	tc, _ := trace.TraceContextFrom(ctx)
	s.lane = opts.Trace.Lane(tc.LanePrefix() + mainLane)
	s.set = newVisitedStore(opts.Store)
	s.set.guard = s.overMemory
	s.log.size, s.log.keep = logChunk, !opts.DisableTraces
	s.memLimit = memoryLimit()
	s.tr = newTracker(opts, s.start, s.exp, workers)
	s.tr.lane = s.lane
	s.tr.setHealth = func(r *health.Report) {
		r.ArenaBytes = s.set.arenaBytes
		r.SetBytes = s.set.bytes()
		r.FrontierBytes = s.frontierBytes()
		if s.raw != nil {
			r.RawHits = s.raw.hits
		}
	}
	return s
}

// addRawCache gives the search a raw cache, its small table allocated
// for the first stored state, unless tests switched it off.
func (s *search) addRawCache() {
	if rawCacheOn {
		s.raw = &rawCache{log: &s.log}
		s.raw.allocate(0)
		s.col.raw = s.raw
	}
}

// frontierBytes is what the search holds beside the visited set.
func (s *search) frontierBytes() int64 {
	n := s.log.held + int64(cap(s.nodes))*12 + int64(cap(s.stack))*16 + // a node, a ref
		s.raw.bytes()
	if s.outbox != nil {
		n += s.outbox()
	}
	return n
}

// digest has the store thread's collector canonicalize and fingerprint
// states that no rule produced: the initial ones, or a Partition's
// received ones.
func (s *search) digest(states [][]byte) []succ {
	s.col.reset()
	for _, st := range states {
		s.col.add(st, 0)
	}
	return s.col.resolve()
}

// seed stores the model's initial states.
func (s *search) seed() (Result, bool) {
	if err := s.settle(-1, 0, s.digest(s.m.Initial())); err != nil {
		s.res.Message = err.Error()
		return s.finish(Capacity), true
	}
	return Result{}, false
}

// settle probes digested successors of parent against the visited set
// in order and stores the fresh ones at depth: one insertBatch of the
// successors the raw cache did not know (which assigns ids stored+0,1,…
// to fresh entries in request order, the order they are appended to the
// log below), then the per-successor bookkeeping, known ones in their
// place — rule firing, probe accounting, log append and raw cache entry,
// parent table or DFS stack, observer. The batch stops after the insert
// that reaches MaxStates, and a known successor after that insert is cut
// with the rest; the caller's next stop() ends the search. A
// *CapacityError means nothing past the offending successor was counted
// (its rule firing still is: fire precedes store).
func (s *search) settle(parent, depth int32, succs []succ) error {
	s.ireqs = s.ireqs[:0]
	for i := range succs {
		if sc := &succs[i]; !sc.known {
			s.ireqs = append(s.ireqs, insertReq{fp: sc.fp, key: sc.ckey})
		}
	}
	limit := -1
	if s.opts.MaxStates > 0 {
		limit = s.opts.MaxStates - s.stored
	}
	processed, fresh, err := s.set.insertBatch(s.ireqs, int32(s.stored), limit)
	cut := limit >= 0 && fresh >= limit
	var dup insertReq // a known successor's verdict
	next, i := 0, 0   // next indexes s.ireqs
	for ; i < len(succs); i++ {
		sc, r := &succs[i], &dup
		if !sc.known {
			if next == processed {
				break // past the cut, or the offending successor
			}
			r = &s.ireqs[next]
			next++
		} else if cut && next == processed {
			break
		} else {
			dup.conflated = sc.conflated
			s.raw.hits++
		}
		if r.fresh {
			at := ref{id: int32(s.stored), depth: depth}
			if at.pos, err = s.log.append(sc.state); err != nil {
				break
			}
			s.stored++
			s.raw.fill(sc.state, at.pos, sc.fp, r.bare)
			if s.log.keep {
				s.nodes = append(s.nodes, node{at.pos, parent})
			}
			if s.opts.Strategy == DFS {
				s.stack = append(s.stack, at)
			} else {
				// A Partition may own no state at some depth: an empty
				// level starts where the next one does.
				for int(depth) >= len(s.levels) {
					s.levels = append(s.levels, at.id)
				}
			}
			s.res.MaxDepth = max(s.res.MaxDepth, int(depth))
		}
		if parent >= 0 {
			s.tr.fire(int(sc.rule))
		}
		s.tr.probe(sc.fp, depth, r.fresh, r.conflated)
		if r.fresh && s.opts.Observer != nil {
			s.opts.Observer.Observe(sc.state)
		}
	}
	if err != nil && parent >= 0 {
		s.tr.fire(int(succs[i].rule))
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
	if err := s.overMemory(0); err != nil {
		s.res.Message = err.Error()
		return s.finish(Capacity), true
	}
	if s.opts.MaxStates > 0 && s.stored >= s.opts.MaxStates {
		return s.finish(Bounded), true
	}
	return Result{}, false
}

// overMemory is the memory check: a *CapacityError once the held bytes
// and extra more reach the Go memory limit. stop asks it with nothing
// more before each expansion, the visited set with its next table
// before that grows.
func (s *search) overMemory(extra int64) error {
	held := s.set.bytes() + s.frontierBytes() + extra
	if held >= s.memLimit {
		// The raw cache only saves time: it gives its bytes up first, so
		// the search stops where it would have without one.
		held -= s.raw.drop()
	}
	if held >= s.memLimit {
		return &CapacityError{Limit: "memory", Max: s.memLimit}
	}
	return nil
}

// collect expands w on the store thread's collector: the one-worker
// loop's expansion, and a Partition's. The worker profile's sampled
// expand time covers exactly this — expand, canonicalize, fingerprint.
func (s *search) collect(w work) expansion {
	t0 := s.tr.startExpansion(s.res.Rules)
	sp := s.lane.Start("expand")
	s.col.reset()
	e := s.col.expand(w)
	s.col.resolve()
	sp.EndArg("succs", int64(len(e.succs)))
	s.tr.endExpansion(t0)
	return e
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

// merge applies one expansion to the store. The search loop (check) is
// its only caller, in expansion order (storage order for BFS); done
// means the expansion ended the search.
func (s *search) merge(e *expansion) (Result, bool) {
	if s.count(e) {
		return s.res, true
	}
	if err := s.settle(e.id, e.depth+1, e.succs); err != nil {
		s.res.Message = err.Error()
		return s.finish(Capacity), true
	}
	return Result{}, false
}

// count books one expansion before its successors are settled; a
// violation or deadlock ends the search there, which done reports and
// s.res then holds.
func (s *search) count(e *expansion) (done bool) {
	s.res.Rules++
	switch {
	case e.err != nil:
		s.res.Message = e.err.Error()
		s.res.Trace = s.trace(e.id, e.state)
		s.finish(Violation)
		return true
	case e.deadlock:
		s.res.Message = "no enabled rule in non-quiescent state"
		s.res.Trace = s.trace(e.id, e.state)
		s.finish(Deadlock)
		return true
	}
	s.tr.addGenerated(len(e.succs))
	return false
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
