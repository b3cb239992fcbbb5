package mc

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"minvn/internal/obs/trace"
)

// Pipelined parallel breadth-first search: the parallel scheduler over
// the shared search core (search.go).
//
// Workers pull batches of stored-but-unexpanded states from a shared
// work channel and run the expensive per-state work — expansion,
// canonicalization and fingerprinting on a per-worker collector, and a
// read-only duplicate probe against the sharded visited set — while a
// single merge loop consumes the expansion results strictly in storage
// order through a reorder buffer. There is no per-depth barrier: states
// at depth d+1 are being expanded while depth-d results are still
// merging.
//
// Determinism: because successor computation is a pure function of the
// state, farming it out does not change what the merge sees, and the
// in-order merge hands each expansion to the same search.merge the
// sequential engine calls — same visited-set probe order, same storage
// order, same bound checks, same first-violation-by-depth (BFS order is
// depth order, and the merge order is BFS order, so whichever worker
// finds a bad state first, the *reported* one is the one the sequential
// engine would report). Outcome, States, Rules, MaxDepth, traces, and
// the telemetry counters are bit-identical to Check for every model and
// bound, including early-terminating runs. Speculative expansions past
// a termination point are simply discarded.

// pipelineBatch is the number of states per work/result message;
// batching amortizes channel operations (and the two allocations a
// result batch costs) against expansions.
const pipelineBatch = 16

// CheckPipelined runs Check's BFS with a pipelined worker pool and a
// sharded fingerprint visited set. workers <= 0 picks GOMAXPROCS;
// shards <= 0 picks DefaultShards. DFS and single-worker runs fall
// back to the sequential engine (results are identical either way —
// that is the point).
func CheckPipelined(m Model, opts Options, workers, shards int) Result {
	return CheckPipelinedCtx(context.Background(), m, opts, workers, shards)
}

// CheckPipelinedCtx is CheckPipelined with cancellation: the context
// is polled in the merge loop at the same point as the MaxStates
// bound and in the dispatch select, so a cancel stops the search
// promptly with Outcome Canceled (the worker pool is torn down via
// the quit channel as usual). A background context changes nothing.
func CheckPipelinedCtx(ctx context.Context, m Model, opts Options, workers, shards int) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalized()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Strategy == DFS || workers == 1 {
		return CheckCtx(ctx, m, opts)
	}

	s := newSearch(ctx, m, opts, "merge", workers, shards)
	tc, _ := trace.TraceContextFrom(ctx)
	wlanes := make([]*trace.Lane, workers)
	for w := range wlanes {
		wlanes[w] = opts.Trace.Lane(fmt.Sprintf("%sworker %d", tc.LanePrefix(), w))
	}
	if res, done := s.seed(); done {
		return res
	}

	quit := make(chan struct{})
	defer close(quit)
	workCh := make(chan []work, workers)
	resCh := make(chan []expansion, workers)

	// expandBatch collects the whole work batch on the worker's own
	// collector, resolves all membership probes shard-grouped — each
	// shard lock is taken once per batch instead of once per successor —
	// and ships what the merge needs and nothing else: one succ slab
	// holding every successor's fingerprint, rule and probe verdict, and
	// one exact-size buffer holding the bytes of the probe misses only.
	// The set only grows, so a probe hit is conclusive: the merge need
	// not see, let alone re-hash, a duplicate's bytes, and at two
	// duplicates in three shipping the collection arena instead would
	// more than double what a batch allocates.
	expandBatch := func(batch []work, col *collector, preqs []probeReq, sc *setScratch) ([]expansion, []probeReq) {
		out := make([]expansion, 0, len(batch))
		col.reset()
		for _, w := range batch {
			out = append(out, col.expand(w))
		}
		succs := col.resolve()
		preqs = preqs[:0]
		for i := range succs {
			preqs = append(preqs, probeReq{fp: succs[i].fp, key: succs[i].ckey})
		}
		s.set.probeBatch(preqs, sc)
		missBytes := 0
		for i := range preqs {
			if !preqs[i].hit {
				missBytes += len(succs[i].state)
				if keyed(&succs[i]) {
					missBytes += len(succs[i].ckey)
				}
			}
		}
		slab, buf := make([]succ, len(succs)), make([]byte, 0, missBytes)
		for i := range succs {
			c, r, sh := &succs[i], &preqs[i], &slab[i]
			sh.fp, sh.rule = c.fp, c.rule
			if r.hit {
				sh.dup, sh.conflated = true, r.conflated
				continue
			}
			at := len(buf)
			buf = append(buf, c.state...)
			sh.state = buf[at:len(buf):len(buf)]
			sh.ckey = sh.state
			if keyed(c) {
				at = len(buf)
				buf = append(buf, c.ckey...)
				sh.ckey = buf[at:len(buf):len(buf)]
			}
		}
		// The expansions' succs were cut from the collector's list; their
		// lengths partition the slab in order.
		for bi := range out {
			n := len(out[bi].succs)
			out[bi].succs, slab = slab[:n:n], slab[n:]
		}
		return out, preqs
	}

	for w := 0; w < workers; w++ {
		wl := wlanes[w]
		prof := s.tr.workers.Worker(w)
		go func() {
			col := newCollector(s.m, s.exp)
			var preqs []probeReq
			var scratch setScratch
			for {
				tq := time.Now()
				select {
				case <-quit:
					return
				case batch := <-workCh:
					queueWait := time.Since(tq)
					sp := wl.Start("batch")
					t0 := time.Now()
					var out []expansion
					out, preqs = expandBatch(batch, col, preqs, &scratch)
					expand := time.Since(t0)
					sp.EndArg("states", int64(len(batch)))
					ts := time.Now()
					select {
					case resCh <- out:
						prof.AddBatch(len(batch), expand, queueWait, time.Since(ts))
					case <-quit:
						return
					}
				}
			}
		}()
	}

	// maxWindow bounds how far dispatch may run ahead of the merge, so
	// the reorder buffer (and the successor batches parked in it) stays
	// a small multiple of the worker pool rather than the frontier.
	maxWindow := max(workers*pipelineBatch*4, 64)

	var (
		reorder     = make(map[int32]expansion)
		merge       ref // next state to merge, in storage order
		dispatch    ref // next state to hand to a worker
		outstanding = 0 // dispatched states whose results have not arrived
		pending     []work
	)

	// nextBatch claims up to pipelineBatch dispatchable states.
	// Depth-bounded states are skipped here and settled inline by the
	// merge — the sequential engine never expands them either.
	nextBatch := func() []work {
		if int(dispatch.id-merge.id) >= maxWindow {
			return nil
		}
		var batch []work
		for int(dispatch.id) < s.stored && len(batch) < pipelineBatch {
			if w := s.next(&dispatch); !s.atDepthBound(w.depth) {
				batch = append(batch, w)
			}
		}
		return batch
	}

	// receive parks a result batch in the reorder buffer.
	receive := func(rb []expansion) {
		outstanding -= len(rb)
		for _, e := range rb {
			reorder[e.id] = e
		}
		s.tr.reorderMax = max(s.tr.reorderMax, int64(len(reorder)))
	}

	for {
		// Merge every result that is ready, strictly in storage order —
		// the sequential engine's loop, with the expansion read from the
		// reorder buffer instead of computed.
		for int(merge.id) < s.stored {
			if res, done := s.stop(); done {
				return res
			}
			after := merge
			if w := s.next(&after); s.atDepthBound(w.depth) {
				merge = after
				continue
			}
			e, ok := reorder[merge.id]
			if !ok {
				break // the expansion for the next id has not arrived yet
			}
			delete(reorder, merge.id)
			if res, done := s.merge(&e); done {
				return res
			}
			// Merged, not merely taken: a worker may have been reading it.
			merge = after
			s.log.release(merge.pos)
			s.tr.maybeProgress(s.stored, s.stored-int(merge.id), s.res.MaxDepth, s.res.Rules)
		}

		if int(merge.id) == s.stored {
			// Everything stored has been merged; nothing can be in
			// flight (in-flight ids are always unmerged).
			return s.exhausted()
		}

		if pending == nil {
			if b := nextBatch(); len(b) > 0 {
				pending = b
			}
		}
		sendCh := workCh
		if pending == nil {
			// The merge is blocked on an expansion that must already be
			// in flight: everything before it was dispatched (no batch
			// is claimable) and it is not in the reorder buffer. This is
			// the pipeline's only wait state, counted as a reorder stall.
			if outstanding == 0 {
				panic(fmt.Sprintf("mc: pipeline stalled at id %d with no work in flight", merge.id))
			}
			s.tr.reorderStalls++
			sendCh = nil // a nil channel never selects
		}
		select {
		case sendCh <- pending:
			outstanding += len(pending)
			pending = nil
		case rb := <-resCh:
			receive(rb)
		case <-ctx.Done():
			return s.cancel(ctx.Err())
		}
	}
}
