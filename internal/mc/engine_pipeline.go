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
// The merge goroutine claims stored-but-unexpanded states in batches and
// hands each batch, with an arena of its own, to a worker from a shared
// work channel. The worker does the expensive per-state work —
// expansion, canonicalization and fingerprinting, on the batch's
// collector exactly as the sequential loop does on its own — and sends
// the batch back. The merge consumes the expansions strictly in storage
// order, straight out of the batch's arena, and puts the batch back on
// its free list after the last one merges. There is no per-depth
// barrier: states at depth d+1 are being expanded while depth-d results
// are still merging.
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
// batching amortizes channel operations against expansions.
const pipelineBatch = 16

// batch is one dispatch of up to pipelineBatch states and the arena
// their successors are collected into. Its worker owns it from the
// dispatch until it sends it back and never touches it after; the merge
// owns it the rest of the time. Nothing is copied between collection
// and the state log: the merge settles every expansion out of col.
type batch struct {
	seq  int // dispatch sequence: the batch's place in the reorder buffer
	work []work
	exps []expansion
	col  *collector
	next int // the first of exps not merged yet
}

// expand collects the batch's successors and cuts each expansion's from
// the collector's list, whose growth may have left the earlier ones
// behind (see collector.expand).
func (b *batch) expand() {
	b.col.reset()
	b.exps = b.exps[:0]
	for _, w := range b.work {
		b.exps = append(b.exps, b.col.expand(w))
	}
	succs := b.col.resolve()
	for i := range b.exps {
		n := len(b.exps[i].succs)
		b.exps[i].succs, succs = succs[:n:n], succs[n:]
	}
}

// CheckPipelined runs Check's BFS with a pipelined worker pool.
// workers <= 0 picks GOMAXPROCS. DFS and single-worker runs fall back
// to the sequential engine (results are identical either way — that is
// the point). shards is ignored: the visited set always has
// DefaultShards shards; the argument stays for existing callers.
func CheckPipelined(m Model, opts Options, workers, shards int) Result {
	return CheckPipelinedCtx(context.Background(), m, opts, workers)
}

// CheckPipelinedCtx is CheckPipelined with cancellation: the context
// is polled in the merge loop at the same point as the MaxStates
// bound and in the dispatch select, so a cancel stops the search
// promptly with Outcome Canceled (the worker pool is torn down via
// the quit channel as usual). A background context changes nothing.
func CheckPipelinedCtx(ctx context.Context, m Model, opts Options, workers int) Result {
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

	s := newSearch(ctx, m, opts, "merge", workers)
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
	workCh := make(chan *batch, workers)
	resCh := make(chan *batch, workers)

	for w := 0; w < workers; w++ {
		wl := wlanes[w]
		prof := s.tr.workers.Worker(w)
		go func() {
			for {
				tq := time.Now()
				select {
				case <-quit:
					return
				case b := <-workCh:
					queueWait := time.Since(tq)
					n := len(b.work)
					sp := wl.Start("batch")
					t0 := time.Now()
					b.expand()
					expand := time.Since(t0)
					sp.EndArg("states", int64(n))
					ts := time.Now()
					select {
					case resCh <- b:
						prof.AddBatch(n, expand, queueWait, time.Since(ts))
					case <-quit:
						return
					}
				}
			}
		}()
	}

	// maxWindow bounds how far dispatch may run ahead of the merge, so
	// the batches out at once stay a small multiple of the worker pool
	// rather than the frontier. Batches cut short by the end of the
	// stored states or by the depth bound hold fewer states, so the
	// pool is capped in batches too: a full window's worth plus one per
	// worker. The reorder buffer holds the batches back from workers,
	// keyed by dispatch sequence; no two batches out share a slot.
	maxWindow := max(workers*pipelineBatch*4, 64)
	reorder := make([]*batch, maxWindow/pipelineBatch+workers)

	var (
		free     []*batch // batches not out, ready for reuse
		made     = 0      // batches allocated so far, at most len(reorder)
		merge    ref      // next state to merge, in storage order
		dispatch ref      // next state to hand to a worker
		sent     = 0      // dispatch sequence of the next batch
		head     = 0      // dispatch sequence of the batch merging next
		inFlight = 0      // dispatched batches that have not come back
		parked   = 0      // expansions back from workers, not merged yet
		pending  *batch
	)

	// nextBatch claims up to pipelineBatch dispatchable states into a
	// free batch. Depth-bounded states are skipped here and settled
	// inline by the merge — the sequential engine never expands them
	// either.
	nextBatch := func() *batch {
		if int(dispatch.id-merge.id) >= maxWindow || int(dispatch.id) == s.stored {
			return nil
		}
		var b *batch
		switch {
		case len(free) > 0:
			b, free = free[len(free)-1], free[:len(free)-1]
		case made < len(reorder):
			b = &batch{col: newCollector(s.m, s.exp)}
			made++
		default:
			return nil // every batch is out; the one merging next among them
		}
		b.work = b.work[:0]
		for int(dispatch.id) < s.stored && len(b.work) < pipelineBatch {
			if w := s.next(&dispatch); !s.atDepthBound(w.depth) {
				b.work = append(b.work, w)
			}
		}
		if len(b.work) == 0 {
			free = append(free, b)
			return nil
		}
		b.seq, b.next = sent, 0
		sent++
		return b
	}

	for {
		// Merge every result that is ready, strictly in storage order —
		// the sequential engine's loop, with the expansion read from the
		// batch at the head of the reorder buffer instead of computed.
		for int(merge.id) < s.stored {
			if res, done := s.stop(); done {
				return res
			}
			after := merge
			if w := s.next(&after); s.atDepthBound(w.depth) {
				merge = after
				continue
			}
			b := reorder[head%len(reorder)]
			if b == nil {
				break // the batch holding the next id has not come back yet
			}
			if res, done := s.merge(&b.exps[b.next]); done {
				return res
			}
			parked--
			if b.next++; b.next == len(b.exps) {
				reorder[head%len(reorder)] = nil
				head++
				free = append(free, b)
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
			pending = nextBatch()
		}
		sendCh := workCh
		if pending == nil {
			// The merge is blocked on an expansion that must already be
			// in flight: everything before it was dispatched (no batch
			// is claimable) and it is not in the reorder buffer. This is
			// the pipeline's only wait state, counted as a reorder stall.
			if inFlight == 0 {
				panic(fmt.Sprintf("mc: pipeline stalled at id %d with no work in flight", merge.id))
			}
			s.tr.reorderStalls++
			sendCh = nil // a nil channel never selects
		}
		select {
		case sendCh <- pending:
			inFlight++
			pending = nil
		case b := <-resCh:
			inFlight--
			reorder[b.seq%len(reorder)] = b
			parked += len(b.exps)
			s.tr.reorderMax = max(s.tr.reorderMax, int64(parked))
		case <-ctx.Done():
			return s.cancel(ctx.Err())
		}
	}
}
