package mc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"minvn/internal/obs/health"
	"minvn/internal/obs/trace"
)

// Pipelined breadth-first search: the one search loop (check) with every
// state's expansion computed ahead of it by a pool of workers.
//
// The pipeline claims stored-but-unexpanded states in batches, in
// storage order, and hands each batch, with an arena of its own, to
// whichever worker is free. The worker expands, canonicalizes and
// fingerprints on the batch's collector exactly as the one-worker loop
// does on its own, and signals the batch's ready channel. The loop takes
// the batches in the order they were claimed, waiting on the oldest when
// it is not ready yet, and merges each expansion straight out of its
// batch's arena. There is no per-depth barrier. Successor computation is
// a pure function of the state, so the loop sees what it would have
// computed itself: Outcome, States, Rules, MaxDepth, traces and the
// books are bit-identical to Check's, including on early-terminating
// runs, whose speculative expansions are simply discarded.

// pipelineBatch is the number of states per dispatch; batching amortizes
// channel operations against expansions.
const pipelineBatch = 16

// batch is one dispatch of up to pipelineBatch states and the arena
// their successors are collected into. Its worker owns it from the
// dispatch until it signals ready and never touches it after; the loop
// owns it the rest of the time. Nothing is copied between collection
// and the state log: the loop settles every expansion out of col.
type batch struct {
	work  []work
	exps  []expansion
	col   *collector
	ready chan struct{} // one slot: signaled once per dispatch
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

// pipeline is the expansion source of a search with more than one
// worker. Everything but the workers' half of a batch is the loop's.
type pipeline struct {
	s *search
	// window bounds how far dispatch may run ahead of the loop, in
	// states, so the batches out at once stay a small multiple of the
	// worker pool rather than the frontier. Batches cut short by the end
	// of the stored states or by the depth bound hold fewer states, so
	// the pool is capped in batches too: a full window's worth plus one
	// per worker, made up front. todo and order each hold the whole
	// pool, so dispatch never blocks.
	window   int
	todo     chan *batch // dispatched batches, for any worker
	order    chan *batch // dispatched batches, oldest first, for take
	free     []*batch
	dispatch ref    // the next state to hand to a worker
	cur      *batch // the batch take reads, ready
	next     int    // cur's next expansion
	quit     chan struct{}
	wg       sync.WaitGroup
}

// newPipeline starts workers expanding for s; close stops them.
func newPipeline(s *search, workers int) *pipeline {
	window := max(workers*pipelineBatch*4, 64)
	pool := window/pipelineBatch + workers
	p := &pipeline{
		s: s, window: window, quit: make(chan struct{}), free: make([]*batch, pool),
		todo: make(chan *batch, pool), order: make(chan *batch, pool),
	}
	bs := make([]batch, pool)
	for i := range bs {
		bs[i] = batch{
			work: make([]work, 0, pipelineBatch), exps: make([]expansion, 0, pipelineBatch),
			col: newCollector(s.m, s.exp), ready: make(chan struct{}, 1),
		}
		p.free[i] = &bs[i]
	}
	tc, _ := trace.TraceContextFrom(s.ctx)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(s.opts.Trace.Lane(fmt.Sprintf("%sworker %d", tc.LanePrefix(), w)), s.tr.workers.Worker(w))
	}
	return p
}

// worker expands batches until the pipeline closes. A slow loop shows
// as queue wait: a worker never waits to hand a batch back.
func (p *pipeline) worker(lane *trace.Lane, prof *health.WorkerProfile) {
	defer p.wg.Done()
	for {
		tq := time.Now()
		select {
		case <-p.quit:
			return
		case b := <-p.todo:
			queueWait := time.Since(tq)
			n := len(b.work)
			sp := lane.Start("batch")
			t0 := time.Now()
			b.expand()
			expand := time.Since(t0)
			sp.EndArg("states", int64(n))
			prof.AddBatch(n, expand, queueWait)
			b.ready <- struct{}{}
		}
	}
}

// close stops the workers and waits for them: none outlives its search.
func (p *pipeline) close() {
	close(p.quit)
	p.wg.Wait()
}

// take returns the expansion of w, the state the loop merges next: it
// tops dispatch up, then, when w starts a batch, waits on the oldest one
// out — the loop's only wait, counted as a reorder stall. nil means the
// search's context ended the wait.
func (p *pipeline) take(w work) *expansion {
	if p.cur != nil && p.next == len(p.cur.exps) {
		p.free = append(p.free, p.cur) // merged, not merely taken: a worker may reuse it now
		p.cur = nil
	}
	p.fill(w.id)
	if p.cur == nil {
		if len(p.order) == 0 {
			panic(fmt.Sprintf("mc: pipeline has no batch out for state %d", w.id))
		}
		b := <-p.order
		if len(b.ready) == 0 {
			p.s.tr.reorderStalls++
		}
		select {
		case <-b.ready:
		case <-p.s.ctx.Done():
			return nil
		}
		p.cur, p.next = b, 0
	}
	p.next++
	return &p.cur.exps[p.next-1]
}

// fill claims the stored states past the last dispatched one into
// batches for the workers, while dispatch is less than the window ahead
// of from and a batch is free. Depth-bounded states are skipped: the
// loop never expands them either.
func (p *pipeline) fill(from int32) {
	s := p.s
	for int(p.dispatch.id-from) < p.window && int(p.dispatch.id) < s.stored && len(p.free) > 0 {
		b := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		b.work = b.work[:0]
		for int(p.dispatch.id) < s.stored && len(b.work) < pipelineBatch {
			if w := s.next(&p.dispatch); !s.atDepthBound(w.depth) {
				b.work = append(b.work, w)
			}
		}
		if len(b.work) == 0 {
			p.free = append(p.free, b)
			return
		}
		p.order <- b
		p.todo <- b
	}
}

// CheckPipelined runs Check's BFS with a pipelined worker pool.
// workers <= 0 picks GOMAXPROCS. DFS and single-worker runs are the
// sequential engine (results are identical either way — that is the
// point). shards is ignored: the visited set is one table; the argument
// stays for existing callers.
func CheckPipelined(m Model, opts Options, workers, shards int) Result {
	return CheckPipelinedCtx(context.Background(), m, opts, workers)
}

// CheckPipelinedCtx is CheckPipelined with cancellation (see CheckCtx):
// the loop also polls the context while it waits on a batch.
func CheckPipelinedCtx(ctx context.Context, m Model, opts Options, workers int) Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return check(ctx, m, opts, workers)
}
