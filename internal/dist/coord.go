package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/trace"
)

// Job describes one search: the system to build and how to explore it.
// Check runs it on the distributed engine; Run dispatches it to
// Engine. Spec.Resolve builds one from a description; a Job is plain
// data, so a matrix tool resolves once and varies Engine and
// Options.Store per cell.
type Job struct {
	// Spec is the normalized description the job was resolved from
	// (zero for a hand-built job); Verdict and Key read it.
	Spec   Spec
	Config machine.Config
	// System, when non-nil, is Config already built (Resolve sets it);
	// the in-process engines search it instead of building another.
	// Distributed workers always rebuild from Config.
	System *machine.System
	// Options carries the search bounds and telemetry hooks. On the
	// distributed engine: BFS only (the level-synchronized rounds ARE
	// breadth-first); MaxStates applies at level granularity — the run
	// stops at the first level boundary at or past the bound rather than
	// mid-level; Observer is unsupported (state storage happens in
	// worker processes — set Occupancy for the built-in profile); traces
	// are limited to the single terminal state, exactly like
	// DisableTraces.
	Options mc.Options
	// Workers is the parallelism: in-process, the pipelined engine's
	// worker count; distributed, the in-process fleet size when Peers is
	// empty (the coordinator calls that many workers in this process,
	// through no socket). Values below 1 pick GOMAXPROCS.
	Workers int
	// Peers, when non-empty, is the base URLs of already-running worker
	// daemons (cmd/vnworkerd), one per worker; Workers is ignored.
	Peers []string
	// Engine picks the scheduler (Run).
	Engine Engine
	// Seeds, when non-empty, replace the reset state as the search's
	// initial states. In-process engines only.
	Seeds [][]byte
	// Occupancy runs the per-VN occupancy profiler over every stored
	// state (in each worker, merged by the coordinator, on the
	// distributed engine; as Options.Observer in-process); the aggregate
	// lands in Result.Stats.Occupancy as an *icn.OccupancyStats.
	Occupancy bool
}

// WorkerLostError reports a worker that stopped responding (or whose
// frontier sends could not be delivered). The coordinator cancels the
// whole fleet and fails the job rather than waiting on a peer that
// will never settle — a lost shard owner means lost states, so no
// partial result is sound.
type WorkerLostError struct {
	Worker int    // worker index the failure was observed at
	URL    string // that worker's base URL, or "in-process"
	Op     string // "init", "expand", "settle", or "frontier-send"
	Err    error
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("dist: worker %d (%s) lost during %s: %v", e.Worker, e.URL, e.Op, e.Err)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

// member is one worker as the coordinator drives it: a *Worker in this
// process, or a worker daemon over HTTP (httpMember).
type member interface {
	init(context.Context, initReq) (report, error)
	expand(context.Context, expandReq) (expandResp, error)
	settle(context.Context, settleReq) (report, error)
	cancel(context.Context, cancelReq) error
}

// peer is a worker as another worker delivers encoded frontier batches
// to it: a *Worker in this process, or httpPeer. A nil error
// acknowledges the batch and hands it back: the receiver has copied what
// it keeps, so the sender may reuse the buffer. After an error the
// transport may still read it.
type peer interface {
	deliver(ctx context.Context, batch []byte) error
}

// Check runs the distributed search and blocks until it finishes. The
// returned Result matches the in-process engines' contract — context
// cancellation yields Outcome Canceled with a nil error — while infra
// failures (spec errors, worker loss, accounting mismatches) yield a
// non-nil error alongside a Canceled result, so callers can tell "the
// user stopped it" from "the fleet broke". With Peers empty the fleet
// is Workers in this process, called directly; otherwise it is the
// worker daemons at Peers, over HTTP. Before Check returns, every
// worker drops the run, however it ended.
func Check(ctx context.Context, job Job) (mc.Result, error) {
	if len(job.Peers) > 0 {
		return check(ctx, job, dialFleet(job.Peers), nil)
	}
	members, peers := make([]member, job.fleetSize()), make([]peer, job.fleetSize())
	for i := range members {
		w := NewWorker()
		members[i], peers[i] = w, w
	}
	return check(ctx, job, members, peers)
}

// check runs job on a fleet: members[i] is worker i, and peers, when
// non-nil, is what every worker delivers batches to (over HTTP each
// worker dials Job.Peers itself).
func check(ctx context.Context, job Job, members []member, peers []peer) (mc.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := job.distRefusal(); err != nil {
		return mc.Result{}, err
	}
	if job.Options.Observer != nil {
		return mc.Result{}, fmt.Errorf("dist: Observer is unsupported (states are stored in worker processes); set Job.Occupancy")
	}
	if job.Config.Protocol == nil {
		return mc.Result{}, fmt.Errorf("dist: no protocol in config")
	}
	// Encoded once for the whole fleet (see machine.Config's JSON form).
	config, err := json.Marshal(job.Config)
	if err != nil {
		return mc.Result{}, fmt.Errorf("dist: encode config: %w", err)
	}

	c := &coord{
		job: job, opts: job.Options, start: start,
		members: members, peers: peers, n: len(members),
		urls:        make([]string, len(members)),
		runID:       newRunID(),
		latest:      make([]mc.Snapshot, len(members)),
		workerLanes: make([]*trace.Lane, len(members)),
	}
	tc, _ := trace.TraceContextFrom(ctx)
	c.lane = c.opts.Trace.Lane(tc.LanePrefix() + "dist coordinator")
	for i := range c.members {
		c.urls[i] = "in-process"
		c.workerLanes[i] = c.opts.Trace.Lane(tc.LanePrefix() + fmt.Sprintf("dist worker %d", i))
	}
	copy(c.urls, job.Peers)
	res, err := c.run(ctx, config)
	// However the run ended, no worker keeps it.
	c.cancelAll()
	res.Duration = time.Since(start)
	return res, err
}

func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "dist-run"
	}
	return hex.EncodeToString(b[:])
}

type coord struct {
	job     Job
	opts    mc.Options
	start   time.Time
	members []member
	peers   []peer   // the fleet's delivery targets in process; nil over HTTP
	urls    []string // WorkerLostError.URL by worker
	n       int
	runID   string

	latest      []mc.Snapshot // each worker's most recent cumulative snapshot
	lane        *trace.Lane
	workerLanes []*trace.Lane
}

// each calls f on every worker at once and returns the answers in
// worker order, or the lowest-indexed failure as a *WorkerLostError. It
// returns as soon as ctx ends, without waiting for the calls: an
// in-process expand blocked in a delivery notices ctx, or the cancel
// that follows, only once the delivery returns, and its late answer
// lands in a buffer nobody reads.
func each[T any](ctx context.Context, c *coord, op string, f func(ctx context.Context, i int, m member) (T, error)) ([]T, error) {
	type answer struct {
		i   int
		out T
		err error
	}
	answers := make(chan answer, c.n)
	for i, m := range c.members {
		go func() {
			sp := c.workerLanes[i].Start(op)
			out, err := f(ctx, i, m)
			sp.End()
			answers <- answer{i, out, err}
		}()
	}
	outs, errs := make([]T, c.n), make([]error, c.n)
	for range c.n {
		select {
		case a := <-answers:
			outs[a.i], errs[a.i] = a.out, a.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, &WorkerLostError{Worker: i, URL: c.urls[i], Op: op, Err: err}
		}
	}
	return outs, nil
}

// cancelAll best-effort tears the fleet down, once per run whatever its
// outcome, so that no worker keeps a run's partition past it. It runs on
// its own deadline, not ctx, which may already be dead.
func (c *coord) cancelAll() {
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	each(cctx, c, "cancel", func(ctx context.Context, _ int, m member) (struct{}, error) {
		return struct{}{}, m.cancel(ctx, cancelReq{RunID: c.runID})
	})
}

// snapshot merges the workers' latest snapshots over the coordinator's
// clock and stamps the search's identity: a BFS of the job's store.
func (c *coord) snapshot(final bool) mc.Snapshot {
	s := mc.MergeSnapshots(c.latest, time.Since(c.start).Seconds())
	s.Strategy, s.Store, s.Final = mc.BFS.String(), c.opts.Store.String(), final
	return s
}

// finish assembles the final Result from the latest settled snapshots.
func (c *coord) finish(outcome mc.Outcome) mc.Result {
	res := mc.Result{Outcome: outcome}
	snap := c.snapshot(true)
	res.States = snap.States
	res.Rules = int(snap.Expansions)
	res.MaxDepth = snap.MaxDepth
	res.Stats = snap
	c.lane.InstantArg("outcome/"+outcome.Tag(), "states", int64(res.States))
	if c.opts.Progress != nil {
		c.opts.Progress(snap)
	}
	return res
}

// fail ends a run that cannot go on. The end of ctx is Outcome Canceled
// with a nil error (the user stopped it); a worker's capacity stop is
// Outcome Capacity; anything else is Canceled with the error, so no
// partial result passes for a sound one.
func (c *coord) fail(ctx context.Context, err error) (mc.Result, error) {
	outcome, msg := mc.Canceled, err.Error()
	var ce *callError
	switch {
	case ctx.Err() != nil:
		msg, err = ctx.Err().Error(), nil
	case errors.As(err, &ce) && ce.kind == capacity:
		outcome, msg, err = mc.Capacity, ce.Error(), nil
	}
	res := c.finish(outcome)
	res.Message = msg
	return res, err
}

func (c *coord) run(ctx context.Context, config json.RawMessage) (mc.Result, error) {
	// Each worker builds the system, settles its owned initial states at
	// depth 0 and reports its first account.
	reports, err := each(ctx, c, "init", func(ctx context.Context, i int, m member) (report, error) {
		return m.init(ctx, initReq{
			RunID: c.runID, Self: i, Workers: c.n,
			Spec: config, Store: c.opts.Store.String(),
			Occupancy: c.job.Occupancy, Peers: c.job.Peers, peers: c.peers,
		})
	})
	if err != nil {
		return c.fail(ctx, err)
	}
	frontier, states := c.record(reports)

	for depth := 0; ; depth++ {
		switch {
		case ctx.Err() != nil:
			return c.fail(ctx, ctx.Err())
		case frontier == 0:
			return c.finish(mc.Complete), nil
		case c.opts.MaxDepth > 0 && depth >= c.opts.MaxDepth,
			c.opts.MaxStates > 0 && states >= c.opts.MaxStates:
			return c.finish(mc.Bounded), nil
		}
		levelSpan := c.lane.Start(fmt.Sprintf("level %d", depth))
		reports, terminal, err := c.level(ctx, depth)
		switch {
		case err != nil:
			levelSpan.End()
			return c.fail(ctx, err)
		case terminal != nil:
			levelSpan.End()
			// A deadlock or violation ends the run; counts in the result
			// are from the last settled level boundary.
			oc := mc.Deadlock
			if terminal.Kind == "violation" {
				oc = mc.Violation
			}
			res := c.finish(oc)
			res.Message = terminal.Message
			if terminal.State != nil {
				res.Trace = [][]byte{terminal.State}
			}
			return res, nil
		}
		frontier, states = c.record(reports)
		levelSpan.EndArg("frontier", int64(frontier))
		if c.opts.Progress != nil {
			c.opts.Progress(c.snapshot(false))
		}
	}
}

// record keeps each worker's latest snapshot and returns the fleet's
// frontier and stored states.
func (c *coord) record(reports []report) (frontier, states int) {
	for i, r := range reports {
		c.latest[i] = r.Stats
		frontier += r.Stats.Frontier
		states += r.Stats.States
	}
	return frontier, states
}

// level runs one round at depth and returns every worker's new account,
// or the terminal state the lowest-indexed worker hit.
func (c *coord) level(ctx context.Context, depth int) ([]report, *terminalReport, error) {
	// Expand: every worker expands its share of the level, shipping
	// non-owned successors. All sends are acknowledged before each
	// answer, so afterwards every candidate is at its owner.
	expands, err := each(ctx, c, "expand", func(ctx context.Context, _ int, m member) (expandResp, error) {
		return m.expand(ctx, expandReq{RunID: c.runID, Depth: depth})
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range expands {
		if r.Terminal != nil {
			return nil, r.Terminal, nil
		}
	}
	// In-flight accounting: worker i must have received exactly the
	// sum of what every peer reported sending it.
	expect := make([]int, c.n)
	for i, r := range expands {
		if r.SendFailed != "" {
			return nil, nil, &WorkerLostError{Worker: i, URL: c.urls[i], Op: "frontier-send", Err: errors.New(r.SendFailed)}
		}
		if len(r.Sent) != c.n {
			return nil, nil, fmt.Errorf("dist: worker %d reported %d send counters for a %d-worker fleet", i, len(r.Sent), c.n)
		}
		for j, sent := range r.Sent {
			expect[j] += sent
		}
	}

	// Settle: each worker dedups its candidates into depth+1 and
	// reports its new cumulative account.
	reports, err := each(ctx, c, "settle", func(ctx context.Context, i int, m member) (report, error) {
		return m.settle(ctx, settleReq{RunID: c.runID, Depth: depth, Expect: expect[i]})
	})
	return reports, nil, err
}
