package dist

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
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
	// (zero for a hand-built job); Params and Key read it.
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
	// worker count; distributed, the loopback fleet size when Peers is
	// empty (the coordinator spawns that many workers on 127.0.0.1).
	// Values below 1 pick GOMAXPROCS.
	Workers int
	// Peers, when non-empty, is the base URLs of already-running worker
	// daemons (cmd/vnworkerd), one per worker; Workers is ignored.
	Peers []string
	// Engine picks the scheduler (Run); Shards is the pipelined engine's
	// visited-set shard count (0 = default).
	Engine mc.Engine
	Shards int
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
	URL    string // that worker's base URL
	Op     string // "init", "expand", "settle", or "frontier-send"
	Err    error
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("dist: worker %d (%s) lost during %s: %v", e.Worker, e.URL, e.Op, e.Err)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

// statusError is a non-200 control response.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string { return fmt.Sprintf("%d: %s", e.Code, e.Body) }

// Check runs the distributed search and blocks until it finishes. The
// returned Result matches the in-process engines' contract — context
// cancellation yields Outcome Canceled with a nil error — while infra
// failures (spec errors, worker loss, accounting mismatches) yield a
// non-nil error alongside a Canceled result, so callers can tell "the
// user stopped it" from "the fleet broke".
func Check(ctx context.Context, job Job) (mc.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	opts := job.Options
	if err := job.distRefusal(); err != nil {
		return mc.Result{}, err
	}
	if opts.Observer != nil {
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

	peers := job.Peers
	if len(peers) == 0 {
		loop, err := spawnLoopback(job.fleetSize())
		if err != nil {
			return mc.Result{}, err
		}
		defer loop.close()
		peers = loop.urls
	}

	c := &coord{
		job: job, opts: opts, start: start, peers: peers, n: len(peers),
		runID:  newRunID(),
		client: &http.Client{},
		latest: make([]statsBlock, len(peers)),
	}
	tc, _ := trace.TraceContextFrom(ctx)
	c.lane = opts.Trace.Lane(tc.LanePrefix() + "dist coordinator")
	c.workerLanes = make([]*trace.Lane, c.n)
	for i := range c.workerLanes {
		c.workerLanes[i] = opts.Trace.Lane(tc.LanePrefix() + fmt.Sprintf("dist worker %d", i))
	}
	res, err := c.run(ctx, config)
	res.Duration = time.Since(start)
	return res, err
}

// loopbackFleet is a set of in-process workers on 127.0.0.1, the
// default deployment: real HTTP servers exercising the full wire
// path, without any daemon to operate.
type loopbackFleet struct {
	urls []string
	srvs []*http.Server
}

func spawnLoopback(n int) (*loopbackFleet, error) {
	f := &loopbackFleet{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dist: spawn loopback worker %d: %w", i, err)
		}
		srv := &http.Server{Handler: NewWorker().Handler()}
		go srv.Serve(ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
		f.srvs = append(f.srvs, srv)
	}
	return f, nil
}

func (f *loopbackFleet) close() {
	for _, s := range f.srvs {
		s.Close()
	}
}

func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "dist-run"
	}
	return hex.EncodeToString(b[:])
}

type coord struct {
	job   Job
	opts  mc.Options
	start time.Time
	peers []string
	n     int
	runID string

	client      *http.Client
	latest      []statsBlock // each worker's most recent cumulative block
	lane        *trace.Lane
	workerLanes []*trace.Lane
}

func (c *coord) postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// each runs op against every worker concurrently and returns the
// lowest-indexed failure, wrapped as a WorkerLostError.
func (c *coord) each(ctx context.Context, op string, f func(ctx context.Context, i int) error) error {
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for i := 0; i < c.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(ctx, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return &WorkerLostError{Worker: i, URL: c.peers[i], Op: op, Err: err}
		}
	}
	return nil
}

// cancelAll best-effort tears the fleet down. It runs on its own
// deadline, not ctx — the usual reason to be here is that ctx is
// already dead.
func (c *coord) cancelAll() {
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < c.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.postJSON(cctx, c.peers[i]+"/dist/v1/cancel", cancelReq{RunID: c.runID}, nil)
		}(i)
	}
	wg.Wait()
}

func (c *coord) snapshot(frontier int, final bool) mc.Snapshot {
	return mergeBlocks(c.latest, time.Since(c.start).Seconds(), c.opts, frontier, final)
}

// finish assembles the final Result from the latest settled blocks.
func (c *coord) finish(outcome mc.Outcome, frontier int) mc.Result {
	res := mc.Result{Outcome: outcome}
	snap := c.snapshot(frontier, true)
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

func (c *coord) run(ctx context.Context, config json.RawMessage) (mc.Result, error) {
	// Initialize the fleet: each worker builds the system, settles its
	// owned initial states at depth 0, and reports its first block.
	initErr := c.each(ctx, "init", func(ctx context.Context, i int) error {
		sp := c.workerLanes[i].Start("init")
		defer sp.End()
		var out initResp
		err := c.postJSON(ctx, c.peers[i]+"/dist/v1/init", initReq{
			RunID: c.runID, Self: i, Workers: c.n,
			Spec: config, Store: c.opts.Store.String(),
			Occupancy: c.job.Occupancy, Peers: c.peers,
		}, &out)
		if err != nil {
			return err
		}
		c.latest[i] = out.Stats
		return nil
	})
	if initErr != nil {
		c.cancelAll()
		if ctx.Err() != nil {
			res := c.finish(mc.Canceled, 0)
			res.Message = ctx.Err().Error()
			return res, nil
		}
		res := c.finish(mc.Canceled, 0)
		res.Message = initErr.Error()
		return res, initErr
	}

	frontier := 0
	for i := range c.latest {
		frontier += c.latest[i].Frontier
	}

	for depth := 0; ; depth++ {
		if err := ctx.Err(); err != nil {
			c.cancelAll()
			res := c.finish(mc.Canceled, frontier)
			res.Message = err.Error()
			return res, nil
		}
		if frontier == 0 {
			return c.finish(mc.Complete, 0), nil
		}
		if c.opts.MaxDepth > 0 && depth >= c.opts.MaxDepth {
			c.cancelAll()
			return c.finish(mc.Bounded, frontier), nil
		}
		if states := c.totalStates(); c.opts.MaxStates > 0 && states >= c.opts.MaxStates {
			c.cancelAll()
			return c.finish(mc.Bounded, frontier), nil
		}

		levelSpan := c.lane.Start(fmt.Sprintf("level %d", depth))

		// Expand: every worker expands its share of the level, shipping
		// non-owned successors. All sends are acknowledged before each
		// response, so afterwards every candidate is at its owner.
		expandResps := make([]expandResp, c.n)
		expandErr := c.each(ctx, "expand", func(ctx context.Context, i int) error {
			sp := c.workerLanes[i].Start("expand")
			defer sp.End()
			return c.postJSON(ctx, c.peers[i]+"/dist/v1/expand",
				expandReq{RunID: c.runID, Depth: depth}, &expandResps[i])
		})
		if expandErr != nil {
			levelSpan.End()
			c.cancelAll()
			res := c.finish(mc.Canceled, frontier)
			if err := ctx.Err(); err != nil {
				res.Message = err.Error()
				return res, nil
			}
			res.Message = expandErr.Error()
			return res, expandErr
		}

		// A terminal (deadlock or violation) ends the run. The
		// lowest worker index wins for determinism; counts in the result
		// are from the last settled level boundary.
		for i := 0; i < c.n; i++ {
			if t := expandResps[i].Terminal; t != nil {
				levelSpan.EndArg("terminal", int64(i))
				c.cancelAll()
				oc := mc.Deadlock
				if t.Kind == "violation" {
					oc = mc.Violation
				}
				res := c.finish(oc, frontier)
				res.Message = t.Message
				if t.State != nil {
					res.Trace = [][]byte{t.State}
				}
				return res, nil
			}
		}
		for i := 0; i < c.n; i++ {
			if msg := expandResps[i].SendFailed; msg != "" {
				levelSpan.End()
				c.cancelAll()
				lost := &WorkerLostError{
					Worker: i, URL: c.peers[i], Op: "frontier-send",
					Err: fmt.Errorf("%s", msg),
				}
				res := c.finish(mc.Canceled, frontier)
				res.Message = lost.Error()
				return res, lost
			}
		}

		// In-flight accounting: worker i must have received exactly the
		// sum of what every peer reported sending it.
		expect := make([]int, c.n)
		for i := 0; i < c.n; i++ {
			if len(expandResps[i].Sent) != c.n {
				levelSpan.End()
				c.cancelAll()
				err := fmt.Errorf("dist: worker %d reported %d send counters for a %d-worker fleet",
					i, len(expandResps[i].Sent), c.n)
				res := c.finish(mc.Canceled, frontier)
				res.Message = err.Error()
				return res, err
			}
			for j, sent := range expandResps[i].Sent {
				expect[j] += sent
			}
		}

		// Settle: each worker dedups its candidates into depth+1 and
		// reports its new cumulative block.
		settleResps := make([]settleResp, c.n)
		settleErr := c.each(ctx, "settle", func(ctx context.Context, i int) error {
			sp := c.workerLanes[i].Start("settle")
			defer sp.End()
			return c.postJSON(ctx, c.peers[i]+"/dist/v1/settle",
				settleReq{RunID: c.runID, Depth: depth, Expect: expect[i]}, &settleResps[i])
		})
		if settleErr != nil {
			levelSpan.End()
			c.cancelAll()
			res := c.finish(mc.Canceled, frontier)
			if err := ctx.Err(); err != nil {
				res.Message = err.Error()
				return res, nil
			}
			var st *statusError
			if errors.As(settleErr, &st) && st.Code == http.StatusInsufficientStorage {
				// A visited-set capacity limit, not a lost worker.
				capRes := c.finish(mc.Capacity, frontier)
				capRes.Message = st.Body
				return capRes, nil
			}
			res.Message = settleErr.Error()
			return res, settleErr
		}
		frontier = 0
		for i := 0; i < c.n; i++ {
			c.latest[i] = settleResps[i].Stats
			frontier += settleResps[i].Frontier
		}
		levelSpan.EndArg("frontier", int64(frontier))
		if c.opts.Progress != nil {
			c.opts.Progress(c.snapshot(frontier, false))
		}
	}
}

func (c *coord) totalStates() int {
	t := 0
	for i := range c.latest {
		t += c.latest[i].States
	}
	return t
}
