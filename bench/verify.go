package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minvn/internal/dist"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// searchSpec describes one model-checking search of a verify workload.
type searchSpec struct {
	protocol            string
	caches, dirs, addrs int
	perMessageVN        bool // one VN per message instead of the minimal assignment
	dfs                 bool
	seedOwned           bool // start from the Fig. 3 ownership prefix, as vnverify -seed-owned
	traces              bool
	maxStates           int
	store               mc.Store
}

// built is a search ready to run: everything below is set-up.
type built struct {
	spec  searchSpec
	cfg   machine.Config
	sys   *machine.System
	model mc.Model
	opts  mc.Options
}

func (s searchSpec) build() (*built, error) {
	p, err := protocols.Load(s.protocol)
	if err != nil {
		return nil, err
	}
	b := &built{spec: s}
	b.cfg = machine.Config{Protocol: p, Caches: s.caches, Dirs: s.dirs, Addrs: s.addrs}
	if s.perMessageVN {
		b.cfg.VN, b.cfg.NumVNs = machine.PerMessageVN(p)
	} else {
		a := vnassign.Assign(p)
		if a.Class != vnassign.Class3 {
			return nil, fmt.Errorf("%s is %s: no minimal assignment to verify under", p.Name, a.Class)
		}
		b.cfg.VN, b.cfg.NumVNs = a.VN, a.NumVNs
	}
	if b.sys, err = machine.New(b.cfg); err != nil {
		return nil, err
	}
	b.model = b.sys
	if s.seedOwned {
		seed, err := ownedSeed(b.sys)
		if err != nil {
			return nil, fmt.Errorf("seed %s: %w", p.Name, err)
		}
		b.model = &machine.Seeded{System: b.sys, Seeds: [][]byte{seed}}
	}
	b.opts = mc.Options{MaxStates: s.maxStates, DisableTraces: !s.traces, Store: s.store}
	if s.dfs {
		b.opts.Strategy = mc.DFS
	}
	return b, nil
}

// ownedSeed drives a Primer-vocabulary protocol (GetM/Data) to the
// state where cache i owns address i, the starting point cmd/vnverify
// builds for -seed-owned.
func ownedSeed(sys *machine.System) ([]byte, error) {
	cfg := sys.Config()
	sc := machine.NewScenario(sys)
	for i := 0; i < 2 && i < cfg.Caches && i < cfg.Addrs; i++ {
		home := cfg.Caches + i%cfg.Dirs
		if err := sc.Core(i, i, protocol.Store); err != nil {
			return nil, err
		}
		if err := sc.Handle(home, "GetM", i); err != nil {
			return nil, err
		}
		if err := sc.Handle(i, "Data", i); err != nil {
			return nil, err
		}
	}
	return sc.State(), nil
}

// modelStats is what the decorator sums over one traced repetition.
type modelStats struct {
	succNS, succCalls, succOut atomic.Int64
	canonNS, canonCalls        atomic.Int64
	quiescentNS                atomic.Int64
}

// tracedModel decorates the model handed to an engine: it times and
// counts every call the engine makes into machine, and records one
// call in sampleEvery as a span. It implements the same optional
// interfaces as machine.System, so the engine takes the same paths.
type tracedModel struct {
	inner mc.Model
	sys   *machine.System
	st    *modelStats
	tr    *tracer
}

func (m *tracedModel) Initial() [][]byte            { return m.inner.Initial() }
func (m *tracedModel) Describe(state []byte) string { return m.sys.Describe(state) }

// timed runs fn, adds its duration to ns, and samples it as a span.
func (m *tracedModel) timed(name string, ns, calls *atomic.Int64, fn func()) {
	sampled := calls.Add(1)%sampleEvery == 1
	t0 := time.Now()
	if sampled {
		m.tr.call(name, fn)
	} else {
		fn()
	}
	ns.Add(int64(time.Since(t0)))
}

func (m *tracedModel) Successors(state []byte) (out [][]byte, err error) {
	m.timed("machine.successors", &m.st.succNS, &m.st.succCalls, func() {
		out, err = m.sys.Successors(state)
	})
	m.st.succOut.Add(int64(len(out)))
	return out, err
}

func (m *tracedModel) SuccessorsNamed(state []byte) (out [][]byte, rules []string, err error) {
	m.timed("machine.successors", &m.st.succNS, &m.st.succCalls, func() {
		out, rules, err = m.sys.SuccessorsNamed(state)
	})
	m.st.succOut.Add(int64(len(out)))
	return out, rules, err
}

func (m *tracedModel) Canonicalize(state []byte) (out []byte) {
	m.timed("machine.canonicalize", &m.st.canonNS, &m.st.canonCalls, func() {
		out = m.sys.Canonicalize(state)
	})
	return out
}

func (m *tracedModel) Quiescent(state []byte) (q bool) {
	// Quiescent is asked only of successor-less states, so every call
	// is rare enough to record.
	t0 := time.Now()
	m.tr.call("machine.quiescent", func() { q = m.sys.Quiescent(state) })
	m.st.quiescentNS.Add(int64(time.Since(t0)))
	return q
}

// engineFn runs one built search on some engine.
type engineFn func(b *built, model mc.Model) mc.Result

func buildAll(specs []searchSpec) ([]*built, error) {
	var bs []*built
	for _, s := range specs {
		b, err := s.build()
		if err != nil {
			return nil, err
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// timeSearches is the verdict interval of every verify workload: it
// runs the searches back to back, each inside a span, closes the
// interval, and checks every verdict against expected.json. It returns
// the results, the stored states and the time spent inside the calls.
func timeSearches(e *childEnv, bs []*built, span string, search func(*built) (mc.Result, error)) ([]mc.Result, int64, int64, error) {
	var results []mc.Result
	var opMs []float64
	var units, callNS int64
	verdict := e.tr.span("verdict")
	for _, b := range bs {
		sp := e.tr.span(span)
		t0 := time.Now()
		res, err := search(b)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: %w", b.spec.protocol, err)
		}
		callNS += int64(d)
		opMs = append(opMs, float64(d)/1e6)
		units += int64(res.States)
		results = append(results, res)
	}
	verdict.End()
	e.end(units, opMs)
	for i, b := range bs {
		checkVerdict(e, i, b, results[i])
	}
	return results, units, callNS, nil
}

// runSearches is the common body of the in-process verify workloads:
// build every search (set-up), then time them on the given engine. In
// the traced repetition the engine gets the decorated model.
func runSearches(e *childEnv, specs []searchSpec, lanes int, engine engineFn) error {
	bs, err := buildAll(specs)
	if err != nil {
		return err
	}
	if err := e.begin(); err != nil {
		return err
	}
	var st modelStats
	results, units, engineNS, err := timeSearches(e, bs, "mc.check", func(b *built) (mc.Result, error) {
		model := b.model
		if e.tr != nil {
			model = &tracedModel{inner: b.model, sys: b.sys, st: &st, tr: e.tr}
		}
		return engine(b, model), nil
	})
	if err != nil || e.tr == nil {
		return err
	}
	children := st.succNS.Load() + st.canonNS.Load() + st.quiescentNS.Load()
	e.layer("machine.successors_ns", float64(st.succNS.Load()))
	e.layer("machine.successors_calls", float64(st.succCalls.Load()))
	e.layer("machine.successors_out", float64(st.succOut.Load()))
	e.layer("machine.canonicalize_ns", float64(st.canonNS.Load()))
	e.layer("machine.canonicalize_calls", float64(st.canonCalls.Load()))
	e.layer("machine.quiescent_ns", float64(st.quiescentNS.Load()))
	// The engine's self time is its span minus the part its children
	// cover; with `lanes` goroutines calling the model at once the
	// children cover about their summed time over lanes.
	e.layer("mc.self_ns", max(0, float64(engineNS)-float64(children)/float64(lanes)))
	if c := st.canonCalls.Load(); c > 0 {
		e.layer("mc.dedup_hit_share", 1-float64(units)/float64(c))
	}
	engineStats(e, results)
	return nil
}

// engineStats sums the engines' own public telemetry over the searches.
func engineStats(e *childEnv, results []mc.Result) {
	var set, arena, lock, queue, stalls, unverified int64
	for _, r := range results {
		h := r.Stats.Health
		if h == nil {
			continue
		}
		set += h.SetBytes
		arena += h.ArenaBytes
		lock += h.LockWaitNS
		queue += h.QueueWaitNS()
		stalls += h.ReorderStalls
		unverified += h.UnverifiedHits
	}
	e.layer("mc.set_bytes", float64(set))
	e.layer("mc.arena_bytes", float64(arena))
	e.layer("mc.lock_wait_ns", float64(lock))
	e.layer("mc.queue_wait_ns", float64(queue))
	e.layer("mc.reorder_stalls", float64(stalls))
	e.layer("mc.unverified_hits", float64(unverified))
}

// checkVerdict compares one search result with its pinned answer and,
// for a deadlock, replays the counterexample.
func checkVerdict(e *childEnv, i int, b *built, res mc.Result) {
	what := fmt.Sprintf("%s[%d] %s", e.wl.name, i, b.spec.protocol)
	e.res.Detail[fmt.Sprintf("search_%d", i)] = map[string]any{
		"protocol": b.spec.protocol, "outcome": res.Outcome.Tag(),
		"states": res.States, "max_depth": res.MaxDepth,
	}
	problem := ""
	switch res.Outcome {
	case mc.Complete, mc.Bounded, mc.Deadlock:
	default:
		problem = fmt.Sprintf("%s: outcome %s: %s", what, res.Outcome.Tag(), res.Message)
	}
	if want := e.exp.search(e.wl.name, i, e.smoke); want != nil && problem == "" {
		switch {
		case want.Protocol != b.spec.protocol:
			problem = fmt.Sprintf("%s: expected.json pins %s here", what, want.Protocol)
		case want.Outcome != res.Outcome.Tag() || want.States != res.States || want.MaxDepth != res.MaxDepth:
			problem = fmt.Sprintf("%s: got %s/%d states/depth %d, want %s/%d/%d", what,
				res.Outcome.Tag(), res.States, res.MaxDepth, want.Outcome, want.States, want.MaxDepth)
		}
	}
	if problem == "" && res.Outcome == mc.Deadlock && b.spec.traces {
		if err := replayTrace(b, res.Trace); err != nil {
			problem = fmt.Sprintf("%s: counterexample does not replay: %v", what, err)
		}
	}
	e.check(problem)
}

// replayTrace re-validates a deadlock counterexample step by step
// through machine.Successors: it must start at an initial state, every
// step must be a real transition, and the last state must be stuck
// without being quiescent.
func replayTrace(b *built, tr [][]byte) error {
	if len(tr) == 0 {
		return fmt.Errorf("empty trace")
	}
	// Engines store successors as generated, so steps match byte for
	// byte; the canonical comparison is the fallback, not the rule.
	canon := b.sys.Canonicalize
	among := func(cands [][]byte, want []byte) bool {
		for _, c := range cands {
			if bytes.Equal(c, want) {
				return true
			}
		}
		cw := canon(want)
		for _, c := range cands {
			if bytes.Equal(canon(c), cw) {
				return true
			}
		}
		return false
	}
	if !among(b.model.Initial(), tr[0]) {
		return fmt.Errorf("trace does not start at an initial state")
	}
	for i := 0; i+1 < len(tr); i++ {
		succs, err := b.sys.Successors(tr[i])
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if !among(succs, tr[i+1]) {
			return fmt.Errorf("step %d is not a transition of the model", i)
		}
	}
	last := tr[len(tr)-1]
	succs, err := b.sys.Successors(last)
	switch {
	case err != nil:
		return fmt.Errorf("last state: %w", err)
	case len(succs) != 0:
		return fmt.Errorf("last state has %d successors", len(succs))
	case b.sys.Quiescent(last):
		return fmt.Errorf("last state is quiescent")
	}
	return nil
}

func paperConfig(protocol string, maxStates int) searchSpec {
	return searchSpec{protocol: protocol, caches: 3, dirs: 2, addrs: 2, maxStates: maxStates}
}

func runPaperBoundedSeq(e *childEnv) error {
	spec := paperConfig("MSI_nonblocking_cache", e.sz.boundedStates)
	return runSearches(e, []searchSpec{spec}, 1, func(b *built, m mc.Model) mc.Result {
		return mc.Check(m, b.opts)
	})
}

// engineWorkers is the parallel engines' worker count (and the dist
// fleet size): the load shape pins 2 whatever the host has.
const engineWorkers = 2

func runPaperBoundedPipeline(e *childEnv) error {
	spec := paperConfig("CHI", e.sz.boundedStates)
	spec.store = mc.StoreCompact
	return runSearches(e, []searchSpec{spec}, engineWorkers, func(b *built, m mc.Model) mc.Result {
		return mc.CheckPipelined(m, b.opts, engineWorkers, 0)
	})
}

// batchProtocols are the four complete_batch searches, in run order.
var batchProtocols = []string{"CHI", "TileLink", "CXL_cache", "MSI_completion"}

func batchSpecs(e *childEnv) []searchSpec {
	var specs []searchSpec
	for _, p := range batchProtocols {
		specs = append(specs, searchSpec{protocol: p, caches: 3, dirs: 1, addrs: 1, maxStates: e.sz.batchMaxStates})
	}
	return specs
}

func runCompleteBatchSeq(e *childEnv) error {
	return runSearches(e, batchSpecs(e), 1, func(b *built, m mc.Model) mc.Result {
		return mc.Check(m, b.opts)
	})
}

func runDeadlockHuntDFS(e *childEnv) error {
	spec := searchSpec{protocol: "MSI_blocking_cache", caches: 3, dirs: 2, addrs: 2,
		perMessageVN: true, dfs: true, seedOwned: true, traces: true, maxStates: e.sz.dfsMaxStates}
	if e.smoke {
		// The paper-size hunt needs 301,611 states; the smoke run hunts
		// the Class 1 protocol instead, which wedges within 1,500.
		spec.protocol, spec.caches, spec.dirs, spec.addrs, spec.seedOwned = "MSI_class1", 2, 1, 1, false
	}
	return runSearches(e, []searchSpec{spec}, 1, func(b *built, m mc.Model) mc.Result {
		return mc.Check(m, b.opts)
	})
}

// rpcStats is what the timing middleware sums around the dist
// workers' handlers.
type rpcStats struct {
	mu            sync.Mutex
	ns            map[string]int64 // per endpoint: init, expand, frontier, settle, cancel
	calls         int64
	expands       int64
	frontierBytes int64
}

// timeRPC wraps a worker handler in timing middleware.
func timeRPC(h http.Handler, st *rpcStats, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		t0 := time.Now()
		tr.call("dist.rpc_"+op, func() { h.ServeHTTP(w, r) })
		d := int64(time.Since(t0))
		st.mu.Lock()
		st.ns[op] += d
		st.calls++
		if op == "expand" {
			st.expands++
		}
		if op == "frontier" && r.ContentLength > 0 {
			st.frontierBytes += r.ContentLength
		}
		st.mu.Unlock()
	})
}

func runCompleteBatchDist(e *childEnv) error {
	bs, err := buildAll(batchSpecs(e))
	if err != nil {
		return err
	}
	// Two loopback workers behind real HTTP servers, as dist spawns them
	// itself; started here so the traced repetition can wrap their
	// handlers, and reused by all four searches.
	st := &rpcStats{ns: map[string]int64{}}
	var peers []string
	for i := 0; i < engineWorkers; i++ {
		h := dist.NewWorker().Handler()
		if e.tr != nil {
			h = timeRPC(h, st, e.tr)
		}
		srv := httptest.NewServer(h)
		defer srv.Close()
		peers = append(peers, srv.URL)
	}
	if err := e.begin(); err != nil {
		return err
	}
	results, _, wallNS, err := timeSearches(e, bs, "dist.check", func(b *built) (mc.Result, error) {
		return dist.Check(context.Background(), dist.Job{Config: b.cfg, Options: b.opts, Peers: peers})
	})
	if err != nil || e.tr == nil {
		return err
	}
	// A frontier delivery runs while its sender's expand handler waits
	// for the acknowledgement, so it is not added to busy twice.
	var busy int64
	for _, op := range []string{"init", "expand", "frontier", "settle"} {
		e.layer("dist.rpc_"+op+"_ns", float64(st.ns[op]))
		if op != "frontier" {
			busy += st.ns[op]
		}
	}
	e.layer("dist.rpc_calls", float64(st.calls))
	e.layer("dist.rounds", float64(st.expands)/engineWorkers)
	e.layer("dist.frontier_bytes", float64(st.frontierBytes))
	e.layer("dist.coord_wait_share", 1-float64(busy)/(engineWorkers*float64(wallNS)))
	engineStats(e, results)
	return nil
}
