// Package serve is the analysis-as-a-service layer: an HTTP/JSON API
// over everything the one-shot CLIs can do — static relation analysis
// and min-VN assignment (POST /v1/analyze) and bounded model checking
// on any engine (POST /v1/verify) — run by a bounded worker pool with
// admission control (503 + Retry-After under backpressure),
// singleflight deduplication of concurrent identical requests, and a
// content-addressed LRU result cache.
//
// Verification is deterministic: the same protocol and options always
// produce bit-identical results (the engine-parity suite pins this
// across the engines), so results are cached under the SHA-256
// of the canonical protocol encoding plus the normalized
// result-affecting options, and one run serves every identical
// request after it. Jobs carry per-job deadlines enforced through the
// model checker's context plumbing (mc.CheckEngineCtx / Outcome
// Canceled), progress is streamed over SSE from the existing
// mc.Snapshot machinery, and SIGTERM drains gracefully: admitted jobs
// complete, new ones are refused.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"minvn/internal/analysis"
	"minvn/internal/dist"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/trace"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/relation"
	"minvn/internal/vnassign"
)

// AnalyzeRequest asks for the static relations, classification, and
// minimum-VN assignment of a protocol. Exactly one of Protocol (a
// built-in name) or ProtocolSpec (a protocol.Encode document) must be
// set.
type AnalyzeRequest struct {
	Protocol     string          `json:"protocol,omitempty"`
	ProtocolSpec json.RawMessage `json:"protocol_spec,omitempty"`
}

// VerifyOptions configures a bounded model-checking job. The zero
// value means the paper's experiment configuration (3 caches, 2
// directories, 2 addresses, minimal VN assignment, BFS) under the
// server's state bound. Engine, Workers, and Shards are performance
// knobs: the engine-parity contract guarantees they cannot change the
// result, so they are excluded from the cache key — with one
// exception: engine "dist" applies max_states at level granularity,
// so its bounded results can legitimately differ from the in-process
// engines' and it gets its own cache entries. Store is NOT such
// a knob: a hash-compacted visited set can (with ~n²/2⁶⁵ probability)
// conflate distinct states and change the outcome class, so it is
// part of the cache key — an exact result is never served for a
// compact request or vice versa.
type VerifyOptions struct {
	VN        string `json:"vn,omitempty"` // minimal | permsg | uniform | type
	Caches    int    `json:"caches,omitempty"`
	Dirs      int    `json:"dirs,omitempty"`
	Addrs     int    `json:"addrs,omitempty"`
	Strategy  string `json:"strategy,omitempty"` // bfs | dfs
	MaxStates int    `json:"max_states,omitempty"`
	MaxDepth  int    `json:"max_depth,omitempty"`
	GlobalCap int    `json:"global_cap,omitempty"`
	LocalCap  int    `json:"local_cap,omitempty"`
	// P2P, when non-nil, selects point-to-point ordered mode with the
	// given mapping variant (0-3).
	P2P           *int   `json:"p2p,omitempty"`
	NoReplacement bool   `json:"no_replacement,omitempty"`
	NoSymmetry    bool   `json:"no_symmetry,omitempty"`
	Invariants    bool   `json:"invariants,omitempty"`
	Engine        string `json:"engine,omitempty"`
	Store         string `json:"store,omitempty"` // exact | compact
	Workers       int    `json:"workers,omitempty"`
	Shards        int    `json:"shards,omitempty"`
}

// VerifyRequest asks for a bounded model check. DeadlineMillis, when
// positive, overrides the server's default per-job deadline (clamped
// to the server maximum); it does not affect the cache key.
type VerifyRequest struct {
	Protocol       string          `json:"protocol,omitempty"`
	ProtocolSpec   json.RawMessage `json:"protocol_spec,omitempty"`
	Options        VerifyOptions   `json:"options"`
	DeadlineMillis int64           `json:"deadline_ms,omitempty"`
}

// AnalyzeResult is the analyze job's result document. It is fully
// deterministic (no wall-clock fields), so cached and fresh runs are
// byte-identical by construction as well as by caching.
type AnalyzeResult struct {
	Protocol    string         `json:"protocol"`
	Class       string         `json:"class"`
	NumVNs      int            `json:"num_vns,omitempty"`
	VN          map[string]int `json:"vn,omitempty"`
	VNGroups    [][]string     `json:"vn_groups,omitempty"`
	WaitsCycle  []string       `json:"waits_cycle,omitempty"`
	Stallable   []string       `json:"stallable,omitempty"`
	Causes      [][2]string    `json:"causes"`
	Stalls      [][2]string    `json:"stalls"`
	Waits       [][2]string    `json:"waits"`
	Refinements int            `json:"refinements"`
	Exact       bool           `json:"exact"`
}

// VerifyResult is the verify job's result document: the assignment
// the check ran under plus the checker's verdict and final telemetry
// snapshot. Duration and Stats carry the producing run's timings —
// cache hits replay them verbatim, which is the point of
// content-addressed caching.
type VerifyResult struct {
	Protocol        string         `json:"protocol"`
	VNMode          string         `json:"vn_mode"`
	NumVNs          int            `json:"num_vns"`
	VN              map[string]int `json:"vn"`
	Caches          int            `json:"caches"`
	Dirs            int            `json:"dirs"`
	Addrs           int            `json:"addrs"`
	Engine          string         `json:"engine"`
	Store           string         `json:"store"`
	Outcome         string         `json:"outcome"`
	States          int            `json:"states"`
	Rules           int            `json:"rules"`
	MaxDepth        int            `json:"max_depth"`
	Message         string         `json:"message,omitempty"`
	DurationSeconds float64        `json:"duration_seconds"`
	Stats           mc.Snapshot    `json:"stats"`
}

// RequestError is a client-side fault (unknown protocol, invalid
// options, oversized spec): the HTTP layer maps it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func reqErrf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// resolveProtocol loads the request's protocol from its built-in name
// or inline spec and returns it with its canonical encoding (the
// content-address half of the cache key). Inline specs go through the
// hardened protocol.Decode, so oversized documents are rejected here
// with a *protocol.LimitError wrapped as a RequestError.
func resolveProtocol(name string, spec json.RawMessage) (*protocol.Protocol, []byte, error) {
	switch {
	case name != "" && len(spec) > 0:
		return nil, nil, reqErrf("give either protocol or protocol_spec, not both")
	case name != "":
		p, err := protocols.Load(name)
		if err != nil {
			return nil, nil, &RequestError{msg: err.Error()}
		}
		canon, err := protocol.Encode(p)
		if err != nil {
			return nil, nil, fmt.Errorf("encode %s: %w", name, err)
		}
		return p, canon, nil
	case len(spec) > 0:
		p, err := protocol.Decode(spec)
		if err != nil {
			return nil, nil, &RequestError{msg: err.Error()}
		}
		// Re-encode rather than hashing the user's bytes: Decode→Encode
		// is a fixpoint (pinned by FuzzProtocolRoundTrip), so all
		// formattings of the same protocol share one cache entry.
		canon, err := protocol.Encode(p)
		if err != nil {
			return nil, nil, fmt.Errorf("encode spec: %w", err)
		}
		return p, canon, nil
	default:
		return nil, nil, reqErrf("protocol or protocol_spec is required")
	}
}

// normVerifyOptions is the result-affecting slice of VerifyOptions
// with every default applied — the options half of the verify cache
// key. Field order is fixed; json.Marshal of this struct is
// deterministic.
type normVerifyOptions struct {
	VN        string `json:"vn"`
	Caches    int    `json:"caches"`
	Dirs      int    `json:"dirs"`
	Addrs     int    `json:"addrs"`
	Strategy  string `json:"strategy"`
	MaxStates int    `json:"max_states"`
	MaxDepth  int    `json:"max_depth"`
	GlobalCap int    `json:"global_cap"`
	LocalCap  int    `json:"local_cap"`
	P2P       int    `json:"p2p"` // -1 = unordered
	NoRepl    bool   `json:"no_repl"`
	NoSym     bool   `json:"no_sym"`
	Invar     bool   `json:"invariants"`
	// Store is result-affecting (see VerifyOptions) and therefore keyed.
	Store string `json:"store"`
	// Engine is "" for every in-process engine (the parity suite pins
	// them bit-identical) and "dist" for the distributed engine, whose
	// level-granular max_states makes bounded results its own (see
	// VerifyOptions).
	Engine string `json:"engine"`
}

func normalizeVerifyOptions(o VerifyOptions, maxStatesCap int) (normVerifyOptions, error) {
	n := normVerifyOptions{
		VN: o.VN, Caches: o.Caches, Dirs: o.Dirs, Addrs: o.Addrs,
		Strategy: o.Strategy, MaxStates: o.MaxStates, MaxDepth: o.MaxDepth,
		GlobalCap: o.GlobalCap, LocalCap: o.LocalCap, P2P: -1,
		NoRepl: o.NoReplacement, NoSym: o.NoSymmetry, Invar: o.Invariants,
	}
	if n.VN == "" {
		n.VN = "minimal"
	}
	switch n.VN {
	case "minimal", "permsg", "uniform", "type":
	default:
		return n, reqErrf("unknown vn mode %q (want minimal, permsg, uniform, or type)", n.VN)
	}
	if n.Caches == 0 {
		n.Caches = 3
	}
	if n.Dirs == 0 {
		n.Dirs = 2
	}
	if n.Addrs == 0 {
		n.Addrs = 2
	}
	switch n.Strategy {
	case "":
		n.Strategy = "bfs"
	case "bfs", "dfs":
	default:
		return n, reqErrf("unknown strategy %q (want bfs or dfs)", n.Strategy)
	}
	// The server bounds every job: unbounded (0) or over-cap requests
	// are clamped, and the clamp happens before key computation so
	// "0" and the explicit cap share one cache entry.
	if n.MaxStates <= 0 || n.MaxStates > maxStatesCap {
		n.MaxStates = maxStatesCap
	}
	if n.MaxDepth < 0 {
		n.MaxDepth = 0
	}
	if o.P2P != nil {
		if *o.P2P < 0 || *o.P2P > 3 {
			return n, reqErrf("p2p variant %d out of range 0-3", *o.P2P)
		}
		n.P2P = *o.P2P
	}
	st, err := mc.ParseStore(o.Store)
	if err != nil {
		return n, &RequestError{msg: err.Error()}
	}
	n.Store = st.String()
	return n, nil
}

// requestKey computes the content address of a job: SHA-256 over a
// format tag, the job kind, the canonical protocol encoding, and the
// normalized options document.
func requestKey(kind string, canonProto, normOpts []byte) cacheKey {
	h := sha256.New()
	h.Write([]byte("vnserved/v1\x00"))
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canonProto)
	h.Write([]byte{0})
	h.Write(normOpts)
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// task is a prepared, validated job body: everything resolved at
// admission time so request faults surface as 400s, not failed jobs.
type task struct {
	kind     string
	key      cacheKey
	protocol string
	// engine is the verify job's engine name for the run-ledger record
	// ("" for analyze jobs).
	engine   string
	deadline time.Duration
	// requestID is the caller's X-Request-ID (sanitized), set by the
	// HTTP layer before Submit. It feeds the job's TraceContext and is
	// deliberately excluded from the cache key.
	requestID string
	// run produces the result document. It must honor ctx (the
	// per-job deadline and the server's hard-stop context, which also
	// carries the job's TraceContext) and report cancellation by
	// returning errJobCanceled. rec, when non-nil, is the job's flight
	// recorder — engine runs attach it via mc.Options.Trace.
	run func(ctx context.Context, progress func(mc.Snapshot), rec *trace.Recorder) (json.RawMessage, error)
}

// errJobCanceled marks a run stopped by its deadline or the server's
// hard stop; the job is reported canceled and nothing is cached.
var errJobCanceled = errors.New("job canceled")

func pairs(r *relation.Relation) [][2]string {
	ps := r.Pairs()
	out := make([][2]string, len(ps))
	for i, p := range ps {
		out[i] = [2]string{p.From, p.To}
	}
	return out
}

// prepareAnalyze validates an analyze request into a runnable task.
func prepareAnalyze(req AnalyzeRequest) (*task, error) {
	p, canon, err := resolveProtocol(req.Protocol, req.ProtocolSpec)
	if err != nil {
		return nil, err
	}
	return &task{
		kind:     "analyze",
		key:      requestKey("analyze", canon, nil),
		protocol: p.Name,
		run: func(ctx context.Context, _ func(mc.Snapshot), _ *trace.Recorder) (json.RawMessage, error) {
			if ctx.Err() != nil {
				return nil, errJobCanceled
			}
			a := vnassign.AssignFromAnalysis(analysis.Analyze(p))
			res := AnalyzeResult{
				Protocol:    p.Name,
				Class:       a.Class.String(),
				Stallable:   a.Analysis.Stallable,
				Causes:      pairs(a.Analysis.Causes),
				Stalls:      pairs(a.Analysis.Stalls),
				Waits:       pairs(a.Analysis.Waits),
				Refinements: a.Refinements,
				Exact:       a.Exact,
			}
			switch a.Class {
			case vnassign.Class3:
				res.NumVNs = a.NumVNs
				res.VN = a.VN
				res.VNGroups = a.VNGroups()
			case vnassign.Class2:
				res.WaitsCycle = a.WaitsCycle
			}
			raw, err := json.Marshal(res)
			return raw, err
		},
	}, nil
}

// prepareVerify validates a verify request into a runnable task: the
// VN assignment is computed and the system built at admission time,
// so a Class 2 protocol under -vn minimal is a 400, not a failed job.
func prepareVerify(req VerifyRequest, maxStatesCap, progressEvery int) (*task, error) {
	p, canon, err := resolveProtocol(req.Protocol, req.ProtocolSpec)
	if err != nil {
		return nil, err
	}
	norm, err := normalizeVerifyOptions(req.Options, maxStatesCap)
	if err != nil {
		return nil, err
	}
	engine, err := mc.ParseEngine(req.Options.Engine)
	if err != nil {
		return nil, &RequestError{msg: err.Error()}
	}
	if engine == mc.EngineDist {
		if norm.Strategy != "bfs" {
			return nil, reqErrf("engine dist supports only strategy bfs")
		}
		norm.Engine = "dist"
	}

	var vn map[string]int
	var numVNs int
	switch norm.VN {
	case "minimal":
		a := vnassign.Assign(p)
		if a.Class != vnassign.Class3 {
			return nil, reqErrf("%s is %s — no finite per-name assignment exists; use vn=permsg to exhibit the deadlock", p.Name, a.Class)
		}
		vn, numVNs = a.VN, a.NumVNs
	case "permsg":
		vn, numVNs = machine.PerMessageVN(p)
	case "uniform":
		vn, numVNs = machine.UniformVN(p)
	case "type":
		vn, numVNs = machine.TypeVN(p, true)
	}

	cfg := machine.Config{
		Protocol: p, Caches: norm.Caches, Dirs: norm.Dirs, Addrs: norm.Addrs,
		VN: vn, NumVNs: numVNs,
		GlobalCap: norm.GlobalCap, LocalCap: norm.LocalCap,
		NoSymmetry: norm.NoSym,
		Invariants: norm.Invar,
	}
	if norm.P2P >= 0 {
		cfg.PointToPoint = true
		cfg.P2PVariant = norm.P2P
	}
	if norm.NoRepl {
		cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
	}
	// Build once at admission so a bad configuration is a 400, not a
	// failed job; the run builds its own (dist.Run).
	if _, err := machine.New(cfg); err != nil {
		return nil, &RequestError{msg: err.Error()}
	}

	normBytes, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	// norm.Store was validated by normalizeVerifyOptions; re-parse for
	// the typed value.
	storeMode, _ := mc.ParseStore(norm.Store)
	opts := mc.Options{
		MaxStates:     norm.MaxStates,
		MaxDepth:      norm.MaxDepth,
		DisableTraces: true,
		ProgressEvery: progressEvery,
		Store:         storeMode,
	}
	if norm.Strategy == "dfs" {
		opts.Strategy = mc.DFS
	}
	workers, shards := req.Options.Workers, req.Options.Shards

	return &task{
		kind:     "verify",
		key:      requestKey("verify", canon, normBytes),
		protocol: p.Name,
		engine:   engine.String(),
		deadline: time.Duration(req.DeadlineMillis) * time.Millisecond,
		run: func(ctx context.Context, progress func(mc.Snapshot), rec *trace.Recorder) (json.RawMessage, error) {
			mopts := opts
			if progress != nil {
				mopts.Progress = progress
			}
			mopts.Trace = rec
			// Occupancy: per-VN queue-depth histograms for the dashboard's
			// occupancy panel and the job's ledger record. Passive and
			// engine-invariant (pinned by the occupancy parity tests), so
			// it cannot affect the cached result beyond adding the summary.
			// A dist job gets loopback workers (serve has no -peers
			// surface); a fleet failure fails the job, while cancellation
			// surfaces as Outcome Canceled on every engine.
			res, err := dist.Run(ctx, dist.Job{
				Config: cfg, Options: mopts,
				Workers: workers, Occupancy: true,
			}, engine, shards, nil)
			if err != nil && ctx.Err() == nil {
				return nil, err
			}
			if err != nil || res.Outcome == mc.Canceled {
				return nil, errJobCanceled
			}
			doc := VerifyResult{
				Protocol: p.Name,
				VNMode:   norm.VN, NumVNs: numVNs, VN: vn,
				Caches: norm.Caches, Dirs: norm.Dirs, Addrs: norm.Addrs,
				Engine:          engine.String(),
				Store:           norm.Store,
				Outcome:         res.Outcome.Tag(),
				States:          res.States,
				Rules:           res.Rules,
				MaxDepth:        res.MaxDepth,
				Message:         res.Message,
				DurationSeconds: res.Duration.Seconds(),
				Stats:           res.Stats,
			}
			raw, err := json.Marshal(doc)
			return raw, err
		},
	}, nil
}
