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
// across the in-process engines), so results are cached under the
// SHA-256 of the canonical protocol encoding plus the result-affecting
// part of the request's verification spec (dist.Spec.Key, the string
// dist.Job.Key renders), and one run serves every identical request
// after it. A verify request is keyed at admission and resolved only on
// a miss: a cache hit or a singleflight join computes no assignment and
// builds no system. The request's "options" object is a dist.Spec — the
// same description the CLIs' flags fill in — and dist.Spec.Resolve is
// the only code that turns it into a search, so a request and the
// equivalent command line cannot mean different things. What a verify
// job asked and answered is one dist.Verdict: its response document,
// and its ledger record's verdict, which vnverify's records carry too.
//
// Jobs carry per-job deadlines enforced through the model checker's
// context plumbing (dist.Run / Outcome Canceled), progress is
// streamed over SSE from the existing mc.Snapshot machinery, and
// SIGTERM drains gracefully: admitted jobs complete, new ones are
// refused.
//
// What a job leaves behind is one document: its ledger.Record (the
// verdict its response carries — a verify job's dist.Verdict, an
// analyze job's vnassign.Verdict — or, if it answered nothing, its kind
// and protocol; the outcome; the final snapshot with the health report;
// and the job, request and trace ids), written before the job is
// published as done and served back by GET /v1/runs. The other
// surfaces answer what the record cannot: SSE and GET /v1/jobs/{id} are
// the live job; the job log (Config.JobLog) is every request's
// lifecycle, including those that never became a run; GET /v1/stats
// and /metrics are the fleet-level registry as JSON and as Prometheus
// text; /debug/dash is the only live cross-job view. Memory is bounded
// in jobs served (see maxTerminalJobs; stage timing is per-kind running
// summaries).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"minvn/internal/analysis"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs/trace"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
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

// VerifyOptions configures a bounded model-checking job: it is the
// verification spec every entry point shares (dist.Spec has the fields,
// their defaults, and which of them a request can set; dist.Job.Key
// says which are result-affecting and so part of the cache key). The
// zero value is the paper's experiment under the server's state bound.
type VerifyOptions = dist.Spec

// VerifyRequest asks for a bounded model check. DeadlineMillis, when
// positive, overrides the server's default per-job deadline (clamped
// to the server maximum); it does not affect the cache key.
type VerifyRequest struct {
	Protocol       string          `json:"protocol,omitempty"`
	ProtocolSpec   json.RawMessage `json:"protocol_spec,omitempty"`
	Options        VerifyOptions   `json:"options"`
	DeadlineMillis int64           `json:"deadline_ms,omitempty"`
}

// AnalyzeResult is the analyze job's result document: the static
// verdict, and the relations it was derived from, which only this
// document serves. It is fully deterministic (no wall-clock fields), so
// cached and fresh runs are byte-identical by construction as well as
// by caching.
type AnalyzeResult struct {
	vnassign.Verdict
	Stallable []string    `json:"stallable,omitempty"`
	Causes    [][2]string `json:"causes"`
	Stalls    [][2]string `json:"stalls"`
	Waits     [][2]string `json:"waits"`
}

// VerifyResult is the verify job's result document: the run's verdict
// and its final telemetry snapshot. DurationSeconds and Stats carry the
// producing run's timings — cache hits replay them verbatim, which is
// the point of content-addressed caching.
type VerifyResult struct {
	dist.Verdict
	Stats mc.Snapshot `json:"stats"`
}

// RequestError is a client-side fault (unknown protocol, invalid
// options, oversized spec): the HTTP layer maps it to 400.
type RequestError = dist.RequestError

var reqErrf = dist.RequestErrorf

// resolveProtocol loads the request's protocol from its built-in name
// or inline spec and returns it with its canonical encoding (the
// content-address half of the cache key). Inline specs go through the
// hardened protocol.Decode, so oversized documents are rejected here
// with a *protocol.LimitError wrapped as a RequestError. A built-in is
// shared with every other request for it (see builtin): the caller
// must not modify the protocol.
func resolveProtocol(name string, spec json.RawMessage) (*protocol.Protocol, []byte, error) {
	var r *resolved
	var err error
	switch {
	case name != "" && len(spec) > 0:
		return nil, nil, reqErrf("give either protocol or protocol_spec, not both")
	case name != "":
		r, err = builtin(name)
	case len(spec) > 0:
		var p *protocol.Protocol
		if p, err = protocol.Decode(spec); err != nil {
			return nil, nil, reqErrf("%v", err)
		}
		r, err = resolve(p)
	default:
		return nil, nil, reqErrf("protocol or protocol_spec is required")
	}
	if err != nil {
		return nil, nil, err
	}
	return r.p, r.canon, nil
}

// resolved is a protocol with its canonical encoding.
type resolved struct {
	p     *protocol.Protocol
	canon []byte
}

// resolve encodes p. Re-encoding rather than hashing the user's bytes:
// Decode→Encode is a fixpoint (pinned by FuzzProtocolRoundTrip), so all
// formattings of the same protocol — and its built-in name — share one
// cache entry.
func resolve(p *protocol.Protocol) (*resolved, error) {
	canon, err := protocol.Encode(p)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", p.Name, err)
	}
	return &resolved{p, canon}, nil
}

// builtins memoizes each built-in, resolved, under its canonical name,
// so it holds at most one entry per built-in, and an entry is a pure
// function of its name: servers in one process (tests included) share
// it without seeing each other. Every request naming a built-in shares
// that one copy: jobs only read a protocol (analysis, assignment,
// machine.New), which TestSharedBuiltinsUnmodified pins.
// protocols.Load still builds a fresh copy for everyone else.
var builtins sync.Map // canonical name → *resolved

// builtin resolves a built-in protocol name or alias, building and
// encoding the protocol on its first request only.
func builtin(name string) (*resolved, error) {
	canonical, _ := protocols.Canonical(name)
	if r, ok := builtins.Load(canonical); ok {
		return r.(*resolved), nil
	}
	p, err := protocols.Load(name)
	if err != nil {
		return nil, reqErrf("%v", err) // an unknown name is never stored
	}
	r, err := resolve(p)
	if err != nil {
		return nil, err
	}
	shared, _ := builtins.LoadOrStore(canonical, r)
	return shared.(*resolved), nil
}

// requestKey computes the content address of a job: SHA-256 over a
// format tag, the job kind, the canonical protocol encoding, and the
// result-affecting options (dist.Spec.Key; empty for analyze).
func requestKey(kind string, canonProto []byte, optsKey string) cacheKey {
	h := sha256.New()
	h.Write([]byte("vnserved/v1\x00"))
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canonProto)
	h.Write([]byte{0})
	h.Write([]byte(optsKey))
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// task is a prepared, validated job body: everything checked at
// admission time so request faults surface as 400s, not failed jobs.
type task struct {
	kind     string
	key      cacheKey
	protocol string
	// spec is the verify job's normalized spec, the source of its key
	// (zero for analyze jobs).
	spec dist.Spec
	// resolve, set on verify tasks, resolves spec into search and run.
	// Submit calls it only when neither the cache nor an in-flight job
	// answers key, so a hit or a join is never resolved.
	resolve func() error
	// search is the verify job's resolved spec (nil until resolved, once
	// the job has finished, and for analyze jobs), with the worker count
	// runJob gives it at start. run reads it then.
	search *dist.Job
	// verdict, static and outcome are what run answered, for the ledger
	// record: a verify run's verdict (canceled ones too), an analyze
	// run's static verdict, and a finished run's outcome (either's).
	verdict  *dist.Verdict
	static   *vnassign.Verdict
	outcome  string
	deadline time.Duration
	// requestID is the caller's X-Request-ID (sanitized), set by the
	// HTTP layer before Submit. It feeds the job's TraceContext and is
	// deliberately excluded from the cache key.
	requestID string
	// run produces the result document (nil on a verify task until it
	// is resolved, and on any job once it has finished). It must honor ctx (the per-job deadline and the
	// server's hard-stop context, which also carries the job's
	// TraceContext) and report cancellation by
	// returning errJobCanceled. rec, when non-nil, is the job's flight
	// recorder — engine runs attach it via mc.Options.Trace.
	run func(ctx context.Context, progress func(mc.Snapshot), rec *trace.Recorder) (json.RawMessage, error)
}

// errJobCanceled marks a run stopped by its deadline or the server's
// hard stop; the job is reported canceled and nothing is cached.
var errJobCanceled = errors.New("job canceled")

// prepareAnalyze validates an analyze request into a runnable task.
func prepareAnalyze(req AnalyzeRequest) (*task, error) {
	p, canon, err := resolveProtocol(req.Protocol, req.ProtocolSpec)
	if err != nil {
		return nil, err
	}
	t := &task{kind: "analyze", key: requestKey("analyze", canon, ""), protocol: p.Name}
	t.run = func(ctx context.Context, _ func(mc.Snapshot), _ *trace.Recorder) (json.RawMessage, error) {
		if ctx.Err() != nil {
			return nil, errJobCanceled
		}
		res := analyzeResult(vnassign.AssignFromAnalysis(analysis.Analyze(p)))
		v := res.Verdict // not &res.Verdict: the record keeps no relations
		t.static, t.outcome = &v, v.Outcome
		return json.Marshal(res)
	}
	return t, nil
}

// analyzeResult is the analyze job's result document for a.
func analyzeResult(a *vnassign.Assignment) AnalyzeResult {
	r := a.Analysis
	return AnalyzeResult{
		Verdict:   a.Verdict(),
		Stallable: r.Stallable,
		Causes:    r.Causes.Arrays(),
		Stalls:    r.Stalls.Arrays(),
		Waits:     r.Waits.Arrays(),
	}
}

// prepareVerify validates a verify request into a task that is keyed
// but not resolved: the spec is clamped to the server's state bound and
// normalized, and its cache key rendered (dist.Spec.Key), so a fault in
// the options is a 400 here. Resolving — the VN assignment computed,
// the system built — is the task's resolve step, which Submit runs only
// on a miss; a Class 2 protocol under vn=minimal or a configuration the
// machine rejects is then a 400 too, not a failed job. A job on the
// auto engine whose request leaves workers unset gets its worker count
// when it starts (Server.searchShare).
func prepareVerify(req VerifyRequest, maxStatesCap, progressEvery int) (*task, error) {
	p, canon, err := resolveProtocol(req.Protocol, req.ProtocolSpec)
	if err != nil {
		return nil, err
	}
	// The server bounds every job: unbounded (0) or over-cap requests
	// are clamped, and the clamp happens before key computation so
	// "0" and the explicit cap share one cache entry.
	spec := req.Options
	if spec.MaxStates <= 0 || spec.MaxStates > maxStatesCap {
		spec.MaxStates = maxStatesCap
	}
	optsKey, n, err := spec.Key(p)
	if err != nil {
		return nil, err
	}
	t := &task{
		kind:     "verify",
		key:      requestKey("verify", canon, optsKey),
		protocol: p.Name,
		spec:     n,
		deadline: time.Duration(req.DeadlineMillis) * time.Millisecond,
	}
	t.resolve = func() error { return t.resolveVerify(p, progressEvery) }
	return t, nil
}

// resolveVerify resolves a verify task's spec over p into its search
// and the run that executes it.
func (t *task) resolveVerify(p *protocol.Protocol, progressEvery int) error {
	job, err := t.spec.Resolve(p, nil)
	if err != nil {
		return err
	}
	job.Options.ProgressEvery = progressEvery
	// Occupancy: per-VN queue-depth histograms for the dashboard's
	// occupancy panel and the job's ledger record. Passive and
	// engine-invariant (pinned by the occupancy parity tests), so it
	// cannot affect the cached result beyond adding the summary.
	job.Occupancy = true

	t.search = &job
	t.run = func(ctx context.Context, progress func(mc.Snapshot), rec *trace.Recorder) (json.RawMessage, error) {
		job := job // what search points at, workers share included
		job.Options.Progress = progress
		job.Options.Trace = rec
		// A dist job gets in-process workers (serve has no -peers
		// surface); a fleet failure fails the job, while cancellation
		// surfaces as Outcome Canceled on every engine.
		res, err := dist.Run(ctx, job)
		switch {
		case err != nil && ctx.Err() == nil:
			return nil, err
		case err != nil:
			return nil, errJobCanceled
		}
		v := job.Verdict(res)
		t.verdict, t.outcome = &v, v.Outcome
		if res.Outcome == mc.Canceled {
			return nil, errJobCanceled
		}
		return json.Marshal(VerifyResult{Verdict: v, Stats: res.Stats})
	}
	return nil
}
