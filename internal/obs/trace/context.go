package trace

import (
	"context"
	"fmt"
	"sync/atomic"
)

// TraceContext is the correlation identity of one unit of work as it
// flows from the serving layer into an engine: the caller-supplied
// request ID, the server-assigned job ID, a stable trace ID derived
// from both, and a span-ID allocator for numbering the sub-operations
// (engine lanes, job phases) the work fans out into.
//
// It travels inside a context.Context (WithTraceContext /
// TraceContextFrom), so any layer with the job's context — the flight
// recorder, the structured job log, SSE events, run records — can
// stamp its output with the same identity. This in-process plumbing is
// the same mechanism a distributed coordinator would serialize across
// process boundaries.
//
// The zero TraceContext is valid and means "uncorrelated": LanePrefix
// returns "" and nothing changes downstream, so instrumented code
// never branches on whether a trace context is present.
type TraceContext struct {
	RequestID string `json:"request_id,omitempty"`
	JobID     string `json:"job_id,omitempty"`
	// TraceID is FNV-1a 64 over "requestID\x00jobID" in hex: stable
	// for a given request/job pair, so re-derivations agree.
	TraceID string `json:"trace_id,omitempty"`

	spans *atomic.Uint64
}

// NewTraceContext builds the correlation identity for a request/job
// pair. Either ID may be empty; the context is Valid if at least one
// is set.
func NewTraceContext(requestID, jobID string) TraceContext {
	tc := TraceContext{RequestID: requestID, JobID: jobID, spans: new(atomic.Uint64)}
	if tc.Valid() {
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		for _, c := range []byte(requestID) {
			h ^= uint64(c)
			h *= prime64
		}
		h ^= 0
		h *= prime64
		for _, c := range []byte(jobID) {
			h ^= uint64(c)
			h *= prime64
		}
		tc.TraceID = fmt.Sprintf("%016x", h)
	}
	return tc
}

// Valid reports whether the context carries any identity.
func (tc TraceContext) Valid() bool { return tc.RequestID != "" || tc.JobID != "" }

// NextSpanID allocates the next span ID (1, 2, 3, ...) for a
// sub-operation of this trace. Span IDs are unique within the trace
// context, shared by every holder of the same value (the allocator is
// a pointer). On an invalid or zero context it returns 0.
func (tc TraceContext) NextSpanID() uint64 {
	if tc.spans == nil || !tc.Valid() {
		return 0
	}
	return tc.spans.Add(1)
}

// LanePrefix renders the identity as a flight-recorder lane-name
// prefix ("job-3 req-abc/"), making the request and job IDs
// recoverable from an exported trace's thread names. Empty for an
// invalid context, so callers can prepend unconditionally.
func (tc TraceContext) LanePrefix() string {
	if !tc.Valid() {
		return ""
	}
	switch {
	case tc.JobID == "":
		return "req " + tc.RequestID + "/"
	case tc.RequestID == "":
		return tc.JobID + "/"
	default:
		return tc.JobID + " req " + tc.RequestID + "/"
	}
}

// ctxKey keys the TraceContext inside a context.Context.
type ctxKey struct{}

// WithTraceContext attaches tc to ctx.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// TraceContextFrom extracts the TraceContext from ctx. The zero value
// (with ok false) comes back when none is attached; it is safe to use
// directly — LanePrefix is "" and NextSpanID returns 0.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(ctxKey{}).(TraceContext)
	return tc, ok
}
