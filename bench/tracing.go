package main

import "minvn/internal/obs/trace"

// spanParent names, for every span the bench records, the span that
// must enclose it in time. The bench records spans only from its own
// files, around calls into a layer, so this table is the whole span
// hierarchy; bench_test.go checks every exported span against it.
var spanParent = map[string]string{
	"setup":                "rep",
	"verdict":              "rep",
	"mc.check":             "verdict",
	"dist.check":           "verdict",
	"static.pass":          "verdict",
	"serve.request":        "verdict",
	"machine.successors":   "mc.check",
	"machine.canonicalize": "mc.check",
	"machine.quiescent":    "mc.check",
	"dist.rpc_init":        "dist.check",
	"dist.rpc_expand":      "dist.check",
	"dist.rpc_frontier":    "dist.check",
	"dist.rpc_settle":      "dist.check",
	"dist.rpc_cancel":      "dist.check",
	"static.minimize":      "static.pass",
}

// sampleEvery thins per-call spans: the decorators count and time
// every call but record one span in this many.
const sampleEvery = 1024

// callLanes exceeds the most callers any workload has at once (two
// dist workers each serving an expand and a frontier delivery, plus
// the coordinator), so taking a lane never waits.
const callLanes = 8

// tracer buffers a traced repetition's spans in memory; write exports
// them as Chrome trace JSON when the repetition ends. A nil tracer
// records nothing, so workload code never branches on tracing.
type tracer struct {
	rec  *trace.Recorder
	main *trace.Lane
	// pool hands a private lane to each concurrent caller, so spans on
	// one lane never partially overlap.
	pool chan *trace.Lane
}

func newTracer() *tracer {
	t := &tracer{rec: trace.New(trace.Config{LaneCapacity: 1 << 15})}
	t.main = t.rec.Lane("bench")
	t.pool = make(chan *trace.Lane, callLanes) // one slot per pooled lane
	for i := 0; i < callLanes; i++ {
		t.pool <- t.rec.Lane("calls")
	}
	return t
}

// span opens a span on the bench's own lane; only the goroutine
// driving the repetition may call it.
func (t *tracer) span(name string) trace.Span {
	if t == nil {
		return trace.Span{}
	}
	return t.main.Start(name)
}

// call runs fn inside a span on a pooled lane.
func (t *tracer) call(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	lane := <-t.pool
	sp := lane.Start(name)
	fn()
	sp.End()
	t.pool <- lane
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	return t.rec.WriteFile(path)
}
