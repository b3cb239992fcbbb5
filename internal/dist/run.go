package dist

import (
	"context"
	"fmt"

	"minvn/internal/machine"
	"minvn/internal/mc"
)

// Engine selects which engine runs a search (Run). All engines produce
// identical results on identical inputs; they differ only in throughput
// and memory footprint, so the choice is an operational one.
type Engine int

const (
	// EngineAuto picks sequential for one worker and pipelined
	// otherwise.
	EngineAuto Engine = iota
	// EngineSeq is the sequential reference engine (mc.CheckCtx).
	EngineSeq
	// EnginePipeline is the parallel engine (mc.CheckPipelinedCtx).
	EnginePipeline
	// EngineDist is the distributed engine (Check): hash-owned state
	// shards across workers with batched frontier exchange.
	EngineDist
)

var engineNames = [...]string{"auto", "seq", "pipeline", "dist"}

func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// MarshalText writes the engine as its name, so a JSON document lists
// engines the way the -engine flag takes them.
func (e Engine) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// ParseEngine maps a CLI flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "seq", "sequential":
		return EngineSeq, nil
	case "pipeline", "pipelined":
		return EnginePipeline, nil
	case "dist", "distributed":
		return EngineDist, nil
	}
	return EngineAuto, fmt.Errorf("unknown engine %q (want auto, seq, pipeline, or dist)", s)
}

// distRefusal reports what the distributed engine cannot honor about j
// — a caller error (*RequestError), as opposed to a fleet failure.
func (j Job) distRefusal() error {
	const refusal = "dist: %s is not supported by the distributed engine (%s)"
	if len(j.Seeds) > 0 {
		return RequestErrorf(refusal, "a seeded search", "workers rebuild the model from its config and start from the reset state")
	}
	if j.Options.Strategy != mc.BFS {
		return RequestErrorf(refusal, "a "+j.Options.Strategy.String()+" search", "the distributed rounds are level-synchronized BFS")
	}
	return nil
}

// Run is the one engine switch: every caller that lets its user pick the
// engine describes the search as a Job (usually by resolving a Spec) and
// calls Run, so "which engines exist and what each needs" is decided here
// and nowhere else.
//
// EngineDist runs Check — never an in-process substitute — and returns a
// *RequestError for DFS or seeds. The others search job.System (built
// from job.Config when nil) in this process: EngineSeq, and EngineAuto at
// one worker, on mc.CheckCtx; EnginePipeline, and EngineAuto otherwise,
// on mc.CheckPipelinedCtx with job.Workers. job.Seeds, when non-empty,
// replace the reset state as the initial states (machine.Seeded).
// job.Occupancy fills Result.Stats.Occupancy with the same
// *icn.OccupancyStats on every engine: in-process by installing the
// system's profiler as Options.Observer, distributed by the workers'
// merged profiles. job.Peers is meaningful to dist only.
func Run(ctx context.Context, job Job) (mc.Result, error) {
	if job.Engine == EngineDist {
		return Check(ctx, job)
	}
	sys := job.System
	if sys == nil {
		var err error
		if sys, err = machine.New(job.Config); err != nil {
			return mc.Result{}, err
		}
	}
	var model mc.Model = sys
	if len(job.Seeds) > 0 {
		model = &machine.Seeded{System: sys, Seeds: job.Seeds}
	}
	opts := job.Options
	if job.Occupancy {
		opts.Observer = sys.NewOccupancyProfiler()
	}
	if job.Engine == EngineSeq || (job.Engine == EngineAuto && job.Workers == 1) {
		return mc.CheckCtx(ctx, model, opts), nil
	}
	return mc.CheckPipelinedCtx(ctx, model, opts, job.Workers), nil
}
