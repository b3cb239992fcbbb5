package dist

import (
	"context"

	"minvn/internal/machine"
	"minvn/internal/mc"
)

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

// Run is the one place a search is dispatched to an engine: every
// caller that lets its user pick the engine describes the search as a
// Job (usually by resolving a Spec) and calls Run, so "which engines
// exist and what each needs" is decided here and nowhere else.
//
// EngineDist runs Check — never an in-process substitute — and returns
// a *RequestError for DFS or seeds. Every other engine runs
// mc.CheckEngineCtx in this process on job.System (built from
// job.Config when nil) with job.Workers workers and job.Shards
// visited-set shards; job.Seeds, when non-empty, replace the reset
// state as the search's initial states (machine.Seeded). job.Occupancy
// fills Result.Stats.Occupancy with the same *icn.OccupancyStats on
// every engine: in-process by installing the system's profiler as
// Options.Observer, distributed by the workers' merged profiles.
// job.Peers is meaningful to dist only.
func Run(ctx context.Context, job Job) (mc.Result, error) {
	if job.Engine == mc.EngineDist {
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
	return mc.CheckEngineCtx(ctx, model, opts, job.Engine, job.Workers, job.Shards), nil
}
