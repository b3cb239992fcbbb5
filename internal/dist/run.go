package dist

import (
	"context"
	"fmt"

	"minvn/internal/machine"
	"minvn/internal/mc"
)

// UnsupportedError reports a request the distributed engine cannot
// honor — a caller error, as opposed to a fleet failure. The CLIs map
// it to a usage exit, the serving layer to a 400.
type UnsupportedError struct {
	Feature string // what was asked for
	Why     string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("dist: %s is not supported by the distributed engine (%s)", e.Feature, e.Why)
}

// Run is the one place a search is dispatched to an engine: every
// caller that lets its user pick the engine describes the search as a
// Job and calls Run, so "which engines exist and what each needs" is
// decided here and nowhere else.
//
// EngineDist runs Check — never an in-process substitute — and returns
// an *UnsupportedError for DFS or seeds. Every other engine builds the
// system from job.Config and runs mc.CheckEngineCtx in this process
// with job.Workers workers and the given visited-set shards; seeds,
// when non-empty, replace the reset state as the search's initial
// states (machine.Seeded). job.Occupancy fills Result.Stats.Occupancy
// with the same *icn.OccupancyStats on every engine: in-process by
// installing the system's profiler as Options.Observer, distributed by
// the workers' merged profiles. job.Peers is meaningful to dist only.
func Run(ctx context.Context, job Job, engine mc.Engine, shards int, seeds [][]byte) (mc.Result, error) {
	if engine == mc.EngineDist {
		if len(seeds) > 0 {
			return mc.Result{}, &UnsupportedError{"a seeded search", "workers rebuild the model from its spec and start from the reset state"}
		}
		return Check(ctx, job)
	}
	sys, err := machine.New(job.Config)
	if err != nil {
		return mc.Result{}, err
	}
	var model mc.Model = sys
	if len(seeds) > 0 {
		model = &machine.Seeded{System: sys, Seeds: seeds}
	}
	opts := job.Options
	if job.Occupancy {
		opts.Observer = sys.NewOccupancyProfiler()
	}
	return mc.CheckEngineCtx(ctx, model, opts, engine, job.Workers, shards), nil
}
