package mc

import (
	"context"
	"fmt"
)

// Engine selects which scheduler runs a model over the shared search
// core. All engines produce identical results on identical inputs; they
// differ only in throughput and memory footprint, so the choice is an
// operational one.
type Engine int

const (
	// EngineAuto picks sequential for one worker and pipelined
	// otherwise.
	EngineAuto Engine = iota
	// EngineSeq is the sequential reference engine (Check).
	EngineSeq
	// EnginePipeline is the pipelined parallel engine (CheckPipelined).
	EnginePipeline
	// EngineDist is the distributed engine (internal/dist): hash-owned
	// state shards across worker processes with batched frontier
	// exchange. It needs a transportable model specification, which a
	// bare Model cannot provide, so it is not dispatchable from this
	// package: callers that accept it go through dist.Run, the one home
	// of in-process-vs-distributed dispatch.
	EngineDist
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSeq:
		return "seq"
	case EnginePipeline:
		return "pipeline"
	case EngineDist:
		return "dist"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

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

// CheckEngineCtx dispatches to the selected in-process engine, with
// cancellation (see CheckCtx). workers is ignored by EngineSeq. DFS
// always runs sequentially. EngineDist is not an in-process engine (see
// its comment) and panics here rather than silently running something
// else.
func CheckEngineCtx(ctx context.Context, m Model, opts Options, engine Engine, workers int) Result {
	switch engine {
	case EngineSeq:
		return CheckCtx(ctx, m, opts)
	case EnginePipeline:
		return CheckPipelinedCtx(ctx, m, opts, workers)
	case EngineDist:
		panic("mc: EngineDist cannot run in-process; dispatch through dist.Run")
	default:
		if workers == 1 {
			return CheckCtx(ctx, m, opts)
		}
		return CheckPipelinedCtx(ctx, m, opts, workers)
	}
}
