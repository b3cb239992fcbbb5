// Command vnexplain turns a deadlock counterexample into an
// explanation. It hunts the deadlock the way vntable's Class 2 cells do
// (per-message VNs, DFS from the Fig. 3 ownership prefix by default),
// then annotates the wedged state: every in-flight message with its VN
// and queue position, the stalled queue heads, the active waits/queues
// edges among the message names present, and the blocking cycle that
// closes the deadlock — optionally as a Graphviz dot graph (-dot).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"minvn/internal/analysis"
	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
)

// defaults is vnexplain's starting point: the deadlock hunt of
// vntable's Class 2 cells — per-message VNs, sequential DFS with traces
// from the Fig. 3 ownership prefix, bounded at 600k states.
var defaults = cliflag.Search{Spec: dist.Spec{
	VN: dist.VNPerMessage, Caches: 3, Dirs: 2, Addrs: 2,
	Strategy: "dfs", MaxStates: 600_000, SeedOwned: true,
	Engine: "seq", Traces: true,
}}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	search := defaults
	search.Register(fs, cliflag.SearchSystem|cliflag.SearchVN|cliflag.SearchL2s)
	var (
		chartRows = fs.Int("chart", 16, "sequence-chart rows for the trace tail (0 = no chart)")
		dotOut    = fs.String("dot", "", "write the blocking graph as Graphviz dot to this file")
	)
	tel := cliflag.Register(fs, cliflag.FlagAll)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: vnexplain [flags] <protocol>")
		fs.PrintDefaults()
		return 2
	}
	if err := tel.StartPprof(stderr); err != nil {
		fmt.Fprintln(stderr, "vnexplain: pprof:", err)
		return 1
	}

	p, err := cliflag.LoadProtocol(fs.Arg(0), search.File)
	if err != nil {
		return cliflag.Fail(stderr, "vnexplain", err)
	}
	job, err := search.Resolve(p, nil)
	if err != nil {
		return cliflag.Fail(stderr, "vnexplain", err)
	}
	job.Occupancy = tel.Occupancy
	tel.Configure(&job.Options, stderr)
	sys, cfg := job.System, job.Config

	l2s := ""
	if cfg.L2s > 0 {
		l2s = fmt.Sprintf(" %d l2s,", cfg.L2s)
	}
	fmt.Fprintf(stdout, "hunting a deadlock in %s: %d caches,%s %d dirs, %d addrs, %d VNs (%s), %v\n",
		p.Name, cfg.Caches, l2s, cfg.Dirs, cfg.Addrs, cfg.NumVNs, job.Spec.VN, job.Options.Strategy)
	res, err := dist.Run(context.Background(), job)
	if err != nil {
		return cliflag.Fail(stderr, "vnexplain", err)
	}
	if err := tel.WriteTrace(stdout); err != nil {
		fmt.Fprintln(stderr, "vnexplain: trace-out:", err)
		return 1
	}
	if res.Outcome != mc.Deadlock {
		fmt.Fprintf(stdout, "no deadlock: %s after %d states (depth %d)\n",
			res.Outcome.Tag(), res.States, res.MaxDepth)
		return 1
	}
	fmt.Fprintf(stdout, "deadlock after %d states, trace length %d (depth %d)\n\n",
		res.States, len(res.Trace), res.MaxDepth)

	last := res.Trace[len(res.Trace)-1]
	if *chartRows > 0 {
		fmt.Fprintln(stdout, "sequence chart (controller states per endpoint, (+n) = queued messages):")
		fmt.Fprint(stdout, sys.SequenceChart(res.Trace, *chartRows))
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "wedged state:")
	fmt.Fprint(stdout, sys.Describe(last))
	fmt.Fprintln(stdout)

	an := analysis.Analyze(p)
	rep := sys.DeadlockReport(last, an.Waits)
	fmt.Fprintln(stdout, "explanation:")
	fmt.Fprint(stdout, sys.Explain(last))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep)

	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(rep.DOT()), 0o644); err != nil {
			fmt.Fprintln(stderr, "vnexplain: dot:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dotOut)
	}
	v := job.Verdict(res)
	rec := ledger.New("vnexplain")
	rec.Verdict, rec.Outcome = &v, v.Outcome
	rec.Snapshot = &res.Stats
	rec.Extra = map[string]any{"report": rep}
	if err := tel.Record(rec, stdout); err != nil {
		return cliflag.Fail(stderr, "vnexplain", err)
	}
	return 0
}
