// Command vnverify model checks a coherence protocol under a chosen
// VN assignment on the paper's ICN model — the Go counterpart of the
// artifact's run_*_murphi.sh scripts. It reports one of the three
// outcomes of the paper's appendix H: deadlock, bounded-no-deadlock,
// or complete-no-deadlock.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
)

// capLabel renders a queue capacity, where 0 means unbounded.
func capLabel(c int) string {
	if c <= 0 {
		return "∞"
	}
	return fmt.Sprint(c)
}

// defaults is vnverify's starting point: the paper's experiment under
// the minimal assignment, bounded at 2M states.
var defaults = cliflag.Search{Spec: dist.Spec{
	VN: dist.VNMinimal, Caches: 3, Dirs: 2, Addrs: 2,
	Strategy: "bfs", MaxStates: 2_000_000,
	Engine: "auto", Store: "exact", Workers: 1,
}}

func main() {
	search := defaults
	search.Register(flag.CommandLine, cliflag.SearchSystem|cliflag.SearchVN|cliflag.SearchNet|
		cliflag.SearchEngine|cliflag.SearchWorkers)
	var (
		walk      = flag.Int("walk", 0, "instead of exhaustive checking, run N random-workload walks")
		walkSteps = flag.Int("walk-steps", 5000, "steps per random walk")
	)
	tel := cliflag.Register(flag.CommandLine, cliflag.FlagAll)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vnverify [flags] <protocol>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if err := tel.StartPprof(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vnverify: pprof:", err)
		os.Exit(1)
	}

	p, err := cliflag.LoadProtocol(flag.Arg(0), search.File)
	if err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnverify", err))
	}

	tl := &obs.Timeline{}
	search.Peers = tel.Peers()
	job, err := search.Resolve(p, tl)
	if err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnverify", err))
	}
	job.Occupancy = tel.Occupancy
	tel.Configure(&job.Options, os.Stderr)
	sys, cfg := job.System, job.Config
	// record writes the run's one document to -stats-json and -ledger.
	record := func(res mc.Result, snap *mc.Snapshot, extra map[string]any) {
		v := job.Verdict(res)
		rec := ledger.New("vnverify")
		rec.Verdict, rec.Outcome = &v, v.Outcome
		rec.Snapshot = snap
		rec.Stages = tl.Summaries()
		rec.Extra = extra
		if err := tel.Record(rec, os.Stdout); err != nil {
			os.Exit(cliflag.Fail(os.Stderr, "vnverify", err))
		}
	}

	if *walk > 0 {
		// The walks' verdict: the first wedged walk's deadlock or violation,
		// else bounded; rules counts steps, max_depth the longest walk.
		start, res, bad := time.Now(), mc.Result{Outcome: mc.Bounded}, 0
		for s := 0; s < *walk; s++ {
			w := sys.Walk(int64(s), *walkSteps)
			fmt.Printf("walk seed %d: %v\n", s, w)
			res.Rules, res.MaxDepth = res.Rules+w.Steps, max(res.MaxDepth, w.Steps)
			if !w.Deadlocked && w.Violation == nil {
				continue
			}
			if bad == 0 {
				res.Outcome, res.Message = mc.Deadlock, fmt.Sprintf("walk seed %d: %v", s, w)
				if w.Violation != nil {
					res.Outcome = mc.Violation
				}
			}
			bad++
		}
		res.Duration = time.Since(start)
		record(res, nil, map[string]any{"metrics": map[string]any{"walks": *walk, "walk_steps": *walkSteps, "bad": bad}})
		if bad > 0 {
			fmt.Printf("%d of %d walks wedged or violated\n", bad, *walk)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("model checking %s: %d caches, %d dirs, %d addrs, %d VNs (%s), %v\n",
		p.Name, cfg.Caches, cfg.Dirs, cfg.Addrs, cfg.NumVNs, job.Spec.VN, job.Options.Strategy)
	stop := tl.Start("mc/check")
	res, err := dist.Run(context.Background(), job)
	stop()
	if err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnverify", err))
	}
	fmt.Println(res)
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	if err := tel.WriteTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vnverify: trace-out:", err)
		os.Exit(1)
	}
	if occStats := res.Stats.Occupancy; occStats != nil {
		fmt.Printf("occupancy over %d states: global high water %d/%s, local high water %d/%s\n",
			occStats.StatesObserved,
			occStats.GlobalHighWater, capLabel(occStats.GlobalCap),
			occStats.LocalHighWater, capLabel(occStats.LocalCap))
	}
	record(res, &res.Stats, nil)
	if len(res.Trace) > 0 && search.Traces {
		last := res.Trace[len(res.Trace)-1]
		fmt.Println("\nsequence chart (controller states per endpoint, (+n) = queued messages):")
		fmt.Print(sys.SequenceChart(res.Trace, 24))
		fmt.Println("\nfinal state:")
		fmt.Print(sys.Describe(last))
		if res.Outcome == mc.Deadlock {
			fmt.Println("\nexplanation:")
			fmt.Print(sys.Explain(last))
		}
	}
	if res.Outcome == mc.Deadlock || res.Outcome == mc.Violation {
		os.Exit(1)
	}
}
