// Command vnfuzz runs the randomized differential-testing campaign of
// internal/ptest: it generates well-formed random protocols (guided
// mutation of the built-ins plus from-scratch synthesis), pushes each
// one through analysis → Eq. 4 → minimum-VN assignment → model
// checking with every engine, and fails on any of the three oracle
// violations (soundness, parity, assignment). Violations are shrunk
// to minimal repro protocols and written out as JSON artifacts plus
// standalone Go test sources.
package main

import (
	"flag"
	"fmt"
	"os"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
	"minvn/internal/ptest"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("vnfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	search := cliflag.Search{
		Spec:    dist.Spec{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 50_000, Workers: 2},
		Engines: "seq,pipeline", Stores: "exact",
	}
	search.Register(fs, cliflag.SearchSystem|cliflag.SearchMatrix|cliflag.SearchWorkers)
	var (
		seed       = fs.Int64("seed", 1, "campaign seed; every case derives a sub-seed from (seed, index)")
		count      = fs.Int("count", 500, "number of generated protocols")
		mutateFrac = fs.Float64("mutate-frac", 0.5, "fraction of cases mutated from built-ins (rest synthesized)")
		shrink     = fs.Bool("shrink", true, "delta-debug violations to minimal repros")
		reproDir   = fs.String("repro-dir", "vnfuzz-repros", "directory for violation repro artifacts")
		stopOnViol = fs.Bool("stop-on-violation", false, "abort the campaign at the first oracle violation")
		selfTest   = fs.Bool("self-test", false, "run the fault-injection self-test instead of a campaign")
	)
	tel := cliflag.Register(fs,
		cliflag.FlagProgress|cliflag.FlagStatsJSON|cliflag.FlagPprof|cliflag.FlagTrace|cliflag.FlagLedger)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := tel.StartPprof(stderr); err != nil {
		fmt.Fprintln(stderr, "vnfuzz: pprof:", err)
		return 1
	}

	engs, sts, err := search.Matrix()
	if err != nil {
		return cliflag.Fail(stderr, "vnfuzz", err)
	}
	opts := ptest.Options{
		Caches: search.Caches, Dirs: search.Dirs, Addrs: search.Addrs,
		MaxStates: search.MaxStates, Engines: engs, Stores: sts,
		Workers: search.Workers,
	}

	if *selfTest {
		res, err := ptest.SelfTest(opts)
		if err != nil {
			fmt.Fprintln(stderr, "vnfuzz: self-test FAILED:", err)
			return 1
		}
		fmt.Fprintf(stdout, "self-test ok: clean=%s injected=%s shrunk to %d transitions (%d removals, %d attempts)\n",
			res.CleanVerdict, res.InjectedVerdict,
			res.Shrunk.Spec.NumTransitions(), res.Shrunk.Removed, res.Shrunk.Attempts)
		return 0
	}

	tl := &obs.Timeline{}
	cfg := ptest.CampaignConfig{
		Seed:            *seed,
		Count:           *count,
		Gen:             ptest.GenConfig{MutateFrac: *mutateFrac},
		Opts:            opts,
		Shrink:          *shrink,
		StopOnViolation: *stopOnViol,
	}
	// The campaign lane times the fuzzing loop itself: one instant per
	// case, named by verdict. Lane is nil-safe, so the hook only needs
	// installing when progress or tracing asked for it.
	lane := tel.Recorder().Lane("campaign")
	if tel.Progress || lane != nil {
		cfg.OnCase = func(i int, c *ptest.Case, r *ptest.CaseResult) {
			lane.InstantArg("case/"+r.Verdict.String(), "index", int64(i))
			if !tel.Progress {
				return
			}
			line := fmt.Sprintf("case %4d/%d seed=%-20d %-28s %s", i+1, *count, c.Seed, c.Origin, r.Verdict)
			if r.Verdict.IsViolation() {
				line += " " + r.Detail
			}
			fmt.Fprintln(stderr, line)
		}
	}
	stop := tl.Start("vnfuzz/campaign")
	res := ptest.RunCampaign(cfg)
	stop()
	fmt.Fprintln(stdout, res.Summary())

	var reproPaths []string
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "VIOLATION case %d (seed %d, %s): %s\n  %s\n",
			v.Index, v.Case.Seed, v.Case.Origin, v.Result.Verdict, v.Result.Detail)
		if v.Shrunk != nil && v.Shrunk.Proto != nil {
			fmt.Fprintf(stdout, "  shrunk: %d transitions (%d removals, %d attempts)\n",
				v.Shrunk.Spec.NumTransitions(), v.Shrunk.Removed, v.Shrunk.Attempts)
		}
		path, err := ptest.WriteRepro(*reproDir, *seed, v)
		if err != nil {
			fmt.Fprintln(stderr, "vnfuzz: writing repro:", err)
			return 1
		}
		reproPaths = append(reproPaths, path)
		fmt.Fprintf(stdout, "  repro: %s\n", path)
	}

	if err := tel.WriteTrace(stdout); err != nil {
		fmt.Fprintln(stderr, "vnfuzz: trace-out:", err)
		return 1
	}
	rec := ledger.New("vnfuzz")
	rec.Params = search.Params()
	rec.Params["seed"] = *seed
	rec.Params["count"] = *count
	rec.Params["mutate_frac"] = *mutateFrac
	rec.Outcome = "clean"
	if len(res.Violations) > 0 {
		rec.Outcome = "violations"
	}
	rec.Stages = tl.Summaries()
	rec.Extra = map[string]any{"metrics": map[string]any{
		"cases":      res.Cases,
		"by_verdict": res.ByVerdict,
		"by_origin":  res.ByOrigin,
		"violations": len(res.Violations),
	}}
	if len(reproPaths) > 0 {
		rec.Extra["repros"] = reproPaths
	}
	if err := tel.Record(rec, stdout); err != nil {
		return cliflag.Fail(stderr, "vnfuzz", err)
	}
	if len(res.Violations) > 0 {
		return 1
	}
	return 0
}
