// Command vnverify model checks a coherence protocol under a chosen
// VN assignment on the paper's ICN model — the Go counterpart of the
// artifact's run_*_murphi.sh scripts. It reports one of the three
// outcomes of the paper's appendix H: deadlock, bounded-no-deadlock,
// or complete-no-deadlock.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/icn"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// capLabel renders a queue capacity, where 0 means unbounded.
func capLabel(c int) string {
	if c <= 0 {
		return "∞"
	}
	return fmt.Sprint(c)
}

func main() {
	var (
		fromFile  = flag.Bool("file", false, "treat the argument as a JSON protocol file")
		vnMode    = flag.String("vn", "minimal", "VN assignment: minimal | permsg | uniform | type")
		caches    = flag.Int("caches", 3, "number of caches (paper: 3)")
		dirs      = flag.Int("dirs", 2, "number of directories (paper: 2)")
		addrs     = flag.Int("addrs", 2, "number of addresses (paper: 2)")
		strategy  = flag.String("strategy", "bfs", "search order: bfs | dfs")
		maxStates = flag.Int("max-states", 2_000_000, "bounded model checking: state limit (0 = none)")
		maxDepth  = flag.Int("max-depth", 0, "bounded model checking: depth limit (0 = none)")
		gcap      = flag.Int("gcap", 0, "global buffer capacity (0 = paper default: never blocks sends)")
		lcap      = flag.Int("lcap", 0, "endpoint input FIFO capacity (0 = paper default)")
		p2p       = flag.Int("p2p", -1, "point-to-point ordered mode with mapping variant 0-3 (-1 = unordered)")
		noRepl    = flag.Bool("no-repl", false, "restrict the workload to loads and stores")
		noSym     = flag.Bool("no-symmetry", false, "disable cache symmetry reduction")
		engine    = flag.String("engine", "auto", "search engine: auto | seq | pipeline | dist (parallel/distributed are BFS only)")
		store     = flag.String("store", "exact", "visited-set mode: exact | compact (hash-compacted)")
		workers   = flag.Int("workers", 1, "parallel BFS workers (0 = GOMAXPROCS; BFS only)")
		shards    = flag.Int("shards", 0, "visited-set shards for the pipeline engine (0 = default)")
		walk      = flag.Int("walk", 0, "instead of exhaustive checking, run N random-workload walks")
		walkSteps = flag.Int("walk-steps", 5000, "steps per random walk")
		invar     = flag.Bool("invariants", false, "check SWMR/bookkeeping invariants on every state")
		trace     = flag.Bool("trace", false, "print the counterexample trace on deadlock/violation")
		seedOwned = flag.Bool("seed-owned", false, "seed the search with caches 0 and 1 owning addresses 0 and 1")
	)
	tel := cliflag.Register(flag.CommandLine, cliflag.FlagAll)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vnverify [flags] <protocol>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	eng, err := mc.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnverify:", err)
		os.Exit(2)
	}
	st, err := mc.ParseStore(*store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnverify:", err)
		os.Exit(2)
	}

	if err := tel.StartPprof(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vnverify: pprof:", err)
		os.Exit(1)
	}

	p, err := loadProtocol(flag.Arg(0), *fromFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnverify:", err)
		os.Exit(1)
	}

	tl := &obs.Timeline{}
	var vn map[string]int
	var numVNs int
	switch *vnMode {
	case "minimal":
		a := vnassign.AssignObserved(p, tl)
		if a.Class != vnassign.Class3 {
			fmt.Printf("%s is %s — no finite per-name assignment exists; "+
				"use -vn permsg to exhibit the deadlock\n", p.Name, a.Class)
			os.Exit(1)
		}
		vn, numVNs = a.VN, a.NumVNs
	case "permsg":
		vn, numVNs = machine.PerMessageVN(p)
	case "uniform":
		vn, numVNs = machine.UniformVN(p)
	case "type":
		vn, numVNs = machine.TypeVN(p, true)
	default:
		fmt.Fprintf(os.Stderr, "vnverify: unknown -vn mode %q\n", *vnMode)
		os.Exit(2)
	}

	cfg := machine.Config{
		Protocol: p, Caches: *caches, Dirs: *dirs, Addrs: *addrs,
		VN: vn, NumVNs: numVNs,
		GlobalCap: *gcap, LocalCap: *lcap,
		NoSymmetry: *noSym,
		Invariants: *invar,
	}
	if *p2p >= 0 {
		cfg.PointToPoint = true
		cfg.P2PVariant = *p2p
	}
	if *noRepl {
		cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
	}
	sys, err := machine.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnverify:", err)
		os.Exit(1)
	}

	if *walk > 0 {
		bad := 0
		for s := 0; s < *walk; s++ {
			res := sys.Walk(int64(s), *walkSteps)
			fmt.Printf("walk seed %d: %v\n", s, res)
			if res.Deadlocked || res.Violation != nil {
				bad++
			}
		}
		if tel.WantArtifact() {
			art := runArtifact(p.Name, *vnMode, numVNs, vn, cfg, mc.Options{}, 0)
			art.Outcome = "walks-ok"
			if bad > 0 {
				art.Outcome = "walks-wedged"
			}
			art.Metrics = map[string]any{"walks": *walk, "walk_steps": *walkSteps, "bad": bad}
			art.Stages = tl.Stages()
			if err := tel.Finish(art, nil, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "vnverify:", err)
				os.Exit(1)
			}
		}
		if bad > 0 {
			fmt.Printf("%d of %d walks wedged or violated\n", bad, *walk)
			os.Exit(1)
		}
		return
	}

	var seeds [][]byte
	if *seedOwned {
		seed, err := machine.OwnedSeed(sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vnverify: seeding:", err)
			os.Exit(1)
		}
		seeds = [][]byte{seed}
	}

	opts := mc.Options{
		MaxStates:     *maxStates,
		MaxDepth:      *maxDepth,
		DisableTraces: !*trace,
		Store:         st,
	}
	if strings.EqualFold(*strategy, "dfs") {
		opts.Strategy = mc.DFS
	}
	tel.Configure(&opts, os.Stderr)

	fmt.Printf("model checking %s: %d caches, %d dirs, %d addrs, %d VNs (%s), %v\n",
		p.Name, *caches, *dirs, *addrs, numVNs, *vnMode, opts.Strategy)
	stop := tl.Start("mc/check")
	res, err := dist.Run(context.Background(), dist.Job{
		Config: cfg, Options: opts,
		Workers: *workers, Peers: tel.Peers(),
		Occupancy: tel.Occupancy,
	}, eng, *shards, seeds)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnverify:", err)
		var unsupported *dist.UnsupportedError
		if errors.As(err, &unsupported) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	fmt.Println(res)
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	if err := tel.WriteTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vnverify: trace-out:", err)
		os.Exit(1)
	}
	occStats, _ := res.Stats.Occupancy.(*icn.OccupancyStats)
	if occStats != nil {
		fmt.Printf("occupancy over %d states: global high water %d/%s, local high water %d/%s\n",
			occStats.StatesObserved,
			occStats.GlobalHighWater, capLabel(occStats.GlobalCap),
			occStats.LocalHighWater, capLabel(occStats.LocalCap))
	}
	if tel.WantArtifact() {
		art := runArtifact(p.Name, *vnMode, numVNs, vn, cfg, opts, *workers)
		art.Params["engine"] = eng.String()
		art.Params["shards"] = *shards
		art.Outcome = res.Outcome.Tag()
		art.Metrics = res.Stats
		art.Stages = tl.Stages()
		if res.Message != "" {
			art.Extra = map[string]any{"message": res.Message}
		}
		if occStats != nil {
			if art.Extra == nil {
				art.Extra = map[string]any{}
			}
			art.Extra["occupancy"] = occStats
		}
		if err := tel.Finish(art, &res.Stats, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "vnverify:", err)
			os.Exit(1)
		}
	}
	if *trace && len(res.Trace) > 0 {
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

// runArtifact records the run configuration for the stats-json
// artifact; the caller fills Outcome, Metrics, and Stages.
func runArtifact(proto, vnMode string, numVNs int, vn map[string]int,
	cfg machine.Config, opts mc.Options, workers int) *obs.Artifact {

	art := obs.NewArtifact("vnverify")
	art.Params["protocol"] = proto
	art.Params["vn_mode"] = vnMode
	art.Params["num_vns"] = numVNs
	art.Params["vn"] = vn
	art.Params["caches"] = cfg.Caches
	art.Params["dirs"] = cfg.Dirs
	art.Params["addrs"] = cfg.Addrs
	art.Params["global_cap"] = cfg.GlobalCap
	art.Params["local_cap"] = cfg.LocalCap
	art.Params["point_to_point"] = cfg.PointToPoint
	art.Params["symmetry"] = !cfg.NoSymmetry
	art.Params["invariants"] = cfg.Invariants
	art.Params["strategy"] = opts.Strategy.String()
	art.Params["store"] = opts.Store.String()
	art.Params["max_states"] = opts.MaxStates
	art.Params["max_depth"] = opts.MaxDepth
	art.Params["workers"] = workers
	return art
}

func loadProtocol(arg string, fromFile bool) (*protocol.Protocol, error) {
	if fromFile {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		return protocol.Decode(data)
	}
	return protocols.Load(arg)
}
