// Command vnexplain turns a deadlock counterexample into an
// explanation. It hunts the deadlock the way vntable's Class 2 cells do
// (per-message VNs, DFS from the Fig. 3 ownership prefix by default),
// then annotates the wedged state: every in-flight message with its VN
// and queue position, the stalled queue heads, the active waits/queues
// edges among the message names present, and the blocking cycle that
// closes the deadlock — optionally as a Graphviz dot graph (-dot).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"minvn/internal/analysis"
	"minvn/internal/cliflag"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// newArtifact records the run configuration for the stats-json
// artifact; the caller fills Outcome, Metrics, and Extra.
func newArtifact(proto, vnMode string, numVNs int, cfg machine.Config, opts mc.Options) *obs.Artifact {
	art := obs.NewArtifact("vnexplain")
	art.Params["protocol"] = proto
	art.Params["vn_mode"] = vnMode
	art.Params["num_vns"] = numVNs
	art.Params["caches"] = cfg.Caches
	art.Params["dirs"] = cfg.Dirs
	art.Params["addrs"] = cfg.Addrs
	art.Params["strategy"] = opts.Strategy.String()
	art.Params["max_states"] = opts.MaxStates
	return art
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fromFile  = fs.Bool("file", false, "treat the argument as a JSON protocol file")
		vnMode    = fs.String("vn", "permsg", "VN assignment: permsg | minimal | uniform")
		caches    = fs.Int("caches", 3, "number of caches (paper: 3)")
		dirs      = fs.Int("dirs", 2, "number of directories (paper: 2)")
		addrs     = fs.Int("addrs", 2, "number of addresses (paper: 2)")
		l2s       = fs.Int("l2s", 0, "L2 clusters for two-level protocols (0 = 1 when the protocol is two-level)")
		strategy  = fs.String("strategy", "dfs", "search order: dfs | bfs (dfs finds deep deadlocks cheaply)")
		maxStates = fs.Int("max-states", 600_000, "state limit for the deadlock hunt (0 = none)")
		seedOwned = fs.Bool("seed-owned", true, "seed the search with the Fig. 3 ownership prefix")
		noRepl    = fs.Bool("no-repl", false, "restrict the workload to loads and stores")
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

	p, err := loadProtocol(fs.Arg(0), *fromFile)
	if err != nil {
		fmt.Fprintln(stderr, "vnexplain:", err)
		return 1
	}
	if p.TwoLevel() && *l2s == 0 {
		*l2s = 1
	}

	var vn map[string]int
	var numVNs int
	switch *vnMode {
	case "permsg":
		vn, numVNs = machine.PerMessageVN(p)
	case "minimal":
		a := vnassign.Assign(p)
		if a.Class != vnassign.Class3 {
			fmt.Fprintf(stderr, "vnexplain: %s is %s — no finite per-name assignment; use -vn permsg\n",
				p.Name, a.Class)
			return 1
		}
		vn, numVNs = a.VN, a.NumVNs
	case "uniform":
		vn, numVNs = machine.UniformVN(p)
	default:
		fmt.Fprintf(stderr, "vnexplain: unknown -vn mode %q\n", *vnMode)
		return 2
	}

	cfg := machine.Config{
		Protocol: p, Caches: *caches, Dirs: *dirs, Addrs: *addrs, L2s: *l2s,
		VN: vn, NumVNs: numVNs,
	}
	if *noRepl {
		cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
	}
	sys, err := machine.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "vnexplain:", err)
		return 1
	}

	var model mc.Model = sys
	if *seedOwned {
		seed, err := machine.OwnedSeed(sys)
		if err != nil {
			fmt.Fprintln(stderr, "vnexplain: seeding:", err)
			return 1
		}
		model = &machine.Seeded{System: sys, Seeds: [][]byte{seed}}
	}

	opts := mc.Options{MaxStates: *maxStates, Strategy: mc.DFS}
	if strings.EqualFold(*strategy, "bfs") {
		opts.Strategy = mc.BFS
	}
	tel.Configure(&opts, stderr)
	var prof *machine.OccupancyProfiler
	if tel.Occupancy {
		prof = sys.NewOccupancyProfiler()
		opts.Observer = prof
	}

	if *l2s > 0 {
		fmt.Fprintf(stdout, "hunting a deadlock in %s: %d caches, %d l2s, %d dirs, %d addrs, %d VNs (%s), %v\n",
			p.Name, *caches, *l2s, *dirs, *addrs, numVNs, *vnMode, opts.Strategy)
	} else {
		fmt.Fprintf(stdout, "hunting a deadlock in %s: %d caches, %d dirs, %d addrs, %d VNs (%s), %v\n",
			p.Name, *caches, *dirs, *addrs, numVNs, *vnMode, opts.Strategy)
	}
	res := mc.Check(model, opts)
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
	if tel.WantArtifact() {
		art := newArtifact(p.Name, *vnMode, numVNs, cfg, opts)
		art.Outcome = res.Outcome.Tag()
		art.Metrics = res.Stats
		art.Extra = map[string]any{"report": rep}
		if prof != nil {
			art.Extra["occupancy"] = prof.Stats()
		}
		if err := tel.Finish(art, &res.Stats, stdout); err != nil {
			fmt.Fprintln(stderr, "vnexplain:", err)
			return 1
		}
	}
	return 0
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
