// Command vntable regenerates the paper's Table I end to end: for
// every protocol configuration it runs the static VN-assignment
// algorithm (classification + minimum VN count) and, optionally, the
// model-checking verification of the corresponding experiment —
// deadlock hunts for the Class 2 cells (experiments 2 and 6), bounded
// no-deadlock runs under the minimal assignment for the Class 3 cells
// (experiments 4 and 5). Cells (1) and (3) are not model checked,
// matching the paper's artifact ("protocols in categories (1) and (3)
// of Table I do not need to be evaluated").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"minvn/internal/analysis"
	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

type row struct {
	experiment string
	cell       string
	protos     []string
	expect     string
	mcMode     string // "deadlock", "verify", or "" (not model checked)
}

var tableI = []row{
	{"(1)", "dir never blocks / cache never blocks",
		[]string{"MOSI_nonblocking_cache", "MOESI_nonblocking_cache"}, "1 VN", ""},
	{"(2)", "dir never blocks / cache sometimes blocks",
		[]string{"MOSI_blocking_cache", "MOESI_blocking_cache"}, "deadlocks with 3 VNs", "deadlock"},
	{"(3)", "dir always blocks / cache never blocks",
		nil, "irrelevant", ""},
	{"(4)", "dir always blocks (CHI)",
		[]string{"CHI"}, "2 VN", "verify"},
	{"(5)", "dir sometimes blocks / cache never blocks",
		[]string{"MSI_nonblocking_cache", "MESI_nonblocking_cache"}, "2 VN", "verify"},
	{"(6)", "dir sometimes blocks / cache sometimes blocks",
		[]string{"MSI_blocking_cache", "MESI_blocking_cache"}, "deadlocks with 3 VNs", "deadlock"},
}

// extensionRows are protocols beyond the paper's Table I that slot
// into its cells (enabled with -extensions).
var extensionRows = []row{
	{"(4*)", "dir always blocks (TileLink / completion-MSI)",
		[]string{"TileLink", "MSI_completion"}, "2 VN (extension)", "verify"},
	{"(5**)", "dir sometimes blocks (CXL.cache flavor)",
		[]string{"CXL_cache"}, "2 VN (extension)", "verify"},
	{"(5*)", "dir sometimes blocks (MESIF)",
		[]string{"MESIF_nonblocking_cache"}, "2 VN (extension)", "verify"},
	{"(6*)", "dir sometimes blocks / blocking cache (MESIF)",
		[]string{"MESIF_blocking_cache"}, "deadlocks with 3 VNs (extension)", "deadlock"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vntable", flag.ContinueOnError)
	fs.SetOutput(stderr)
	search := cliflag.Search{Spec: dist.Spec{
		Caches: 3, Dirs: 2, Addrs: 2, MaxStates: 300_000,
		Engine: "auto", Store: "exact", Workers: 1,
	}}
	search.Register(fs, cliflag.SearchSystem|cliflag.SearchEngine|cliflag.SearchWorkers)
	var (
		runMC  = fs.Bool("mc", false, "also run the model-checking verification per cell")
		ext    = fs.Bool("extensions", false, "include the extension protocols (MESIF, TileLink, MSI_completion)")
		family = fs.Bool("family", false, "append the synthesized family rows (non-stalling variants and two-level composites)")
	)
	tel := cliflag.Register(fs, cliflag.FlagProgress|cliflag.FlagStatsJSON|cliflag.FlagPprof|cliflag.FlagTrace|cliflag.FlagLedger|cliflag.FlagDist)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	search.Peers = tel.Peers()

	if err := tel.StartPprof(stderr); err != nil {
		fmt.Fprintln(stderr, "vntable: pprof:", err)
		return 1
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "exp\tconfiguration\tprotocol\tstatic result\ttextbook\texpected (paper)\tmodel checking")
	fmt.Fprintln(w, "---\t-------------\t--------\t-------------\t--------\t----------------\t--------------")

	rows := tableI
	if *ext {
		rows = append(append([]row{}, tableI...), extensionRows...)
	}
	exitCode := 0
	var artRows []map[string]any
	for _, r := range rows {
		if len(r.protos) == 0 {
			fmt.Fprintf(w, "%s\t%s\t-\t%s\t-\t%s\t-\n", r.experiment, r.cell, "irrelevant", r.expect)
			continue
		}
		for _, name := range r.protos {
			p := protocols.MustLoad(name)
			res := analysis.Analyze(p)
			a := vnassign.AssignFromAnalysis(res)
			tb := vnassign.Textbook(res)

			static := staticLabel(a)

			ar := map[string]any{
				"experiment":   r.experiment,
				"protocol":     name,
				"class":        a.Class.String(),
				"static":       static,
				"textbook_vns": tb.NumVNs,
				"expected":     r.expect,
			}
			if a.Class == vnassign.Class3 {
				ar["num_vns"] = a.NumVNs
			}
			mcCol := "-"
			if *runMC && r.mcMode != "" {
				out, ok, mcRes, err := runModelCheck(p, r.mcMode, search.Spec, tel, stderr)
				if err != nil {
					return cliflag.Fail(stderr, "vntable", err)
				}
				mcCol = out
				if !ok {
					exitCode = 1
				}
				ar["mc"] = out
				ar["mc_ok"] = ok
				ar["mc_outcome"] = mcRes.Outcome.Tag()
				ar["mc_stats"] = mcRes.Stats
			}
			artRows = append(artRows, ar)
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d VN\t%s\t%s\n",
				r.experiment, r.cell, name, static, tb.NumVNs, r.expect, mcCol)
		}
	}
	w.Flush()

	if *family {
		if err := printFamily(stdout, &artRows); err != nil {
			return cliflag.Fail(stderr, "vntable", err)
		}
	}

	if err := tel.WriteTrace(stdout); err != nil {
		fmt.Fprintln(stderr, "vntable: trace-out:", err)
		return 1
	}
	rec := ledger.New("vntable")
	rec.Params = search.Params()
	rec.Params["mc"] = *runMC
	rec.Params["extensions"] = *ext
	rec.Outcome = "ok"
	if exitCode != 0 {
		rec.Outcome = "mismatch"
	}
	rec.Extra = map[string]any{"metrics": map[string]any{"rows": artRows}}
	if err := tel.Record(rec, stdout); err != nil {
		return cliflag.Fail(stderr, "vntable", err)
	}
	return exitCode
}

// printFamily appends the synthesized protocol family: every
// built-in's non-stalling variant (stall-on-receive rewritten into
// explicit replay messages) and the two-level composites the sweep in
// cmd/vnsweep model checks. Static analysis only — FAMILY_mc.json
// holds the model-checked half.
func printFamily(stdout io.Writer, artRows *[]map[string]any) error {
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "family synthesis (static; model-checked sweep in FAMILY_mc.json):")
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "derivation\tprotocol\tparent static\tderived static\tmessages")
	fmt.Fprintln(w, "----------\t--------\t-------------\t--------------\t--------")

	emit := func(derivation string, parent, derived *protocol.Protocol) {
		parentStatic := "-"
		var delta string
		if parent != nil {
			parentStatic = staticLabel(vnassign.Assign(parent))
			delta = fmt.Sprintf("%d -> %d", len(parent.Messages), len(derived.Messages))
		} else {
			delta = fmt.Sprintf("%d", len(derived.Messages))
		}
		derivedStatic := staticLabel(vnassign.Assign(derived))
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n",
			derivation, derived.Name, parentStatic, derivedStatic, delta)
		*artRows = append(*artRows, map[string]any{
			"experiment": "family",
			"derivation": derivation,
			"protocol":   derived.Name,
			"parent":     parentStatic,
			"static":     derivedStatic,
		})
	}

	for _, name := range protocols.Names() {
		parent := protocols.MustLoad(name)
		ns, err := xform.NonStalling(parent)
		if err != nil {
			return fmt.Errorf("non-stalling %s: %w", name, err)
		}
		kind := "non-stalling"
		if len(ns.Messages) == len(parent.Messages) {
			kind = "non-stalling (identity)"
		}
		emit(kind, parent, ns)
	}
	for _, c := range []struct{ name, inner, outer string }{
		{"MSI_under_MESI", "MSI_blocking_cache", "MESI_blocking_cache"},
		{"MESI_under_MESI", "MESI_blocking_cache", "MESI_blocking_cache"},
		{"MSInb_under_MESI", "MSI_nonblocking_cache", "MESI_blocking_cache"},
	} {
		comp, err := xform.Compose(protocols.MustLoad(c.inner), protocols.MustLoad(c.outer), c.name)
		if err != nil {
			return fmt.Errorf("compose %s: %w", c.name, err)
		}
		emit(fmt.Sprintf("compose %s under %s", c.inner, c.outer), nil, comp)
	}
	return w.Flush()
}

func staticLabel(a *vnassign.Assignment) string {
	if a.Class == vnassign.Class2 {
		return "Class 2 (no finite assignment)"
	}
	return fmt.Sprintf("%d VN", a.NumVNs)
}

// runModelCheck verifies one cell. For "deadlock" cells, every message
// gets its own VN and the search must find a deadlock anyway (the
// Class 2 signature): a DFS hunt, which only the sequential engine
// runs, seeded with the Fig. 3 ownership prefix and, for the
// never-blocking-directory protocols, restricted to loads and stores
// (see DESIGN.md). For "verify" cells the computed minimal assignment
// must show no deadlock up to the bound, on the engine the flags chose.
// A non-nil error is a fault in the flags (a *dist.RequestError).
func runModelCheck(p *protocol.Protocol, mode string, spec dist.Spec,
	tel *cliflag.Telemetry, stderr io.Writer) (string, bool, mc.Result, error) {

	if mode == "deadlock" {
		spec.VN, spec.Strategy, spec.SeedOwned, spec.Engine = dist.VNPerMessage, "dfs", true, "seq"
		spec.NoReplacement = strings.HasPrefix(p.Name, "MOSI") || strings.HasPrefix(p.Name, "MOESI")
	}
	job, err := spec.Resolve(p, nil)
	if err != nil {
		return "", false, mc.Result{}, err
	}
	if tel.Progress {
		job.Options.Progress = func(s mc.Snapshot) {
			fmt.Fprintf(stderr, "[%s] %s\n", p.Name, s)
		}
		job.Options.ProgressEvery = tel.ProgressEvery
		job.Options.ProgressInterval = tel.ProgressInterval
	}
	// All cells share one recorder; each run contributes its own lanes.
	job.Options.Trace = tel.Recorder()
	res, err := dist.Run(context.Background(), job)
	if err != nil {
		return "error: " + err.Error(), false, res, nil
	}

	switch mode {
	case "deadlock":
		if res.Outcome == mc.Deadlock {
			return fmt.Sprintf("DEADLOCK found (%d states, depth %d)", res.States, res.MaxDepth), true, res, nil
		}
		return fmt.Sprintf("no deadlock within bound (%v)", res), false, res, nil
	default:
		if res.Outcome == mc.Complete {
			return fmt.Sprintf("no deadlock, complete (%d states)", res.States), true, res, nil
		}
		if res.Outcome == mc.Bounded {
			return fmt.Sprintf("no deadlock to depth %d (%d states, bounded)", res.MaxDepth, res.States), true, res, nil
		}
		return res.String() + " " + res.Message, false, res, nil
	}
}
