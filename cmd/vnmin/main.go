// Command vnmin determines the minimum number of virtual networks for
// a coherence protocol and generates the message→VN mapping — the Go
// counterpart of the paper artifact's `python3 main.py <protocol>`.
//
// Usage:
//
//	vnmin [flags] <protocol>
//	vnmin -list
//
// <protocol> is a built-in name (MSI_blocking_cache, CHI, …; see
// -list) or a JSON protocol file (when -file is set).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"minvn/internal/analysis"
	"minvn/internal/cliflag"
	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnmin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list built-in protocols and exit")
		fromFile  = fs.Bool("file", false, "treat the argument as a JSON protocol file")
		tables    = fs.Bool("tables", false, "print the controller transition tables (Figs. 1-2 style)")
		relations = fs.Bool("relations", false, "print the causes/stalls/waits relations")
		textbook  = fs.Bool("textbook", false, "also print the conventional-wisdom VN count")
		export    = fs.String("export", "", "write the protocol as JSON to this file and exit")
		sepData   = fs.Bool("separate-data", false, "designer constraint: keep data and control responses on different VNs")
		enumerate = fs.Int("enumerate", 0, "list up to N distinct minimal assignments")

		progress = fs.Bool("progress", false, "print per-stage pipeline timings to stderr")
	)
	tel := cliflag.Register(fs, cliflag.FlagStatsJSON|cliflag.FlagPprof)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := tel.StartPprof(stderr); err != nil {
		fmt.Fprintln(stderr, "vnmin: pprof:", err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, "Built-in protocols:")
		for _, n := range protocols.Names() {
			fmt.Fprintln(stdout, " ", n)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: vnmin [flags] <protocol> (see -list)")
		fs.PrintDefaults()
		return 2
	}

	p, err := cliflag.LoadProtocol(fs.Arg(0), *fromFile)
	if err != nil {
		fmt.Fprintln(stderr, "vnmin:", err)
		return 1
	}

	if *export != "" {
		data, err := protocol.Encode(p)
		if err == nil {
			err = os.WriteFile(*export, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "vnmin:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *export)
		return 0
	}

	if *tables {
		fmt.Fprintln(stdout, protocol.FormatProtocol(p))
	}

	tl := &obs.Timeline{}
	r := analysis.AnalyzeObserved(p, tl)
	if *relations {
		fmt.Fprintf(stdout, "causes: %v\n", r.Causes)
		fmt.Fprintf(stdout, "stalls: %v\n", r.Stalls)
		fmt.Fprintf(stdout, "waits:  %v\n", r.Waits)
		fmt.Fprintf(stdout, "stallable messages: %s\n\n", strings.Join(r.Stallable, ", "))
	}

	a := vnassign.AssignFromAnalysisObserved(r, tl)
	if *sepData {
		if a, err = vnassign.AssignConstrained(r, vnassign.SeparateDataFromControl(p)); err != nil {
			fmt.Fprintln(stderr, "vnmin:", err)
			return 1
		}
	}
	switch a.Class {
	case vnassign.Class2:
		// Match the artifact's wording for Class 2 protocols.
		fmt.Fprintf(stdout, "%s: The protocol is a Class 2 protocol, Program Exit!\n", p.Name)
		fmt.Fprintf(stdout, "  waits cycle: %s\n", strings.Join(a.WaitsCycle, " -> "))
	default:
		fmt.Fprintf(stdout, "%s: %s\n", p.Name, a.Class)
		fmt.Fprintf(stdout, "  minimum VNs: %d\n", a.NumVNs)
		for i, g := range a.VNGroups() {
			fmt.Fprintf(stdout, "  VN%d = {%s}\n", i, strings.Join(g, ", "))
		}
		if len(a.ConflictPairs) > 0 {
			fmt.Fprintf(stdout, "  conflict pairs: %v\n", a.ConflictPairs)
		}
	}

	if *enumerate > 0 && a.Class == vnassign.Class3 {
		all := vnassign.EnumerateAssignments(r, *enumerate)
		fmt.Fprintf(stdout, "  %d distinct minimal assignment(s):\n", len(all))
		for i, e := range all {
			fmt.Fprintf(stdout, "   %2d. %s\n", i+1, vnassign.GroupsString(e))
		}
	}

	if *textbook {
		tb := vnassign.Textbook(r)
		fmt.Fprintf(stdout, "  textbook (conventional wisdom): %d VNs via chain %s\n",
			tb.NumVNs, strings.Join(tb.Chain, " -> "))
	}

	if *progress {
		for _, st := range tl.Stages() {
			fmt.Fprintf(stderr, "stage %-20s %8.3fms\n", st.Name, st.Seconds*1e3)
		}
	}
	rec := ledger.New("vnmin")
	v := a.Verdict()
	rec.Static, rec.Outcome = &v, v.Outcome
	rec.Stages = tl.Summaries()
	if err := tel.Record(rec, stdout); err != nil {
		return cliflag.Fail(stderr, "vnmin", err)
	}
	return 0
}
