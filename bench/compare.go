package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runCompare applies each end-to-end metric's bound, per workload, to
// two result files of full runs: a is the baseline, b the candidate.
// It prints one row per (workload, metric) and returns 0 when nothing
// regressed, 1 when something did, and 2 when the files cannot be
// compared at all.
func runCompare(paths []string, out io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare baseline.json candidate.json")
		return 2
	}
	var files [2]resultFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := files[0], files[1]
	if diffs := provenanceDiffs(a.Provenance, b.Provenance); len(diffs) > 0 {
		fmt.Fprintln(os.Stderr, "bench: refusing to compare runs made under different conditions:")
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		return 2
	}
	fmt.Fprintf(out, "baseline %s (%.12s)  candidate %s (%.12s)\n", paths[0], a.Provenance.GitCommit, paths[1], b.Provenance.GitCommit)
	fmt.Fprintf(out, "%-24s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	exit := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-24s missing from one file\n", wl.name)
			exit = 1
			continue
		}
		if wb.Failed > 0 {
			fmt.Fprintf(out, "%-24s %d of %d checked operations failed in the candidate\n", wl.name, wb.Failed, wb.Attempted)
			exit = 1
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			verdict, change := judge(m, sa, sb)
			if verdict == "regressed" {
				exit = 1
			}
			fmt.Fprintf(out, "%-24s %-22s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wl.name, m.name, sa.Median, sb.Median, 100*change, 100*m.bound, verdict)
		}
	}
	return exit
}

// provenanceDiffs lists the conditions under which two runs were made
// that differ; numbers from such runs say nothing about the code.
func provenanceDiffs(a, b provenance) []string {
	var d []string
	add := func(what string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s: %v vs %v", what, x, y))
		}
	}
	add("go version", a.GoVersion, b.GoVersion)
	add("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	add("nproc", a.NumCPU, b.NumCPU)
	add("CPU model", a.CPUModel, b.CPUModel)
	add("seed", a.Seed, b.Seed)
	add("seconds", a.Seconds, b.Seconds)
	add("minimum repetitions", a.MinReps, b.MinReps)
	add("smoke sizes", a.Smoke, b.Smoke)
	return d
}

// judge decides one (workload, metric) pair. change is how much worse
// the candidate's median is, as a share of the baseline's (negative =
// better). A pair whose run-to-run spread exceeds the bound is
// unresolved rather than unchanged, unless every candidate run beats
// every baseline run.
func judge(m metricDef, a, b sample) (verdict string, change float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	change = (b.Median - a.Median) / a.Median
	if m.better == "higher" {
		change = -change
	}
	if spread(a.Values) > m.bound || spread(b.Values) > m.bound {
		if allBetter(m, a.Values, b.Values) {
			return "pass", change
		}
		return "unresolved", change
	}
	if change > m.bound {
		return "regressed", change
	}
	return "pass", change
}

func allBetter(m metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if m.better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
