// Command vnstats queries the run ledger: list recent runs, render
// per-protocol performance trends, and attribute regressions between
// two recorded runs.
//
//	vnstats list    -ledger LEDGER.jsonl [-tool T] [-protocol P] [-n 20]
//	vnstats trend   -ledger LEDGER.jsonl [-protocol P] [-json OUT]
//	vnstats compare -ledger LEDGER.jsonl [old-id new-id] [-top 3]
//	                [-expect stage:NAME,rule:NAME,...] [-json OUT]
//	vnstats inject  -ledger LEDGER.jsonl [-slow F] [-stage N=F]
//	                [-rule N=F] [-stripes A-B=F] [-expand F]
//
// compare with no ids diffs the two newest records (after filters).
// inject appends a synthetically perturbed copy of the newest record —
// the deterministic ground truth for the attribution smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: vnstats <list|trend|compare|inject> [flags]")
	fmt.Fprintln(w, "run 'vnstats <subcommand> -h' for flags")
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		return runList(args[1:], stdout, stderr)
	case "trend":
		return runTrend(args[1:], stdout, stderr)
	case "compare":
		return runCompare(args[1:], stdout, stderr)
	case "inject":
		return runInject(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "vnstats: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func openLedger(path string, stderr io.Writer) *ledger.Ledger {
	if path == "" {
		fmt.Fprintln(stderr, "vnstats: -ledger is required")
		return nil
	}
	l, err := ledger.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "vnstats: %v\n", err)
		return nil
	}
	return l
}

// matches applies the shared -tool / -protocol filters.
func matches(e ledger.Entry, tool, proto string) bool {
	if tool != "" && e.Record.Tool != tool {
		return false
	}
	if proto != "" && e.Record.Protocol() != proto {
		return false
	}
	return true
}

func runList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnstats list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("ledger", "", "ledger file (required)")
	tool := fs.String("tool", "", "only records from this tool")
	proto := fs.String("protocol", "", "only records for this protocol")
	n := fs.Int("n", 20, "show the newest n records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	l := openLedger(*path, stderr)
	if l == nil {
		return 2
	}
	defer l.Close()

	var rows []ledger.Entry
	for _, e := range l.Entries() {
		if matches(e, *tool, *proto) {
			rows = append(rows, e)
		}
	}
	if len(rows) > *n {
		rows = rows[len(rows)-*n:]
	}
	fmt.Fprintf(stdout, "%-4s %-12s %-20s %-10s %-28s %-10s %10s %12s\n",
		"seq", "id", "created", "tool", "protocol", "outcome", "states", "states/s")
	for _, e := range rows {
		r := e.Record
		var states int
		var sps float64
		if r.Snapshot != nil {
			states = r.Snapshot.States
			sps = r.Snapshot.StatesPerSec
		}
		fmt.Fprintf(stdout, "%-4d %-12s %-20s %-10s %-28s %-10s %10d %12.0f\n",
			e.Seq, e.ID[:12], r.Created, r.Tool, r.Protocol(), r.Outcome, states, sps)
	}
	fmt.Fprintf(stdout, "%d record(s)\n", len(rows))
	return 0
}

// point is one trend sample; series groups them by subject.
type point struct {
	Seq       int     `json:"seq"`
	Created   string  `json:"created,omitempty"`
	Sps       float64 `json:"states_per_sec"`
	DedupRate float64 `json:"dedup_hit_rate"`
	HeapBytes float64 `json:"heap_bytes"`
}

// trendPoints flattens the ledger into per-protocol samples, one per
// record that carries a final snapshot.
func trendPoints(entries []ledger.Entry, proto string) map[string][]point {
	series := make(map[string][]point)
	for _, e := range entries {
		r := e.Record
		p := r.Protocol()
		if r.Snapshot == nil || p == "" || (proto != "" && p != proto) {
			continue
		}
		series[p] = append(series[p], point{
			Seq: e.Seq, Created: r.Created,
			Sps:       r.Snapshot.StatesPerSec,
			DedupRate: r.Snapshot.DedupHitRate,
			HeapBytes: float64(r.Snapshot.HeapBytes),
		})
	}
	return series
}

// writeResult writes a query's result to its -json path as a run
// record, the same document every other tool leaves behind.
func writeResult(path string, params map[string]any, result any, stdout, stderr io.Writer) bool {
	rec := ledger.New("vnstats")
	rec.Params = params
	rec.Outcome = "ok"
	rec.Extra = map[string]any{"metrics": result}
	if err := rec.WriteFile(path); err != nil {
		fmt.Fprintf(stderr, "vnstats: json: %v\n", err)
		return false
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return true
}

// spark renders values as a unicode sparkline scaled to their range.
func spark(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(ramp)-1))
		}
		b.WriteRune(ramp[i])
	}
	return b.String()
}

func runTrend(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnstats trend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("ledger", "", "ledger file (required)")
	proto := fs.String("protocol", "", "only this protocol")
	jsonOut := fs.String("json", "", "also write the series as a JSON run record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	l := openLedger(*path, stderr)
	if l == nil {
		return 2
	}
	defer l.Close()

	series := trendPoints(l.Entries(), *proto)
	if len(series) == 0 {
		fmt.Fprintln(stdout, "no trend data (records need a snapshot and a protocol)")
		return 0
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pts := series[k]
		sps := make([]float64, len(pts))
		dedup := make([]float64, len(pts))
		heap := make([]float64, len(pts))
		for i, p := range pts {
			sps[i], dedup[i], heap[i] = p.Sps, p.DedupRate, p.HeapBytes
		}
		fmt.Fprintf(stdout, "%s (%d runs)\n", k, len(pts))
		fmt.Fprintf(stdout, "  states/s  last %10.0f   %s\n", sps[len(sps)-1], spark(sps))
		fmt.Fprintf(stdout, "  dedup     last %9.1f%%   %s\n", dedup[len(dedup)-1]*100, spark(dedup))
		fmt.Fprintf(stdout, "  heap      last %10s   %s\n",
			obs.FormatBytes(uint64(heap[len(heap)-1])), spark(heap))
	}
	if *jsonOut != "" && !writeResult(*jsonOut,
		map[string]any{"subcommand": "trend", "ledger": *path, "protocol": *proto},
		map[string]any{"series": series}, stdout, stderr) {
		return 2
	}
	return 0
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnstats compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("ledger", "", "ledger file (required)")
	tool := fs.String("tool", "", "filter: only records from this tool")
	proto := fs.String("protocol", "", "filter: only records for this protocol")
	top := fs.Int("top", 3, "report the top-k contributors")
	jsonOut := fs.String("json", "", "write the attribution as a JSON run record")
	expect := fs.String("expect", "",
		"comma-separated kind:name entries that must appear in the top-k (exit 1 otherwise); name matches by substring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	l := openLedger(*path, stderr)
	if l == nil {
		return 2
	}
	defer l.Close()

	var oldE, newE ledger.Entry
	switch fs.NArg() {
	case 0:
		var rows []ledger.Entry
		for _, e := range l.Entries() {
			if matches(e, *tool, *proto) {
				rows = append(rows, e)
			}
		}
		if len(rows) < 2 {
			fmt.Fprintf(stderr, "vnstats: need 2 matching records to compare, have %d\n", len(rows))
			return 2
		}
		oldE, newE = rows[len(rows)-2], rows[len(rows)-1]
	case 2:
		for i, arg := range []string{fs.Arg(0), fs.Arg(1)} {
			e, ok, err := l.Find(arg)
			if err != nil {
				fmt.Fprintf(stderr, "vnstats: %v\n", err)
				return 2
			}
			if !ok {
				fmt.Fprintf(stderr, "vnstats: no record matches %q\n", arg)
				return 2
			}
			if i == 0 {
				oldE = e
			} else {
				newE = e
			}
		}
	default:
		fmt.Fprintln(stderr, "vnstats compare: pass zero ids (newest two) or exactly two id prefixes")
		return 2
	}

	att := ledger.Attribute(oldE.Record, newE.Record, *top)
	att.OldID, att.NewID = oldE.ID, newE.ID
	fmt.Fprintf(stdout, "comparing %s (seq %d) -> %s (seq %d)\n",
		oldE.ID[:12], oldE.Seq, newE.ID[:12], newE.Seq)
	fmt.Fprintln(stdout, att.Headline())
	if len(att.Contributors) == 0 {
		fmt.Fprintln(stdout, "no contributors above noise floors")
	} else {
		fmt.Fprintln(stdout, "top contributors:")
		for i, c := range att.Contributors {
			fmt.Fprintf(stdout, " %d. %s\n", i+1, c)
		}
	}
	if *jsonOut != "" && !writeResult(*jsonOut,
		map[string]any{"subcommand": "compare", "ledger": *path, "top": *top},
		att, stdout, stderr) {
		return 2
	}
	if *expect != "" {
		if miss := checkExpectations(att.Contributors, *expect); len(miss) > 0 {
			fmt.Fprintf(stderr, "vnstats: expectation(s) not met in top-%d: %s\n",
				*top, strings.Join(miss, ", "))
			return 1
		}
		fmt.Fprintln(stdout, "all expectations met")
	}
	return 0
}

// checkExpectations returns the kind:name entries (comma-separated,
// name matched by substring) absent from the contributor list.
func checkExpectations(cs []ledger.Contributor, expect string) []string {
	var missing []string
	for _, want := range strings.Split(expect, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		kind, name, ok := strings.Cut(want, ":")
		found := false
		for _, c := range cs {
			if ok && c.Kind != kind {
				continue
			}
			target := name
			if !ok {
				target = want
			}
			if strings.Contains(c.Name, target) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	return missing
}

// factorArg parses "name=factor" (factor > 0).
func factorArg(s string) (string, float64, error) {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, fmt.Errorf("want name=factor, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f <= 0 {
		return "", 0, fmt.Errorf("bad factor in %q", s)
	}
	return name, f, nil
}

func runInject(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vnstats inject", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("ledger", "", "ledger file (required)")
	id := fs.String("id", "", "perturb this record (default: newest)")
	slow := fs.Float64("slow", 1, "inflate elapsed time / deflate states/s by this factor")
	stage := fs.String("stage", "", "name=factor: inflate matching stage timers (substring match)")
	rule := fs.String("rule", "", "name=factor: inflate matching rule firings (substring match)")
	stripes := fs.String("stripes", "", "A-B=factor: inflate stripe occupancy in [A,B]")
	expand := fs.Float64("expand", 1, "inflate worker expand time by this factor")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	l := openLedger(*path, stderr)
	if l == nil {
		return 2
	}
	defer l.Close()

	var src ledger.Entry
	if *id != "" {
		e, ok, err := l.Find(*id)
		if err != nil || !ok {
			fmt.Fprintf(stderr, "vnstats: record %q: ok=%v err=%v\n", *id, ok, err)
			return 2
		}
		src = e
	} else {
		last := l.Last(1)
		if len(last) == 0 {
			fmt.Fprintln(stderr, "vnstats: ledger is empty")
			return 2
		}
		src = last[0]
	}

	rec, err := copyRecord(src.Record)
	if err != nil {
		fmt.Fprintf(stderr, "vnstats: %v\n", err)
		return 2
	}
	if err := perturb(rec, *slow, *stage, *rule, *stripes, *expand); err != nil {
		fmt.Fprintf(stderr, "vnstats: %v\n", err)
		return 2
	}
	if rec.Extra == nil {
		rec.Extra = map[string]any{}
	}
	rec.Extra["injected_from"] = src.ID

	newID, dup, err := l.Append(rec)
	if err != nil {
		fmt.Fprintf(stderr, "vnstats: %v\n", err)
		return 2
	}
	if err := l.Sync(); err != nil {
		fmt.Fprintf(stderr, "vnstats: %v\n", err)
		return 2
	}
	if dup {
		fmt.Fprintf(stdout, "injected record already present: %s\n", newID[:12])
	} else {
		fmt.Fprintf(stdout, "injected %s (perturbed copy of %s)\n", newID[:12], src.ID[:12])
	}
	return 0
}

// copyRecord deep-copies via the canonical encoding, so the perturbed
// copy shares nothing with the ledger's in-memory index.
func copyRecord(r *ledger.Record) (*ledger.Record, error) {
	canon, err := r.Encode()
	if err != nil {
		return nil, err
	}
	var out ledger.Record
	if err := json.Unmarshal(canon, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// perturb applies the requested synthetic regression in place.
func perturb(rec *ledger.Record, slow float64, stage, rule, stripes string, expand float64) error {
	snap := rec.Snapshot
	if slow != 1 && snap != nil {
		snap.ElapsedSeconds *= slow
		snap.StatesPerSec /= slow
	}
	if stage != "" {
		name, f, err := factorArg(stage)
		if err != nil {
			return fmt.Errorf("-stage: %w", err)
		}
		hit := false
		for i := range rec.Stages {
			if strings.Contains(rec.Stages[i].Name, name) {
				rec.Stages[i].Seconds *= f
				rec.Stages[i].Max *= f
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("-stage: no stage matches %q", name)
		}
	}
	if rule != "" {
		name, f, err := factorArg(rule)
		if err != nil {
			return fmt.Errorf("-rule: %w", err)
		}
		if snap == nil || len(snap.RuleFirings) == 0 {
			return fmt.Errorf("-rule: record has no rule firings")
		}
		hit := false
		for k := range snap.RuleFirings {
			if strings.Contains(k, name) {
				snap.RuleFirings[k] = int64(math.Round(float64(snap.RuleFirings[k]) * f))
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("-rule: no rule matches %q", name)
		}
	}
	if stripes != "" {
		rng, f, err := factorArg(stripes)
		if err != nil {
			return fmt.Errorf("-stripes: %w", err)
		}
		loS, hiS, ok := strings.Cut(rng, "-")
		lo, err1 := strconv.Atoi(loS)
		hi, err2 := strconv.Atoi(hiS)
		if !ok || err1 != nil || err2 != nil || lo > hi {
			return fmt.Errorf("-stripes: want A-B=factor, got %q", stripes)
		}
		if snap == nil || snap.Health == nil || len(snap.Health.StripeOccupancy) == 0 {
			return fmt.Errorf("-stripes: record has no stripe occupancy")
		}
		occ := snap.Health.StripeOccupancy
		if lo < 0 || hi >= len(occ) {
			return fmt.Errorf("-stripes: range %d-%d outside [0,%d]", lo, hi, len(occ)-1)
		}
		for i := lo; i <= hi; i++ {
			occ[i] = int64(math.Round(float64(occ[i]) * f))
		}
		snap.Health.Resummarize()
	}
	if expand != 1 {
		if snap == nil || snap.Health == nil || len(snap.Health.Workers) == 0 {
			return fmt.Errorf("-expand: record has no worker profile")
		}
		for i := range snap.Health.Workers {
			w := &snap.Health.Workers[i]
			w.ExpandNS = int64(math.Round(float64(w.ExpandNS) * expand))
		}
	}
	return nil
}
