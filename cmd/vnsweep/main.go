// Command vnsweep runs the protocol-family campaign: every built-in in
// its stalling and mechanically derived non-stalling form, plus
// two-level composites, each pushed through the static min-VN analysis
// and bounded model checking on every engine × visited-store
// combination. It emits (or checks) FAMILY_mc.json, the table behind
// the add-vs-compose discussion in EXPERIMENTS.md: removing stalls by
// adding replay messages certifies one VN, while stacking protocols
// into a hierarchy is not statically certifiable at all.
//
// Cross-combination agreement is enforced: all engines and stores must
// report the same outcome, and — when exploration completes — the same
// state and depth counts. Disagreement is an engine bug and fails the
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// runRec is one engine × store bounded-verification result.
type runRec struct {
	Engine  string `json:"engine"`
	Store   string `json:"store"`
	Outcome string `json:"outcome"`
	States  int    `json:"states"`
	Depth   int    `json:"depth"`
	Rules   int    `json:"rules"`
}

// row is one protocol of the family table.
type row struct {
	Protocol string `json:"protocol"`
	Family   string `json:"family"`
	Variant  string `json:"variant"` // stalling | nonstalling | composite
	Inner    string `json:"inner,omitempty"`
	Outer    string `json:"outer,omitempty"`
	// AlreadyNonStalling marks nonstalling rows whose parent had no
	// message stalls — the transform was the identity.
	AlreadyNonStalling bool `json:"already_nonstalling,omitempty"`
	// Workload is "load-store" for the MO* families, whose
	// never-blocking directories overrun the single saved register
	// under eviction workloads (see DESIGN.md); empty means the full
	// core-event set.
	Workload   string   `json:"workload,omitempty"`
	Messages   int      `json:"messages"`
	Class      string   `json:"class"`
	MinVNs     int      `json:"min_vns"` // 0: no finite per-name assignment
	WaitsCycle []string `json:"waits_cycle,omitempty"`
	VNMode     string   `json:"vn_mode"` // minimal | permsg
	NumVNsUsed int      `json:"num_vns_used"`
	Runs       []runRec `json:"runs"`
	Agree      bool     `json:"agree"`
}

// compareRec is one composite of the add-vs-compose summary.
type compareRec struct {
	Protocol        string `json:"protocol"`
	Inner           string `json:"inner"`
	InnerClass      string `json:"inner_class"`
	InnerMinVNs     int    `json:"inner_min_vns"`
	Outer           string `json:"outer"`
	OuterClass      string `json:"outer_class"`
	CompositeClass  string `json:"composite_class"`
	CompositeMinVNs int    `json:"composite_min_vns"`
	MCOutcome       string `json:"mc_outcome"`
}

type familyFile struct {
	Tool    string `json:"tool"`
	Config  config `json:"config"`
	Engines string `json:"engines"`
	Stores  string `json:"stores"`
	Rows    []row  `json:"rows"`

	AddVsCompose struct {
		TransformMinVNs int          `json:"transform_min_vns"`
		Composites      []compareRec `json:"composites"`
		Verdict         string       `json:"verdict"`
	} `json:"add_vs_compose"`
}

type config struct {
	Caches    int `json:"caches"`
	Dirs      int `json:"dirs"`
	Addrs     int `json:"addrs"`
	L2s       int `json:"l2s"` // used for composite rows only
	MaxStates int `json:"max_states"`
}

// composites is the campaign's two-level slice of the family: the two
// canonical blocking stacks, plus a Class 3 inner to show that a
// well-assigned L1 protocol does not rescue the composite's class.
var composites = []struct{ name, inner, outer string }{
	{"MSI_under_MESI", "MSI_blocking_cache", "MESI_blocking_cache"},
	{"MESI_under_MESI", "MESI_blocking_cache", "MESI_blocking_cache"},
	{"MSInb_under_MESI", "MSI_nonblocking_cache", "MESI_blocking_cache"},
}

const verdict = "add wins: every non-stalling variant certifies 1 VN statically " +
	"(empty stalls ⇒ empty waits ⇒ Eq. 4 holds trivially), while two-level " +
	"composition is never statically certifiable — the L2's non-revoking " +
	"outer-forward stalls close a waits cycle even when the inner protocol is " +
	"Class 3 — so the compose route needs per-message VNs and a model checker " +
	"to trust, where the add route needs one VN and a proof."

func main() {
	var (
		out       = flag.String("out", "", "write FAMILY_mc.json to this path")
		check     = flag.String("check", "", "recompute and compare against this existing FAMILY_mc.json")
		caches    = flag.Int("caches", 2, "caches per instance")
		dirs      = flag.Int("dirs", 1, "directories per instance")
		addrs     = flag.Int("addrs", 1, "addresses per instance")
		maxStates = flag.Int("max-states", 4_000_000, "state cap per run (0 = none)")
		engines   = flag.String("engines", "seq,pipeline", "comma-separated in-process engines")
		stores    = flag.String("stores", "exact,compact", "comma-separated visited-set modes")
		workers   = flag.Int("workers", 1, "workers for parallel engines")
		ledgerOut = flag.String("ledger", "", "append the sweep's outcome to the content-addressed run ledger at this path")
	)
	flag.Parse()
	if *out == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "vnsweep: need -out or -check")
		os.Exit(2)
	}

	ff, err := sweep(config{*caches, *dirs, *addrs, 1, *maxStates}, *engines, *stores, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnsweep:", err)
		os.Exit(1)
	}

	disagree := 0
	for _, r := range ff.Rows {
		status := "ok"
		if !r.Agree {
			status = "DISAGREE"
			disagree++
		}
		fmt.Printf("%-42s %-12s %-8s minVN=%d %-9s %8d states  %s\n",
			r.Protocol, r.Variant, r.Class, r.MinVNs, r.Runs[0].Outcome, r.Runs[0].States, status)
	}

	if *out != "" {
		if err := writeJSON(*out, ff); err != nil {
			fmt.Fprintln(os.Stderr, "vnsweep:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *out, len(ff.Rows))
	}
	if *check != "" {
		if err := checkAgainst(*check, ff); err != nil {
			fresh := *check + ".fresh"
			if werr := writeJSON(fresh, ff); werr == nil {
				fmt.Fprintf(os.Stderr, "vnsweep: fresh results left in %s\n", fresh)
			}
			fmt.Fprintln(os.Stderr, "vnsweep: check failed:", err)
			os.Exit(1)
		}
		fmt.Printf("%s agrees with recomputed family (%d rows)\n", *check, len(ff.Rows))
	}
	if *ledgerOut != "" {
		if err := recordSweep(*ledgerOut, ff, disagree); err != nil {
			fmt.Fprintln(os.Stderr, "vnsweep: ledger:", err)
			os.Exit(1)
		}
	}
	if disagree > 0 {
		fmt.Fprintf(os.Stderr, "vnsweep: %d rows with engine/store disagreement\n", disagree)
		os.Exit(1)
	}
}

// recordSweep appends one ledger record summarizing the whole campaign:
// the sweep config, row count, and per-row class/minVN/outcome — enough
// for vnstats to track family drift across commits without replaying
// FAMILY_mc.json.
func recordSweep(path string, ff *familyFile, disagree int) error {
	art := obs.NewArtifact("vnsweep")
	art.Params["caches"] = ff.Config.Caches
	art.Params["dirs"] = ff.Config.Dirs
	art.Params["addrs"] = ff.Config.Addrs
	art.Params["max_states"] = ff.Config.MaxStates
	art.Params["engines"] = ff.Engines
	art.Params["stores"] = ff.Stores
	art.Outcome = "ok"
	if disagree > 0 {
		art.Outcome = "disagree"
	}
	rows := make([]map[string]any, 0, len(ff.Rows))
	for _, r := range ff.Rows {
		rows = append(rows, map[string]any{
			"protocol": r.Protocol, "variant": r.Variant,
			"class": r.Class, "min_vns": r.MinVNs, "agree": r.Agree,
		})
	}
	art.Metrics = map[string]any{"rows": len(ff.Rows), "disagree": disagree}
	art.Extra = map[string]any{"family": rows}

	l, err := ledger.Open(path)
	if err != nil {
		return err
	}
	defer l.Close()
	id, dup, err := l.Append(ledger.FromArtifact(art))
	if err != nil {
		return err
	}
	if dup {
		fmt.Printf("ledger: %s already recorded (%s)\n", id[:12], path)
	} else {
		fmt.Printf("ledger: recorded %s (%s)\n", id[:12], path)
	}
	return nil
}

// sweep computes the full family table.
func sweep(cfg config, engines, stores string, workers int) (*familyFile, error) {
	ff := &familyFile{Tool: "vnsweep", Config: cfg, Engines: engines, Stores: stores}

	type job struct {
		p       *protocol.Protocol
		family  string
		variant string
		inner   string
		outer   string
		ident   bool
	}
	var jobs []job
	for _, name := range protocols.Names() {
		p := protocols.MustLoad(name)
		jobs = append(jobs, job{p: p, family: name, variant: "stalling"})
		ns, err := xform.NonStalling(p)
		if err != nil {
			return nil, fmt.Errorf("non-stalling %s: %w", name, err)
		}
		jobs = append(jobs, job{
			p: ns, family: name, variant: "nonstalling",
			ident: len(ns.Messages) == len(p.Messages),
		})
	}
	classOf := map[string]*vnassign.Assignment{}
	for _, c := range composites {
		p, err := xform.Compose(protocols.MustLoad(c.inner), protocols.MustLoad(c.outer), c.name)
		if err != nil {
			return nil, fmt.Errorf("compose %s: %w", c.name, err)
		}
		jobs = append(jobs, job{p: p, family: c.name, variant: "composite", inner: c.inner, outer: c.outer})
	}

	for _, j := range jobs {
		a := vnassign.Assign(j.p)
		classOf[j.p.Name] = a
		r := row{
			Protocol: j.p.Name, Family: j.family, Variant: j.variant,
			Inner: j.inner, Outer: j.outer, AlreadyNonStalling: j.ident,
			Messages: len(j.p.Messages), Class: a.Class.String(),
		}
		vn, numVNs := machine.PerMessageVN(j.p)
		r.VNMode = "permsg"
		if a.Class == vnassign.Class3 {
			vn, numVNs = a.VN, a.NumVNs
			r.MinVNs = a.NumVNs
			r.VNMode = "minimal"
		} else {
			r.WaitsCycle = a.WaitsCycle
		}
		r.NumVNsUsed = numVNs

		mcfg := machine.Config{
			Protocol: j.p, Caches: cfg.Caches, Dirs: cfg.Dirs, Addrs: cfg.Addrs,
			VN: vn, NumVNs: numVNs,
		}
		if j.p.TwoLevel() {
			mcfg.L2s = cfg.L2s
		}
		if strings.HasPrefix(j.family, "MO") {
			mcfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
			r.Workload = "load-store"
		}
		sys, err := machine.New(mcfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.p.Name, err)
		}
		for _, engName := range strings.Split(engines, ",") {
			eng, err := mc.ParseEngine(strings.TrimSpace(engName))
			if err != nil {
				return nil, err
			}
			if eng == mc.EngineDist {
				return nil, fmt.Errorf("engine dist is not swept: the sweep compares in-process engines on one built system")
			}
			for _, stName := range strings.Split(stores, ",") {
				st, err := mc.ParseStore(strings.TrimSpace(stName))
				if err != nil {
					return nil, err
				}
				res := mc.CheckEngine(sys, mc.Options{
					MaxStates: cfg.MaxStates, DisableTraces: true, Store: st,
				}, eng, workers, 0)
				r.Runs = append(r.Runs, runRec{
					Engine: eng.String(), Store: st.String(),
					Outcome: res.Outcome.Tag(), States: res.States,
					Depth: res.MaxDepth, Rules: res.Rules,
				})
			}
		}
		r.Agree = agrees(r.Runs)
		ff.Rows = append(ff.Rows, r)
	}

	ff.AddVsCompose.TransformMinVNs = 1
	ff.AddVsCompose.Verdict = verdict
	for _, c := range composites {
		ia, oa := classOf[protocols.MustLoad(c.inner).Name], classOf[protocols.MustLoad(c.outer).Name]
		if ia == nil {
			ia = vnassign.Assign(protocols.MustLoad(c.inner))
		}
		if oa == nil {
			oa = vnassign.Assign(protocols.MustLoad(c.outer))
		}
		ca := classOf[c.name]
		var outcome string
		for _, r := range ff.Rows {
			if r.Protocol == c.name {
				outcome = r.Runs[0].Outcome
			}
		}
		ff.AddVsCompose.Composites = append(ff.AddVsCompose.Composites, compareRec{
			Protocol: c.name,
			Inner:    c.inner, InnerClass: ia.Class.String(), InnerMinVNs: ia.NumVNs,
			Outer: c.outer, OuterClass: oa.Class.String(),
			CompositeClass: ca.Class.String(), CompositeMinVNs: ca.NumVNs,
			MCOutcome: outcome,
		})
	}
	return ff, nil
}

// agrees enforces the cross-combination contract: identical outcomes
// always; identical state and depth counts when exploration completed.
// Bounded and deadlock searches stop at engine-dependent frontiers, so
// their counts legitimately differ.
func agrees(runs []runRec) bool {
	for _, r := range runs[1:] {
		if r.Outcome != runs[0].Outcome {
			return false
		}
		if runs[0].Outcome == mc.Complete.Tag() &&
			(r.States != runs[0].States || r.Depth != runs[0].Depth) {
			return false
		}
	}
	return true
}

func writeJSON(path string, ff *familyFile) error {
	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkAgainst compares the stable columns of a recomputed family
// against a checked-in FAMILY_mc.json: row set, class, min-VN, and
// per-run outcomes (plus states/depth for completed runs). Timing and
// frontier-dependent counts are not compared.
func checkAgainst(path string, fresh *familyFile) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old familyFile
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if old.Config != fresh.Config || old.Engines != fresh.Engines || old.Stores != fresh.Stores {
		return fmt.Errorf("configuration drift: checked-in %+v %q %q vs %+v %q %q — regenerate with -out",
			old.Config, old.Engines, old.Stores, fresh.Config, fresh.Engines, fresh.Stores)
	}
	oldRows := map[string]row{}
	for _, r := range old.Rows {
		oldRows[r.Protocol] = r
	}
	if len(old.Rows) != len(fresh.Rows) {
		return fmt.Errorf("row count drift: %d checked in, %d recomputed", len(old.Rows), len(fresh.Rows))
	}
	for _, fr := range fresh.Rows {
		or, ok := oldRows[fr.Protocol]
		if !ok {
			return fmt.Errorf("row %s missing from %s", fr.Protocol, path)
		}
		if or.Class != fr.Class || or.MinVNs != fr.MinVNs || or.Variant != fr.Variant ||
			or.Messages != fr.Messages || or.NumVNsUsed != fr.NumVNsUsed {
			return fmt.Errorf("row %s drifted: checked-in class=%s minVN=%d msgs=%d, recomputed class=%s minVN=%d msgs=%d",
				fr.Protocol, or.Class, or.MinVNs, or.Messages, fr.Class, fr.MinVNs, fr.Messages)
		}
		if len(or.Runs) != len(fr.Runs) {
			return fmt.Errorf("row %s: run matrix drift (%d vs %d)", fr.Protocol, len(or.Runs), len(fr.Runs))
		}
		for i, frun := range fr.Runs {
			orun := or.Runs[i]
			if orun.Engine != frun.Engine || orun.Store != frun.Store || orun.Outcome != frun.Outcome {
				return fmt.Errorf("row %s %s/%s: outcome %s checked in, %s recomputed",
					fr.Protocol, frun.Engine, frun.Store, orun.Outcome, frun.Outcome)
			}
			if frun.Outcome == mc.Complete.Tag() &&
				(orun.States != frun.States || orun.Depth != frun.Depth) {
				return fmt.Errorf("row %s %s/%s: states/depth drift (%d/%d vs %d/%d)",
					fr.Protocol, frun.Engine, frun.Store,
					orun.States, orun.Depth, frun.States, frun.Depth)
			}
		}
	}
	return nil
}
