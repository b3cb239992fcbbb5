package ptest

import (
	"testing"

	"minvn/internal/analysis"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// familyPins pins every built-in family's static answer and its
// non-stalling variant's answer relative to it. minVNs == 0 means
// Class 2 (no finite per-name assignment). The non-stalling variant of
// every family must land at Class 3 with exactly one VN — strictly
// below any Class 3 parent and a class upgrade for every Class 2
// parent — which is the "add message types" half of the paper's
// trade-off, differentially enforced.
var familyPins = []struct {
	name    string
	minVNs  int // stalling parent; 0 = Class 2
	variant int // non-stalling variant (always 1 today; kept explicit)
}{
	{"CHI", 2, 1},
	{"CXL_cache", 2, 1},
	{"MESIF_blocking_cache", 0, 1},
	{"MESIF_nonblocking_cache", 2, 1},
	{"MESI_blocking_cache", 0, 1},
	{"MESI_nonblocking_cache", 2, 1},
	{"MOESI_blocking_cache", 0, 1},
	{"MOESI_nonblocking_cache", 1, 1},
	{"MOSI_blocking_cache", 0, 1},
	{"MOSI_nonblocking_cache", 1, 1},
	{"MSI_blocking_cache", 0, 1},
	{"MSI_class1", 0, 1},
	{"MSI_completion", 2, 1},
	{"MSI_nonblocking_cache", 2, 1},
	{"TileLink", 2, 1},
}

// TestFamilyMinVNDifferential pins the static family table: every
// built-in's class and min-VN, and its non-stalling variant's min-VN
// relative to it.
func TestFamilyMinVNDifferential(t *testing.T) {
	pinned := map[string]bool{}
	for _, pin := range familyPins {
		pinned[pin.name] = true
	}
	for _, name := range protocols.Names() {
		if !pinned[name] {
			t.Errorf("built-in %s has no family pin — add it to familyPins", name)
		}
	}

	for _, pin := range familyPins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			parent := protocols.MustLoad(pin.name)
			pa := vnassign.Assign(parent)
			switch {
			case pin.minVNs == 0:
				if pa.Class != vnassign.Class2 {
					t.Fatalf("parent class = %v, want Class 2", pa.Class)
				}
			default:
				if pa.Class != vnassign.Class3 || pa.NumVNs != pin.minVNs {
					t.Fatalf("parent = %v, want Class 3 with %d VN(s)", pa, pin.minVNs)
				}
			}

			ns, err := xform.NonStalling(parent)
			if err != nil {
				t.Fatal(err)
			}
			r := analysis.Analyze(ns)
			va := vnassign.AssignFromAnalysis(r)
			if va.Class != vnassign.Class3 || va.NumVNs != pin.variant {
				t.Fatalf("variant = %v, want Class 3 with %d VN(s)", va, pin.variant)
			}
			// The variant never needs more VNs than a Class 3 parent.
			if pin.minVNs > 0 && va.NumVNs > pin.minVNs {
				t.Errorf("variant needs %d VNs, parent needed %d", va.NumVNs, pin.minVNs)
			}
			// And its assignment satisfies Eq. 4 outright.
			if ok, cyc := analysis.DeadlockFree(r, va.VN); !ok {
				t.Errorf("variant assignment fails Eq. 4: %v", cyc)
			}
		})
	}
}

// TestFamilyVariantsCleanUnderHarness cross-checks the derived family
// members dynamically: the harness runs its three oracles over every
// engine × store combination at the paper configuration. The MO*
// families are excluded (protocols.LoadStoreOnly): their built-in
// tables are incomplete under eviction workloads, which the harness
// reports as dyn-invalid before any oracle applies.
func TestFamilyVariantsCleanUnderHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("model-checking matrix")
	}
	opts := testOpts()
	opts.Stores = []mc.Store{mc.StoreExact, mc.StoreCompact}

	var cases []*protocol.Protocol
	for _, pin := range familyPins {
		if protocols.LoadStoreOnly(pin.name) {
			continue
		}
		ns, err := xform.NonStalling(protocols.MustLoad(pin.name))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ns)
	}
	for _, c := range Composites[:2] { // the two blocking stacks
		comp, err := xform.Compose(protocols.MustLoad(c.Inner), protocols.MustLoad(c.Outer), c.Name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, comp)
	}

	for _, p := range cases {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res := RunCase(p, opts)
			if res.Verdict.IsViolation() {
				t.Fatalf("oracle violation: %s", res.Summary())
			}
			switch res.Verdict {
			case VerdictOK, VerdictClass2:
				// Class 3 variants must pass both phases; composites are
				// Class 2 (the L2's outer-forward stalls close a waits
				// cycle) and check engine parity only.
			default:
				t.Fatalf("unexpected verdict: %s", res.Summary())
			}
		})
	}
}
