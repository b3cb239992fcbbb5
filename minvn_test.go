package minvn_test

import (
	"testing"

	"minvn"
)

// TestMinimizeCHI is the package's headline claim in test form.
func TestMinimizeCHI(t *testing.T) {
	p, err := minvn.LoadProtocol("CHI")
	if err != nil {
		t.Fatal(err)
	}
	res := minvn.Minimize(p)
	if res.Class != minvn.Class3 || res.NumVNs != 2 {
		t.Fatalf("CHI: class %v, %d VNs; want Class 3 with 2", res.Class, res.NumVNs)
	}
	if res.Textbook != 4 {
		t.Fatalf("CHI textbook = %d, want 4", res.Textbook)
	}
}

func TestMinimizeClass2(t *testing.T) {
	p, err := minvn.LoadProtocol("MSI") // alias for the blocking-cache MSI
	if err != nil {
		t.Fatal(err)
	}
	res := minvn.Minimize(p)
	if res.Class != minvn.Class2 || len(res.WaitsCycle) == 0 {
		t.Fatalf("MSI blocking: %+v", res)
	}
}

func TestProtocolNamesAndAliases(t *testing.T) {
	if len(minvn.ProtocolNames()) < 10 {
		t.Fatalf("names = %v", minvn.ProtocolNames())
	}
	if _, err := minvn.LoadProtocol("no-such-protocol"); err == nil {
		t.Fatal("expected error for unknown protocol")
	}
}

func TestVerifySmallComplete(t *testing.T) {
	p, err := minvn.LoadProtocol("MSI_nonblocking_cache")
	if err != nil {
		t.Fatal(err)
	}
	res, err := minvn.Verify(p, minvn.VerifyConfig{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "complete" || res.Protocol != "MSI_nonblocking_cache" || res.Options.MaxStates != 100_000 {
		t.Fatalf("verify = %+v", res)
	}
}

func TestVerifyRejectsClass2Minimal(t *testing.T) {
	p, _ := minvn.LoadProtocol("MSI_blocking_cache")
	if _, err := minvn.Verify(p, minvn.VerifyConfig{Caches: 2, Dirs: 1, Addrs: 1}); err == nil {
		t.Fatal("expected an error asking for per-message VNs")
	}
}

func TestFacadeConstrainedAndEnumerate(t *testing.T) {
	p, err := minvn.LoadProtocol("CHI")
	if err != nil {
		t.Fatal(err)
	}
	res, err := minvn.MinimizeConstrained(p, minvn.SeparateDataFromControl(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumVNs != 3 {
		t.Fatalf("constrained CHI VNs = %d, want 3", res.NumVNs)
	}
	if got := minvn.EnumerateMinimal(p, 8); len(got) != 1 {
		t.Fatalf("CHI enumerations = %d, want 1", len(got))
	}
}

func TestFacadeOrderedAndInvariants(t *testing.T) {
	p, err := minvn.LoadProtocol("MOSI_nonblocking_cache")
	if err != nil {
		t.Fatal(err)
	}
	res, err := minvn.Verify(p, minvn.VerifyConfig{
		Caches: 2, Dirs: 1, Addrs: 1,
		MaxStates:  2_000_000,
		Invariants: true,
		Ordered:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "complete" || !res.Options.Invariants || res.Options.P2P == nil {
		t.Fatalf("ordered MOSI verify: %+v", res)
	}
}
