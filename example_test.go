package minvn_test

import (
	"fmt"
	"sort"

	"minvn"
)

// ExampleMinimize reproduces the paper's headline CHI result.
func ExampleMinimize() {
	p, _ := minvn.LoadProtocol("CHI")
	res := minvn.Minimize(p)
	fmt.Println("class:", res.Class)
	fmt.Println("minimum VNs:", res.NumVNs)
	fmt.Println("textbook/spec:", res.Textbook)
	// Output:
	// class: Class 3 (constant VNs suffice)
	// minimum VNs: 2
	// textbook/spec: 4
}

// ExampleMinimize_class2 shows the Class 2 verdict for the Primer's
// blocking-cache MSI.
func ExampleMinimize_class2() {
	p, _ := minvn.LoadProtocol("MSI")
	res := minvn.Minimize(p)
	fmt.Println("class:", res.Class)
	fmt.Println("cycle involves Fwd-GetM:", contains(res.WaitsCycle, "Fwd-GetM"))
	// Output:
	// class: Class 2 (inevitable VN deadlock)
	// cycle involves Fwd-GetM: true
}

// ExampleMinimize_mapping prints a computed mapping.
func ExampleMinimize_mapping() {
	p, _ := minvn.LoadProtocol("MSI_nonblocking_cache")
	res := minvn.Minimize(p)
	var reqs []string
	for m, vn := range res.VN {
		if vn == res.VN["GetS"] {
			reqs = append(reqs, m)
		}
	}
	sort.Strings(reqs)
	fmt.Println(reqs)
	// Output:
	// [GetM GetS PutM PutS]
}

// ExampleVerify model checks a protocol under its minimal assignment.
func ExampleVerify() {
	p, _ := minvn.LoadProtocol("TileLink")
	res, _ := minvn.Verify(p, minvn.VerifyConfig{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 100_000})
	fmt.Println("outcome:", res.Outcome)
	// Output:
	// outcome: complete
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
