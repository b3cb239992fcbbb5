package mc

import (
	"hash/fnv"
	"testing"
)

// The fingerprint/partition functions are shared by the telemetry
// stripes and the distributed engine's process shards; these tables
// pin their exact values so the partition can
// never drift silently — a worker built from an older binary would
// disagree about state ownership the moment any constant changed.

var fphashTable = []struct {
	in     string
	fp     uint64
	mix    uint64
	stripe int
	owner  [6]int // OwnerOf for n = 0..5 (0 and 1 collapse to owner 0)
}{
	{"", 0xcbf29ce484222325, 0xcbf29ce44fd0bfc1, 1, [6]int{0, 0, 1, 0, 1, 0}},
	{"a", 0xaf63dc4c8601ec8c, 0xaf63dc4c296230c0, 0, [6]int{0, 0, 0, 1, 0, 4}},
	{"minvn", 0x8153bd62b7936a87, 0x8153bd6236c0d7e5, 37, [6]int{0, 0, 1, 1, 1, 4}},
	{"virtual-network", 0xba3f90e1e814462b, 0xba3f90e1522bd6ca, 10, [6]int{0, 0, 0, 1, 2, 4}},
	{"\x00\x01\x02\x03", 0x4475327f98e05411, 0x4475327fdc95666e, 46, [6]int{0, 0, 0, 1, 2, 3}},
}

func TestFingerprintPinned(t *testing.T) {
	for _, tc := range fphashTable {
		if got := Fingerprint([]byte(tc.in)); got != tc.fp {
			t.Errorf("Fingerprint(%q) = %#x, want %#x", tc.in, got, tc.fp)
		}
		if got := FingerprintMix(tc.fp); got != tc.mix {
			t.Errorf("FingerprintMix(%#x) = %#x, want %#x", tc.fp, got, tc.mix)
		}
		for n, want := range tc.owner {
			if got := OwnerOf(tc.fp, n); got != want {
				t.Errorf("OwnerOf(%#x, %d) = %d, want %d", tc.fp, n, got, want)
			}
		}
	}
}

// TestFingerprintIsFNV1a64 pins the algorithm itself against the
// standard library's implementation, so the hand-rolled hot-path loop
// can never diverge from FNV-1a 64.
func TestFingerprintIsFNV1a64(t *testing.T) {
	inputs := append([]string{}, "x", "fingerprint", string(make([]byte, 1024)))
	for _, tc := range fphashTable {
		inputs = append(inputs, tc.in)
	}
	for _, in := range inputs {
		h := fnv.New64a()
		h.Write([]byte(in))
		if got, want := Fingerprint([]byte(in)), h.Sum64(); got != want {
			t.Errorf("Fingerprint(%q) = %#x, stdlib fnv-1a = %#x", in, got, want)
		}
	}
}

// TestStripePartitionMatchesHealth pins the telemetry stripe of each
// fingerprint in the table: a change to the mix or to health.Stripes
// moves every stripe histogram in the run records.
func TestStripePartitionMatchesHealth(t *testing.T) {
	for _, tc := range fphashTable {
		if got := stripeOf(tc.fp); got != tc.stripe {
			t.Errorf("stripeOf(%#x) = %d, pinned %d", tc.fp, got, tc.stripe)
		}
	}
}

// TestOwnerOfPartitions checks the ownership map is a total partition:
// every fingerprint has exactly one owner in range for every fleet
// size, and the assignment is reachable (every worker owns something
// under a uniform sweep).
func TestOwnerOfPartitions(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		seen := make([]int, n)
		fp := uint64(0x13198a2e03707344)
		for i := 0; i < 4096; i++ {
			fp ^= fp << 13
			fp ^= fp >> 7
			fp ^= fp << 17
			o := OwnerOf(fp, n)
			if o < 0 || o >= n {
				t.Fatalf("OwnerOf(%#x, %d) = %d out of range", fp, n, o)
			}
			seen[o]++
		}
		for w, c := range seen {
			if c == 0 {
				t.Errorf("n=%d: worker %d owns nothing in a 4096-fingerprint sweep", n, w)
			}
		}
	}
}
