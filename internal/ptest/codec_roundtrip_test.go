package ptest

import (
	"testing"

	"minvn/internal/protocol"
)

// TestCodecRoundTripPrints: every built-in and every protocol of the
// static sweep's set prints the same table — rows and columns in the
// same order — after an Encode/Decode round trip, including those whose
// cells alone leave the column order open.
func TestCodecRoundTripPrints(t *testing.T) {
	for _, p := range SweepSet([]int64{3, 11}, 300) {
		enc, err := protocol.Encode(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		q, err := protocol.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if got, want := protocol.FormatProtocol(q), protocol.FormatProtocol(p); got != want {
			t.Errorf("%s prints differently after a round trip:\n%s\nwant\n%s", p.Name, got, want)
		}
	}
}
