package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzFrontierDecode hardens the frontier wire decoder the same way
// FuzzProtocolRoundTrip hardens the protocol codec: arbitrary bytes
// must either decode to a batch that survives an encode → decode round
// trip unchanged (non-minimal uvarint spellings may re-encode shorter,
// so the invariant is semantic, not byte-level) or fail with a clean
// error — never panic, never allocate unbounded memory. The seeds
// cover the abuse classes the caps exist for: truncated batches,
// headers with oversized counts, and cap-triggering entry lengths.
func FuzzFrontierDecode(f *testing.F) {
	valid, err := encode(mkBatch(1, 3, 9, "state-a", "state-b", ""))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-entry
	f.Add([]byte(frontierMagic))
	hdr := func(fields ...uint64) []byte {
		b := []byte(frontierMagic)
		for _, v := range fields {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	f.Add(hdr(frontierVersion, 0, 0, 0, 1<<40))              // oversized count
	f.Add(hdr(frontierVersion, 0, 0, 0, 1, MaxEntryBytes+1)) // oversized entry
	f.Add(hdr(frontierVersion, 2, 5, 7, 2, 3))               // entry length past end
	f.Add(hdr(99, 0, 0, 0, 0))                               // bad version

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatch(data, nil)
		if err != nil {
			// Errors are fine; cap violations must be typed.
			var le *LimitError
			if errors.As(err, &le) && le.Count <= le.Max {
				t.Fatalf("LimitError under its own limit: %v", err)
			}
			return
		}
		re, err := encode(&b)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := decodeBatch(re, nil)
		if err != nil {
			t.Fatalf("decode of re-encoded batch failed: %v", err)
		}
		if b2.From != b.From || b2.Depth != b.Depth || b2.Seq != b.Seq ||
			len(b2.States) != len(b.States) {
			t.Fatalf("round trip drift: %+v vs %+v", b2, b)
		}
		for i := range b.States {
			if !bytes.Equal(b2.States[i], b.States[i]) {
				t.Fatalf("round trip drift in state %d", i)
			}
		}
	})
}
