package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func mkBatch(from, depth int, seq uint64, states ...string) *batch {
	b := &batch{From: from, Depth: depth, Seq: seq}
	for _, s := range states {
		b.States = append(b.States, []byte(s))
	}
	return b
}

// encode frames b through the worker's own encoder: its entries in wire
// form, then the one encodeBatch.
func encode(b *batch) ([]byte, error) {
	var entries []byte
	for _, s := range b.States {
		entries = appendEntry(entries, s)
	}
	return encodeBatch(b.From, b.Depth, b.Seq, len(b.States), entries)
}

func TestFrontierRoundTrip(t *testing.T) {
	cases := []*batch{
		mkBatch(0, 0, 0),
		mkBatch(3, 7, 42, "alpha", "", "gamma"),
		mkBatch(1, 2, 3, strings.Repeat("s", MaxEntryBytes)),
	}
	for _, in := range cases {
		data, err := encode(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := decodeBatch(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.From != in.From || out.Depth != in.Depth || out.Seq != in.Seq ||
			len(out.States) != len(in.States) {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
		}
		for i := range in.States {
			if !bytes.Equal(out.States[i], in.States[i]) {
				t.Fatalf("state %d mismatch", i)
			}
		}
		// Entries are lent from the body, not copied out of it: flipping
		// every body byte flips every entry byte.
		for i := range data {
			data[i] ^= 0xff
		}
		for i, s := range out.States {
			for j := range s {
				if s[j] != in.States[i][j]^0xff {
					t.Fatalf("state %d does not alias the body", i)
				}
			}
		}
	}
}

func TestFrontierDecodeRejectsAbuse(t *testing.T) {
	valid, err := encode(mkBatch(1, 2, 3, "state-a", "state-b"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		// Every strict prefix must fail cleanly — no panic, no success.
		for i := 0; i < len(valid); i++ {
			if _, err := decodeBatch(valid[:i]); err == nil {
				t.Fatalf("decode accepted %d-byte prefix of a %d-byte batch", i, len(valid))
			}
		}
	})

	t.Run("trailing-bytes", func(t *testing.T) {
		if _, err := decodeBatch(append(append([]byte(nil), valid...), 0)); err == nil {
			t.Fatal("decode accepted trailing bytes")
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xff
		if _, err := decodeBatch(bad); err == nil {
			t.Fatal("decode accepted corrupted magic")
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		bad := []byte(frontierMagic)
		bad = binary.AppendUvarint(bad, 99)
		if _, err := decodeBatch(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})

	t.Run("oversized-count", func(t *testing.T) {
		// A header claiming 2^40 entries must be rejected by the cap
		// check before any allocation, as a typed *LimitError.
		hdr := []byte(frontierMagic)
		hdr = binary.AppendUvarint(hdr, frontierVersion)
		hdr = binary.AppendUvarint(hdr, 0)     // from
		hdr = binary.AppendUvarint(hdr, 0)     // depth
		hdr = binary.AppendUvarint(hdr, 0)     // seq
		hdr = binary.AppendUvarint(hdr, 1<<40) // count
		_, err := decodeBatch(hdr)
		var le *LimitError
		if !errors.As(err, &le) || le.Section != "entries" || le.Max != MaxBatchEntries {
			t.Fatalf("want entries LimitError, got %v", err)
		}
	})

	t.Run("oversized-entry", func(t *testing.T) {
		hdr := []byte(frontierMagic)
		hdr = binary.AppendUvarint(hdr, frontierVersion)
		hdr = binary.AppendUvarint(hdr, 0)
		hdr = binary.AppendUvarint(hdr, 0)
		hdr = binary.AppendUvarint(hdr, 0)
		hdr = binary.AppendUvarint(hdr, 1)               // one entry
		hdr = binary.AppendUvarint(hdr, MaxEntryBytes+1) // too long
		_, err := decodeBatch(hdr)
		var le *LimitError
		if !errors.As(err, &le) || le.Section != "entry bytes" {
			t.Fatalf("want entry-bytes LimitError, got %v", err)
		}
	})

	t.Run("oversized-batch", func(t *testing.T) {
		if _, err := decodeBatch(make([]byte, MaxBatchBytes+1)); err == nil {
			t.Fatal("decode accepted an over-cap batch body")
		}
	})

	t.Run("encode-count-mismatch", func(t *testing.T) {
		entries := appendEntry(nil, []byte("only-one"))
		for _, count := range []int{0, 2} {
			if _, err := encodeBatch(0, 0, 0, count, entries); err == nil {
				t.Fatalf("encode framed one entry as %d", count)
			}
		}
	})

	t.Run("encode-oversized-entry", func(t *testing.T) {
		entries := appendEntry(nil, make([]byte, MaxEntryBytes+1))
		_, err := encodeBatch(0, 0, 0, 1, entries)
		var le *LimitError
		if !errors.As(err, &le) || le.Section != "entry bytes" {
			t.Fatalf("want entry-bytes LimitError, got %v", err)
		}
	})

	t.Run("encode-too-many-entries", func(t *testing.T) {
		b := &batch{States: make([][]byte, MaxBatchEntries+1)}
		_, err := encode(b)
		var le *LimitError
		if !errors.As(err, &le) || le.Section != "entries" {
			t.Fatalf("want entries LimitError, got %v", err)
		}
	})
}

// endlessReader yields zeros forever and counts what it handed out.
type endlessReader struct{ n int64 }

func (r *endlessReader) Read(p []byte) (int, error) {
	clear(p)
	r.n += int64(len(p))
	return len(p), nil
}

// TestFrontierOversizedBody pins that an over-cap frontier body is
// answered 413 without being read past the cap: not at all when its
// length is declared, through the limited read when it is not.
func TestFrontierOversizedBody(t *testing.T) {
	h := NewWorker().Handler()
	for _, tc := range []struct {
		name     string
		declared int64
		maxRead  int64
	}{
		{"declared", MaxBatchBytes + 1, 0},
		{"unknown-length", -1, MaxBatchBytes + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &endlessReader{}
			req := httptest.NewRequest(http.MethodPost, "/dist/v1/frontier", body)
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d (%s), want 413", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			if body.n > tc.maxRead {
				t.Fatalf("read %d body bytes, at most %d allowed", body.n, tc.maxRead)
			}
		})
	}
}
