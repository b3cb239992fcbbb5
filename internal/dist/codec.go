package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frontier batch wire format. A batch carries states generated at one
// depth by one worker for one owner, as raw canonical state bytes —
// the receiver recomputes the canonical key and fingerprint with its
// own (identical, see buildSystem) system, so the wire never has
// to be trusted about ownership or identity.
//
//	magic   "MVNF" (4 bytes)
//	version uvarint (currently 1)
//	from    uvarint — sender's worker index
//	depth   uvarint — the depth the carried states were generated AT
//	        (they are candidates for depth+1)
//	seq     uvarint — sender's per-(receiver,depth) batch sequence
//	        number, starting at 0; receivers dedup on (from, depth,
//	        seq) so a retried send after a lost acknowledgement is
//	        idempotent
//	count   uvarint — number of entries
//	entries count × (uvarint length, raw state bytes)
//
// Like the protocol codec, every count and length is capped before a
// single byte of it is allocated, and a violated cap surfaces as a
// typed *LimitError — the decode path is fuzzed (FuzzFrontierDecode)
// with the same discipline as protocol.Decode.
const (
	frontierMagic   = "MVNF"
	frontierVersion = 1

	// MaxBatchEntries caps the states per batch; senders flush at
	// flushEntries, well below it.
	MaxBatchEntries = 4096
	// MaxEntryBytes caps one encoded state. Real states for even the
	// largest built-in configs are tens of bytes; 64KiB is a pure
	// abuse guard.
	MaxEntryBytes = 64 << 10
	// MaxBatchBytes caps the whole encoded batch.
	MaxBatchBytes = 4 << 20

	// flushEntries is the sender-side flush threshold.
	flushEntries = 512
)

// LimitError reports a frontier batch that violated a decode cap.
// Mirrors protocol.LimitError so callers can apply one handling
// discipline to both wire formats.
type LimitError struct {
	Section string // which quantity overflowed ("entries", "entry bytes", "batch bytes")
	Count   int
	Max     int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("dist: frontier %s %d exceeds limit %d", e.Section, e.Count, e.Max)
}

// clampInt converts a wire-supplied uvarint for error reporting
// without wrapping negative (a fuzz finding: a count above MaxInt64
// reported as a negative limit violation).
func clampInt(v uint64) int {
	if v > math.MaxInt {
		return math.MaxInt
	}
	return int(v)
}

// batch is a decoded frontier message.
type batch struct {
	From   int
	Depth  int
	Seq    uint64
	States [][]byte
}

// encodeBatch serializes b. Callers keep batches under the caps by
// construction (flushEntries < MaxBatchEntries); encode still enforces
// them so a bug here can never emit a batch its peer must reject.
func encodeBatch(b *batch) ([]byte, error) {
	if len(b.States) > MaxBatchEntries {
		return nil, &LimitError{Section: "entries", Count: len(b.States), Max: MaxBatchEntries}
	}
	out := make([]byte, 0, 64+len(b.States)*24)
	out = append(out, frontierMagic...)
	out = binary.AppendUvarint(out, frontierVersion)
	out = binary.AppendUvarint(out, uint64(b.From))
	out = binary.AppendUvarint(out, uint64(b.Depth))
	out = binary.AppendUvarint(out, b.Seq)
	out = binary.AppendUvarint(out, uint64(len(b.States)))
	for _, s := range b.States {
		if len(s) > MaxEntryBytes {
			return nil, &LimitError{Section: "entry bytes", Count: len(s), Max: MaxEntryBytes}
		}
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	if len(out) > MaxBatchBytes {
		return nil, &LimitError{Section: "batch bytes", Count: len(out), Max: MaxBatchBytes}
	}
	return out, nil
}

// decodeBatch parses an encoded batch, enforcing every cap before the
// corresponding allocation. The input slice is not retained; entry
// bytes are copied out.
func decodeBatch(data []byte) (*batch, error) {
	if len(data) > MaxBatchBytes {
		return nil, &LimitError{Section: "batch bytes", Count: len(data), Max: MaxBatchBytes}
	}
	if len(data) < len(frontierMagic) || string(data[:len(frontierMagic)]) != frontierMagic {
		return nil, fmt.Errorf("dist: frontier batch: bad magic")
	}
	rest := data[len(frontierMagic):]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("dist: frontier batch: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	ver, err := next("version")
	if err != nil {
		return nil, err
	}
	if ver != frontierVersion {
		return nil, fmt.Errorf("dist: frontier batch: unsupported version %d", ver)
	}
	from, err := next("sender")
	if err != nil {
		return nil, err
	}
	depth, err := next("depth")
	if err != nil {
		return nil, err
	}
	seq, err := next("sequence")
	if err != nil {
		return nil, err
	}
	count, err := next("count")
	if err != nil {
		return nil, err
	}
	if count > MaxBatchEntries {
		return nil, &LimitError{Section: "entries", Count: clampInt(count), Max: MaxBatchEntries}
	}
	b := &batch{From: int(from), Depth: int(depth), Seq: seq, States: make([][]byte, 0, count)}
	for i := uint64(0); i < count; i++ {
		n, err := next("entry length")
		if err != nil {
			return nil, err
		}
		if n > MaxEntryBytes {
			return nil, &LimitError{Section: "entry bytes", Count: clampInt(n), Max: MaxEntryBytes}
		}
		if uint64(len(rest)) < n {
			return nil, fmt.Errorf("dist: frontier batch: truncated entry %d (%d of %d bytes)", i, len(rest), n)
		}
		b.States = append(b.States, append([]byte(nil), rest[:n]...))
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dist: frontier batch: %d trailing bytes", len(rest))
	}
	return b, nil
}
