package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frontier batch wire format. A batch carries states generated at one
// depth by one worker for one owner, as raw state bytes — the receiver
// recomputes the canonical key and fingerprint with its own
// (identical, see Worker.init) system, so the wire never has to be
// trusted about ownership or identity.
//
//	magic   "MVNF" (4 bytes)
//	version uvarint (currently 1)
//	from    uvarint — sender's worker index
//	depth   uvarint — the depth the carried states were generated AT
//	        (they are candidates for depth+1)
//	seq     uvarint — the sender's batch number, one counter per sender
//	        for the whole run; a receiver dedups on (from, seq) among
//	        its current depth's batches, so a retried send after a lost
//	        acknowledgement is idempotent
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

// batch is a decoded frontier message. Its States alias the body it was
// decoded from.
type batch struct {
	From   int
	Depth  int
	Seq    uint64
	States [][]byte
}

// appendEntry appends s to dst in an entry's wire form: uvarint length,
// then the bytes. A sender builds a batch's entries this way as it
// generates them, and encodeBatch frames them.
func appendEntry(dst, s []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// encodeBatch frames count entries, already in wire form (appendEntry),
// as one batch, in a new buffer: the caller may reuse entries at once,
// and the result is never written again, so a retried or still
// in-flight send can read it for as long as it likes. Callers keep
// batches under the caps by construction (flushEntries <
// MaxBatchEntries); encode still enforces them, walking the entries
// with the decoder's own parser, so a bug here can never emit a batch
// its peer must reject.
func encodeBatch(from, depth int, seq uint64, count int, entries []byte) ([]byte, error) {
	if count > MaxBatchEntries {
		return nil, &LimitError{Section: "entries", Count: count, Max: MaxBatchEntries}
	}
	out := make([]byte, 0, 5*binary.MaxVarintLen64+len(frontierMagic)+len(entries))
	out = append(out, frontierMagic...)
	out = binary.AppendUvarint(out, frontierVersion)
	out = binary.AppendUvarint(out, uint64(from))
	out = binary.AppendUvarint(out, uint64(depth))
	out = binary.AppendUvarint(out, seq)
	out = binary.AppendUvarint(out, uint64(count))
	rest := entries
	for i := 0; i < count; i++ {
		var err error
		if _, rest, err = nextEntry(rest, i); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dist: frontier batch: %d bytes past %d entries", len(rest), count)
	}
	out = append(out, entries...)
	if len(out) > MaxBatchBytes {
		return nil, &LimitError{Section: "batch bytes", Count: len(out), Max: MaxBatchBytes}
	}
	return out, nil
}

// nextEntry splits entry i off the front of rest, enforcing the entry
// cap before anything of it is used.
func nextEntry(rest []byte, i int) (entry, tail []byte, err error) {
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, nil, fmt.Errorf("dist: frontier batch: truncated entry length")
	}
	if n > MaxEntryBytes {
		return nil, nil, &LimitError{Section: "entry bytes", Count: clampInt(n), Max: MaxEntryBytes}
	}
	rest = rest[w:]
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("dist: frontier batch: truncated entry %d (%d of %d bytes)", i, len(rest), n)
	}
	return rest[:n:n], rest[n:], nil
}

// decodeBatch parses an encoded batch, enforcing every cap before the
// corresponding allocation. Entries are lent, not copied: each aliases
// data, which must stay unmodified until the last of them has been
// settled — for a worker, until the level is promoted.
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
	b := &batch{From: int(from), Depth: int(depth), Seq: seq, States: make([][]byte, count)}
	for i := range b.States {
		if b.States[i], rest, err = nextEntry(rest, i); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dist: frontier batch: %d trailing bytes", len(rest))
	}
	return b, nil
}
