package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
//
// Buffers. A sender copies a batch once, entry by entry as the states
// are generated, into a buffer that keeps room for the header in front
// (newFrame, appendEntry); frameBatch writes the header into that room,
// so the frame is the buffer from the header on. A receiver, on either
// transport, reads the batch into a buffer of its own before it
// acknowledges it (Worker.accept), so an acknowledged frame is its
// sender's to reuse; a frame whose delivery failed is never reused,
// since a transport may still read it. The receiver keeps its buffer
// until it promotes the level, decoding entries into slices it reuses;
// freed frames and buffers serve a worker's next frames and reads
// (Worker.bufs).
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

// frameReserve is the room a frame buffer keeps in front of its entries
// for the header: the magic and five uvarints at their longest.
const frameReserve = len(frontierMagic) + 5*binary.MaxVarintLen64

// newFrame empties buf and reserves the header's room at its front: the
// buffer a sender appends a batch's entries to (appendEntry) as it
// generates them, for frameBatch to frame in place.
func newFrame(buf []byte) []byte {
	return slices.Grow(buf[:0], frameReserve)[:frameReserve]
}

// appendEntry appends s to dst in an entry's wire form: uvarint length,
// then the bytes.
func appendEntry(dst, s []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// frameBatch frames the count entries a sender appended to buf behind
// its reserved room (newFrame) as one batch, without copying them: it
// writes the header into the end of that room and returns the batch,
// buf from the header on. Callers keep batches under the caps by
// construction (flushEntries < MaxBatchEntries); framing still enforces
// them, walking the entries with the decoder's own parser, so a bug
// here can never emit a batch its peer must reject.
func frameBatch(buf []byte, from, depth int, seq uint64, count int) ([]byte, error) {
	if count > MaxBatchEntries {
		return nil, &LimitError{Section: "entries", Count: count, Max: MaxBatchEntries}
	}
	if len(buf) < frameReserve {
		return nil, fmt.Errorf("dist: frontier batch: no header room")
	}
	rest := buf[frameReserve:]
	for i := 0; i < count; i++ {
		var err error
		if _, rest, err = nextEntry(rest, i); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dist: frontier batch: %d bytes past %d entries", len(rest), count)
	}
	var hdr [frameReserve]byte
	h := append(hdr[:0], frontierMagic...)
	h = binary.AppendUvarint(h, frontierVersion)
	h = binary.AppendUvarint(h, uint64(from))
	h = binary.AppendUvarint(h, uint64(depth))
	h = binary.AppendUvarint(h, seq)
	h = binary.AppendUvarint(h, uint64(count))
	out := buf[frameReserve-len(h):]
	copy(out, h)
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
// corresponding allocation, and appends its entries to states; the
// batch's States are what it appended. Entries are lent, not copied:
// each aliases data, which must stay unmodified until the last of them
// has been settled — for a worker, until the level is promoted.
func decodeBatch(data []byte, states [][]byte) (batch, error) {
	b, body, count, err := decodeHeader(data)
	if err != nil {
		return b, err
	}
	all, err := decodeEntries(states, body, count)
	b.States = all[len(states):]
	return b, err
}

// decodeHeader parses a batch's header: the batch less its States, the
// entries' bytes and their number, under the entries cap.
func decodeHeader(data []byte) (b batch, body []byte, count int, err error) {
	if len(data) > MaxBatchBytes {
		return b, nil, 0, &LimitError{Section: "batch bytes", Count: len(data), Max: MaxBatchBytes}
	}
	if len(data) < len(frontierMagic) || string(data[:len(frontierMagic)]) != frontierMagic {
		return b, nil, 0, fmt.Errorf("dist: frontier batch: bad magic")
	}
	rest := data[len(frontierMagic):]
	var fields [5]uint64 // version, sender, depth, sequence, count
	for i, what := range [...]string{"version", "sender", "depth", "sequence", "count"} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return b, nil, 0, fmt.Errorf("dist: frontier batch: truncated %s", what)
		}
		if rest, fields[i] = rest[n:], v; i == 0 && v != frontierVersion {
			return b, nil, 0, fmt.Errorf("dist: frontier batch: unsupported version %d", v)
		}
	}
	if fields[4] > MaxBatchEntries {
		return b, nil, 0, &LimitError{Section: "entries", Count: clampInt(fields[4]), Max: MaxBatchEntries}
	}
	b = batch{From: int(fields[1]), Depth: int(fields[2]), Seq: fields[3]}
	return b, rest, int(fields[4]), nil
}

// decodeEntries appends the count entries that make up body to states.
// On an error states comes back as it was given.
func decodeEntries(states [][]byte, body []byte, count int) ([][]byte, error) {
	out := states
	for i := 0; i < count; i++ {
		var s []byte
		var err error
		if s, body, err = nextEntry(body, i); err != nil {
			return states, err
		}
		out = append(out, s)
	}
	if len(body) != 0 {
		return states, fmt.Errorf("dist: frontier batch: %d trailing bytes", len(body))
	}
	return out, nil
}
