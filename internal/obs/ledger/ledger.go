// Package ledger holds the one run document, Record, and the repo's
// durable observability plane built on it: an append-only,
// content-addressed history of runs. A Record captures one CLI run or
// one vnserved job — provenance, what was asked and answered (a
// verification's dist.Verdict, a static analysis' vnassign.Verdict, or
// a tool's parameters and outcome), the final mc.Snapshot (including
// health stripes and occupancy), and stage-timer summaries. New is its
// only constructor and it has two writers, WriteFile (a -stats-json
// file, indented) and Ledger.Append (one canonical JSON line), which
// emit the same bytes modulo whitespace.
// The record's identity is the SHA-256 of the canonical line, so the
// same run recorded twice (or shipped between replicas) dedups to one
// record, and the index can always be rebuilt by rehashing the file.
//
// The ledger is strictly passive: engines and servers append after the
// fact and never read it on the hot path.
package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/vnassign"
)

// Record is one run in the ledger. The JSON field order (struct fields
// in declaration order, map keys sorted by the canonical encoder) is
// part of the on-disk contract: two semantically identical records must
// produce identical bytes. A verification states what was asked and
// answered as Verdict, a static analysis (vnmin, a vnserved analyze job)
// as Static, and Outcome repeats either's; Params is what other tools,
// and runs recorded before verdicts, were asked.
type Record struct {
	Tool       string             `json:"tool"`
	Created    string             `json:"created,omitempty"`
	Provenance obs.Provenance     `json:"provenance"`
	Params     map[string]any     `json:"params,omitempty"`
	Verdict    *dist.Verdict      `json:"verdict,omitempty"`
	Static     *vnassign.Verdict  `json:"static,omitempty"`
	Outcome    string             `json:"outcome,omitempty"`
	Snapshot   *mc.Snapshot       `json:"snapshot,omitempty"`
	Stages     []obs.StageSummary `json:"stages,omitempty"`
	Extra      map[string]any     `json:"extra,omitempty"`
}

// New starts the record of one run of tool, stamped with the current
// time and the producing binary's provenance. Every run document is
// born here; the caller fills in what was asked and answered (Verdict,
// Static, or Params and Outcome), the final Snapshot, where the time
// went (Stages) and any tool-specific payload (Extra).
func New(tool string) *Record {
	return &Record{
		Tool:       tool,
		Created:    time.Now().Format(time.RFC3339),
		Provenance: obs.CollectProvenance(),
		Params:     make(map[string]any),
	}
}

// Protocol is the protocol the run was about: its Verdict's or Static's,
// else the params.protocol older and other records wrote, else "".
func (r *Record) Protocol() string {
	if r.Verdict != nil {
		return r.Verdict.Protocol
	}
	if r.Static != nil {
		return r.Static.Protocol
	}
	p, _ := r.Params["protocol"].(string)
	return p
}

// Encode renders the record in the ledger's canonical byte-stable form:
// compact JSON with every object's keys sorted. Canonicalization round-
// trips through generic values, so all numbers pass through float64 —
// exact for every counter this repo emits (all far below 2^53).
func (r *Record) Encode() ([]byte, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// WriteFile writes the canonical encoding to path, indented for people
// and scripts. Decoding the file and re-encoding it yields the ledger
// line byte for byte, so a run's -stats-json file and its -ledger entry
// share one content address.
func (r *Record) WriteFile(path string) error {
	canon, err := r.Encode()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, canon, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// IDOf is the content address of a canonical record line.
func IDOf(canonical []byte) string {
	h := sha256.Sum256(canonical)
	return hex.EncodeToString(h[:])
}

// Entry is a record plus its position and content address.
type Entry struct {
	Seq    int    // 0-based append order
	ID     string // SHA-256 of the canonical record bytes
	Record *Record
}

// Ledger is an append-only JSONL file with an in-memory content index.
// One writer process at a time; readers may share the file.
type Ledger struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	index   map[string]int // id -> seq
	entries []Entry
}

// Open opens (creating if needed) the ledger at path and rebuilds the
// content index by rehashing every line. A torn trailing line — a crash
// mid-append left bytes with no newline — was never durable; it is
// truncated away so the next append starts on a clean boundary.
func Open(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Ledger{path: path, f: f, index: make(map[string]int)}
	if err := l.load(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Ledger) load() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rd := bufio.NewReaderSize(l.f, 1<<16)
	var off int64
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// Torn tail from a crash mid-append: drop it.
				if terr := l.f.Truncate(off); terr != nil {
					return fmt.Errorf("ledger %s: truncating torn tail: %w", l.path, terr)
				}
			}
			break
		}
		if err != nil {
			return err
		}
		off += int64(len(line))
		canon := bytes.TrimSuffix(line, []byte("\n"))
		if len(canon) == 0 {
			continue
		}
		if err := l.indexLine(canon); err != nil {
			return fmt.Errorf("ledger %s: record %d: %w", l.path, len(l.entries), err)
		}
	}
	_, err := l.f.Seek(0, io.SeekEnd)
	return err
}

// indexLine parses one canonical line and adds it to the in-memory
// view. Duplicate lines (same content address) keep their first seq.
func (l *Ledger) indexLine(canon []byte) error {
	var rec Record
	if err := json.Unmarshal(canon, &rec); err != nil {
		return fmt.Errorf("corrupt record: %w", err)
	}
	id := IDOf(canon)
	if _, ok := l.index[id]; ok {
		return nil
	}
	seq := len(l.entries)
	l.index[id] = seq
	l.entries = append(l.entries, Entry{Seq: seq, ID: id, Record: &rec})
	return nil
}

// Append stores rec and returns its content address. A record whose
// canonical bytes are already present is not written again: dup is true
// and the existing address is returned. The in-memory entry is decoded
// back from the canonical bytes so it reads identically whether it was
// appended live or reloaded from disk.
func (l *Ledger) Append(rec *Record) (id string, dup bool, err error) {
	canon, err := rec.Encode()
	if err != nil {
		return "", false, err
	}
	id = IDOf(canon)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.index[id]; ok {
		return id, true, nil
	}
	if _, err := l.f.Write(append(canon, '\n')); err != nil {
		return "", false, err
	}
	if err := l.indexLine(canon); err != nil {
		return "", false, err
	}
	return id, false, nil
}

// Len reports the number of distinct records.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns all records oldest-first. The returned Records are
// shared with the ledger's index and must be treated as read-only.
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Last returns the newest n records, oldest-first among themselves.
func (l *Ledger) Last(n int) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.entries) {
		n = len(l.entries)
	}
	out := make([]Entry, n)
	copy(out, l.entries[len(l.entries)-n:])
	return out
}

// Find resolves a content-address prefix (≥ 4 hex chars) to its entry.
// An ambiguous prefix is an error; a missing one returns ok=false.
func (l *Ledger) Find(idPrefix string) (Entry, bool, error) {
	if len(idPrefix) < 4 {
		return Entry{}, false, fmt.Errorf("id prefix %q too short (need >= 4 chars)", idPrefix)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var hit *Entry
	for i := range l.entries {
		if strings.HasPrefix(l.entries[i].ID, idPrefix) {
			if hit != nil {
				return Entry{}, false, fmt.Errorf("id prefix %q is ambiguous", idPrefix)
			}
			hit = &l.entries[i]
		}
	}
	if hit == nil {
		return Entry{}, false, nil
	}
	return *hit, true, nil
}

// Sync flushes appended records to stable storage (fsync).
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Close syncs and closes the backing file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Path reports the backing file path.
func (l *Ledger) Path() string { return l.path }
