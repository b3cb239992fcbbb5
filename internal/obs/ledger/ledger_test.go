package ledger

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/vnassign"
)

func testRecord(outcome string, sps float64) *Record {
	return &Record{
		Tool:    "vnverify",
		Created: "2026-08-08T00:00:00Z",
		Provenance: obs.Provenance{
			GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
		},
		Params:  map[string]any{"protocol": "MSI_nonblocking_cache", "engine": "pipeline"},
		Outcome: outcome,
		Snapshot: &mc.Snapshot{
			Strategy:     "pipeline",
			States:       1000,
			StatesPerSec: sps,
			RuleFirings:  map[string]int64{"core/load": 400, "deliver/vn0": 600},
		},
		Stages: []obs.StageSummary{{Name: "mc/check", Count: 1, Seconds: 0.5, Max: 0.5}},
		Extra:  map[string]any{"note": "test"},
	}
}

// Byte stability is the dedup contract: encoding must be deterministic,
// and a record parsed back from its canonical bytes must re-encode to
// the identical bytes (so replicas exchanging records dedup correctly).
func TestRecordByteStable(t *testing.T) {
	rec := testRecord("ok", 12345.5)
	a, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Encode not deterministic:\n%s\n%s", a, b)
	}
	roundTripped := decodeRecord(t, a)
	c, err := roundTripped.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("round-tripped record re-encodes differently:\n%s\n%s", a, c)
	}
	if IDOf(a) != IDOf(c) {
		t.Fatal("content address changed across round trip")
	}
}

func decodeRecord(t *testing.T, canon []byte) *Record {
	t.Helper()
	l := &Ledger{index: make(map[string]int)}
	if err := l.indexLine(canon); err != nil {
		t.Fatal(err)
	}
	return l.entries[0].Record
}

func TestAppendDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	id1, dup, err := l.Append(testRecord("ok", 100))
	if err != nil || dup {
		t.Fatalf("first append: id=%s dup=%v err=%v", id1, dup, err)
	}
	// Same content built independently must dedup to the same address.
	id2, dup, err := l.Append(testRecord("ok", 100))
	if err != nil {
		t.Fatal(err)
	}
	if !dup || id2 != id1 {
		t.Fatalf("expected dedup to %s, got id=%s dup=%v", id1, id2, dup)
	}
	if l.Len() != 1 {
		t.Fatalf("Len=%d want 1", l.Len())
	}
	// Different content appends a new record.
	id3, dup, err := l.Append(testRecord("deadlock", 90))
	if err != nil || dup {
		t.Fatalf("third append: dup=%v err=%v", dup, err)
	}
	if id3 == id1 {
		t.Fatal("distinct records share a content address")
	}
	if l.Len() != 2 {
		t.Fatalf("Len=%d want 2", l.Len())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, o := range []string{"ok", "deadlock", "bound"} {
		id, _, err := l.Append(testRecord(o, float64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	entries := l2.Entries()
	if len(entries) != 3 {
		t.Fatalf("reopened Len=%d want 3", len(entries))
	}
	for i, e := range entries {
		if e.ID != ids[i] || e.Seq != i {
			t.Fatalf("entry %d: id=%s seq=%d want id=%s seq=%d", i, e.ID, e.Seq, ids[i], i)
		}
	}
	// Re-appending an existing record after reopen still dedups.
	if _, dup, err := l2.Append(testRecord("ok", 100)); err != nil || !dup {
		t.Fatalf("reopen dedup: dup=%v err=%v", dup, err)
	}
}

func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(testRecord("ok", 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(testRecord("ok", 101)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: trailing bytes with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"tool":"vnverify","crea`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Fatalf("Len=%d want 2 after torn-tail recovery", l2.Len())
	}
	// The next append must land on a clean line boundary.
	if _, dup, err := l2.Append(testRecord("deadlock", 50)); err != nil || dup {
		t.Fatalf("append after recovery: dup=%v err=%v", dup, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Len() != 3 {
		t.Fatalf("Len=%d want 3 after reopen", l3.Len())
	}
}

func TestFindPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	id, _, err := l.Append(testRecord("ok", 100))
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := l.Find(id[:8])
	if err != nil || !ok || e.ID != id {
		t.Fatalf("Find(%s): ok=%v err=%v", id[:8], ok, err)
	}
	if _, ok, err := l.Find("ffffffff"); err != nil || ok {
		t.Fatalf("Find missing: ok=%v err=%v", ok, err)
	}
	if _, _, err := l.Find("ab"); err == nil {
		t.Fatal("short prefix accepted")
	}
}

func TestLastAndEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append(testRecord("ok", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	last := l.Last(2)
	if len(last) != 2 || last[0].Seq != 3 || last[1].Seq != 4 {
		t.Fatalf("Last(2) = %+v", last)
	}
	if got := l.Last(10); len(got) != 5 {
		t.Fatalf("Last(10) len=%d want 5", len(got))
	}
}

// legacyRecords is testdata/legacy.jsonl in order: one record each that
// vnverify, vnexplain, vnmin, a vnserved verify job and a vnserved
// analyze job wrote before run records carried verdicts (the analyze
// job's before they carried static verdicts), then one each from
// vnsweep and vnfuzz written before their rows and metrics were typed,
// by tool, and the protocol each was about ("" for the campaigns).
var legacyRecords = [][2]string{
	{"vnverify", "MSI_nonblocking_cache"},
	{"vnexplain", "MSI_blocking_cache"},
	{"vnmin", "MESI_nonblocking_cache"},
	{"vnserved", "MESI_nonblocking_cache"},
	{"vnserved", "CHI"},
	{"vnsweep", ""},
	{"vnfuzz", ""},
}

// TestLegacyRecords: records written before the verdict fields still
// decode to the same content address and name their protocol; a
// verdict or static verdict names it when present.
func TestLegacyRecords(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != len(legacyRecords) {
		t.Fatalf("%d fixture records, want %d", len(lines), len(legacyRecords))
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if tool, proto := legacyRecords[i][0], legacyRecords[i][1]; rec.Tool != tool || rec.Protocol() != proto ||
			rec.Verdict != nil || rec.Static != nil {
			t.Errorf("record %d: %s about %q, verdicts %v, %v; want %s about %q and none",
				i, rec.Tool, rec.Protocol(), rec.Verdict, rec.Static, tool, proto)
		}
		again, err := rec.Encode()
		if err != nil || !bytes.Equal(again, line) {
			t.Errorf("%s record re-encodes differently (err %v)", rec.Tool, err)
		}
	}

	rec := testRecord("bounded", 1)
	rec.Verdict = &dist.Verdict{Protocol: "CHI"}
	if got := rec.Protocol(); got != "CHI" {
		t.Errorf("verdict record protocol = %q, want the verdict's", got)
	}
	rec = testRecord("class3", 1)
	rec.Static = &vnassign.Verdict{Protocol: "TileLink"}
	if got := rec.Protocol(); got != "TileLink" {
		t.Errorf("static record protocol = %q, want the static verdict's", got)
	}
}
