package mc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// withChunk lowers the log's chunk size for one test, so that recycling
// and truncation happen every few states.
func withChunk(t *testing.T, n int) {
	t.Helper()
	old := logChunk
	logChunk = n
	t.Cleanup(func() { logChunk = old })
}

// TestStateLogQueue: states read back in order across chunk boundaries,
// an oversize state gets a chunk of its own, and released chunks are
// reused rather than allocated again.
func TestStateLogQueue(t *testing.T) {
	withChunk(t, 64)
	l := stateLog{size: logChunk}
	stateOf := func(i int) []byte {
		n := i % 23
		if i%50 == 49 {
			n = 200 // longer than a chunk
		}
		return bytes.Repeat([]byte{byte(i)}, n)
	}
	var first logPos
	cur, peak := first, int64(0)
	for i := 0; i < 1000; i++ {
		pos, err := l.append(stateOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, cur = pos, pos
		}
		// Keep the queue ten states long.
		if i >= 10 {
			var got []byte
			got, cur = l.read(cur)
			if !bytes.Equal(got, stateOf(i-10)) {
				t.Fatalf("state %d read back as %x", i-10, got)
			}
			l.release(cur)
		}
		peak = max(peak, l.held)
	}
	// Ten live states of at most 22 bytes, or one oversize chunk, never
	// need more than a handful of 64-byte chunks.
	if peak > 1024 {
		t.Fatalf("a ten-state queue held %d bytes at its peak", peak)
	}
	var live int64
	for _, c := range append(l.chunks[l.low:], l.free...) {
		live += int64(cap(c)) + sliceHeaderSize
	}
	if live != l.held {
		t.Fatalf("held = %d, chunks and free list hold %d", l.held, live)
	}
}

// TestStateLogStack: truncate pops exactly the state it names, and what
// is pushed afterwards lands where the popped bytes were.
func TestStateLogStack(t *testing.T) {
	withChunk(t, 64)
	l := stateLog{size: logChunk}
	var (
		stack []logPos
		want  [][]byte
	)
	for i := 0; i < 2000; i++ {
		if i%7 < 4 || len(stack) == 0 {
			st := bytes.Repeat([]byte{byte(i)}, i%31+i%90/89*100)
			pos, err := l.append(st)
			if err != nil {
				t.Fatal(err)
			}
			stack, want = append(stack, pos), append(want, st)
			continue
		}
		top := len(stack) - 1
		if got, _ := l.read(stack[top]); !bytes.Equal(got, want[top]) {
			t.Fatalf("step %d: popped %x, want %x", i, got, want[top])
		}
		l.truncate(stack[top])
		stack, want = stack[:top], want[:top]
	}
	for i, pos := range stack {
		if got, _ := l.read(pos); !bytes.Equal(got, want[i]) {
			t.Fatalf("stack[%d] = %x, want %x", i, got, want[i])
		}
	}
}

// recorder keeps a copy of every observed state.
type recorder struct{ seen [][]byte }

func (r *recorder) Observe(state []byte) { r.seen = append(r.seen, append([]byte(nil), state...)) }

// TestLentBytes is the lent-bytes contract under recycling (run it with
// -race -count=10): the pipeline with 3 workers on 256-byte chunks, so a
// chunk goes back to the free list every few merges while workers still
// read what they were lent, gives exactly the sequential run on full-size
// chunks; and what a run hands out it does not share — scribbling over a
// finished run's Trace changes nothing in the next.
func TestLentBytes(t *testing.T) {
	for name, m := range map[string]Model{
		"deadlock": &counter{n: 3000, branch: true, quiet: -1, bad: 2999, errAt: -1},
		"wide":     &wideModel{levels: 12, width: 700},
	} {
		for _, traces := range []bool{true, false} {
			ref := new(recorder)
			want := Check(m, Options{DisableTraces: !traces, Observer: ref})
			withChunk(t, 256)
			for run := 0; run < 2; run++ {
				obs := new(recorder)
				got := CheckPipelined(m, Options{DisableTraces: !traces, Observer: obs}, 3, 0)
				if got.Outcome != want.Outcome || got.States != want.States || got.Rules != want.Rules ||
					got.MaxDepth != want.MaxDepth || got.Message != want.Message {
					t.Fatalf("%s traces=%v run %d: %v, sequential %v", name, traces, run, got, want)
				}
				if !reflect.DeepEqual(got.Trace, want.Trace) {
					t.Fatalf("%s traces=%v run %d: trace differs from the sequential run's", name, traces, run)
				}
				if !reflect.DeepEqual(obs.seen, ref.seen) {
					t.Fatalf("%s traces=%v run %d: observed states differ from the sequential run's", name, traces, run)
				}
				for _, st := range got.Trace {
					for i := range st {
						st[i] ^= 0xff
					}
				}
			}
		}
	}
}

// TestStateLogGuards: a search ends as Capacity, on both engines at the
// same state, instead of with a wrapped chunk index or at the hands of the
// OOM killer: the log's chunk count is capped, and once the held bytes
// (SetBytes + FrontierBytes) reach the Go memory limit nothing more is
// expanded.
func TestStateLogGuards(t *testing.T) {
	const memLimit = 1 << 20
	m := &counter{n: 100000, branch: true, quiet: -1, bad: -1, errAt: -1}
	for _, tc := range []struct {
		name  string
		want  CapacityError
		lower func(t *testing.T)
	}{
		{"log-chunks", CapacityError{Limit: "state log chunks", Max: 40}, func(t *testing.T) { withCap(t, &maxLogChunks, 40) }},
		{"memory", CapacityError{Limit: "memory", Max: memLimit}, func(t *testing.T) {
			old := memoryLimit
			memoryLimit = func() int64 { return memLimit }
			t.Cleanup(func() { memoryLimit = old })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withChunk(t, 1024)
			tc.lower(t)
			for _, opts := range []Options{{DisableTraces: true}, {}, {Strategy: DFS}, {Store: StoreCompact}} {
				seq := Check(m, opts)
				if seq.Outcome != Capacity || seq.Message != tc.want.Error() {
					t.Fatalf("%+v seq: %v, message %q", opts, seq, seq.Message)
				}
				// Checked once per expansion, and before the table grows
				// with the new table counted, so the overshoot is what one
				// state's two successors add beside the table: two log
				// chunks and an arena chunk, with their headers.
				expansion := int64(2*(1024+sliceHeaderSize) + arenaChunk + sliceHeaderSize)
				if h := seq.Stats.Health; tc.name == "memory" && h.SetBytes+h.FrontierBytes > memLimit+expansion {
					t.Fatalf("%+v: holds %d bytes under a limit of %d", opts, h.SetBytes+h.FrontierBytes, memLimit)
				}
				pip := CheckPipelined(m, opts, 3, 0)
				if pip.Outcome != seq.Outcome || pip.States != seq.States || pip.Rules != seq.Rules ||
					pip.MaxDepth != seq.MaxDepth || pip.Message != seq.Message {
					t.Fatalf("%+v pipeline: %v (rules=%d) vs seq %v (rules=%d)", opts, pip, pip.Rules, seq, seq.Rules)
				}
			}
		})
	}
}

// TestPartitionMemoryStop: a Partition stops at the Go memory limit the
// way the in-process engines do, before it expands the next state, with
// the memory *CapacityError; and the bytes its caller holds for peers
// count against the limit beside its own.
func TestPartitionMemoryStop(t *testing.T) {
	const memLimit = 1 << 20
	old := memoryLimit
	memoryLimit = func() int64 { return memLimit }
	t.Cleanup(func() { memoryLimit = old })
	withChunk(t, 1024)
	m := &counter{n: 100000, branch: true, quiet: -1, bad: -1, errAt: -1}
	for _, tc := range []struct {
		name string
		held int64 // what the caller holds for its peers
	}{{"own", 0}, {"outbox", memLimit}} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPartition(m, Options{}, 0, 1, func() int64 { return tc.held })
			if err != nil {
				t.Fatal(err)
			}
			ship := func([]byte, int) { t.Fatal("a lone owner shipped a state") }
			more := func() bool { return true }
			for level := 0; err == nil && level < m.n; level++ {
				_, err = p.Expand(ship, more)
			}
			var ce *CapacityError
			if !errors.As(err, &ce) || *ce != (CapacityError{Limit: "memory", Max: memLimit}) {
				t.Fatalf("stopped with %v, want the memory limit", err)
			}
			s := p.Snapshot()
			h := s.Health
			switch {
			case tc.held > 0 && s.Expansions != 0:
				t.Errorf("expanded %d states holding the limit for peers", s.Expansions)
			case tc.held > 0 && h.FrontierBytes < tc.held:
				t.Errorf("frontier bytes %d leave out the %d held for peers", h.FrontierBytes, tc.held)
			case tc.held == 0 && h.SetBytes+h.FrontierBytes > memLimit+memLimit/4:
				t.Errorf("holds %d bytes under a limit of %d", h.SetBytes+h.FrontierBytes, memLimit)
			}
		})
	}
}
