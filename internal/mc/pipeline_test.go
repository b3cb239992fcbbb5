package mc

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// --- visited set ---

func TestShardedSetBasic(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		s := newVisitedStore(store)
		keys := make([][]byte, 200)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("state-%03d", i))
		}
		for i, k := range keys {
			fp := Fingerprint(k)
			if hit, _ := probe(s, fp, k); hit {
				t.Fatalf("key %d present before insert", i)
			}
			id, fresh, _, err := s.Insert(fp, k, int32(i))
			if err != nil || !fresh || id != int32(i) {
				t.Fatalf("insert %d: id=%d fresh=%v err=%v", i, id, fresh, err)
			}
		}
		for i, k := range keys {
			fp := Fingerprint(k)
			if hit, _ := probe(s, fp, k); !hit {
				t.Fatalf("probe %d: a miss", i)
			}
			// Re-insert must report a duplicate, which has no id.
			if id, fresh, _, err := s.Insert(fp, k, int32(1000+i)); err != nil || fresh || id != -1 {
				t.Fatalf("re-insert %d: id=%d fresh=%v err=%v", i, id, fresh, err)
			}
		}
		if s.entries != len(keys) || s.arenaBytes == 0 {
			t.Fatalf("stats: %d entries, %d key bytes", s.entries, s.arenaBytes)
		}
	})
}

// TestShardedSetCollisions forces distinct keys through one
// fingerprint, so the bytes (not the 64-bit hash) decide membership —
// including across key log chunks: the keys are sized so their records,
// each behind a uvarint length, land in four chunks, and the positions
// the slots hold pin that a record never straddles a chunk boundary.
func TestShardedSetCollisions(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		s := newVisitedStore(store)
		const fp = uint64(0xdeadbeefcafe)
		big := func(c byte, n int) []byte { return []byte(strings.Repeat(string(c), n)) }
		keys := [][]byte{
			[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte(""),
			big('x', 3000),           // fits chunk 0's remainder
			big('y', 3000),           // does not: starts chunk 1
			big('z', arenaChunk+904), // longer than a chunk: gets chunk 2 to itself
			[]byte("tail"),           // chunk 2 is full by construction: chunk 3
			big('w', arenaChunk-7),   // exactly fills chunk 3
		}
		wantChunk := []uint32{0, 0, 0, 0, 0, 1, 2, 3, 3}
		wantAt := []uint32{0, 6, 11, 17, 18, 0, 0, 0, 5}
		for i, k := range keys {
			if id, fresh, _, err := s.Insert(fp, k, int32(i)); err != nil || !fresh || id != int32(i) {
				t.Fatalf("colliding insert %d: id=%d fresh=%v err=%v", i, id, fresh, err)
			}
		}
		for i, k := range keys {
			if hit, conflated := probe(s, fp, k); !hit || conflated {
				t.Fatalf("colliding probe %d: hit=%v conflated=%v", i, hit, conflated)
			}
			if _, fresh, conflated, err := s.Insert(fp, k, 99); err != nil || fresh || conflated {
				t.Fatalf("colliding re-insert %d: fresh=%v conflated=%v err=%v", i, fresh, conflated, err)
			}
		}
		if hit, _ := probe(s, fp, []byte("delta")); hit {
			t.Fatal("unrelated key matched a colliding one")
		}
		for i, k := range keys {
			pos, ok := keyPos(s, fp, k)
			if want := (logPos{wantChunk[i], wantAt[i]}); !ok || pos != want {
				t.Errorf("key %d (%d bytes) stored at %+v (held %v), want %+v", i, len(k), pos, ok, want)
			}
		}
		if chunks := s.keys.chunks; len(chunks) != 4 || cap(chunks[2]) != arenaChunk+906 || len(chunks[3]) != arenaChunk {
			t.Errorf("chunks: %d, oversize cap %d, last len %d", len(chunks), cap(chunks[2]), len(chunks[3]))
		}
		var total int64
		for _, k := range keys {
			total += int64(len(k))
		}
		if s.arenaBytes != total {
			t.Errorf("arenaBytes = %d, want the %d key bytes stored", s.arenaBytes, total)
		}
	})
}

// --- pipelined engine vs sequential, synthetic models ---

// comparePipeline runs both engines and requires full result parity:
// outcome, message, states, depth, rules, trace, and the telemetry
// counters the single-threaded merge reproduces exactly.
func comparePipeline(t *testing.T, name string, m Model, opts Options, workers int) {
	t.Helper()
	comparePipelineAgainst(t, name, Check(m, opts), m, opts, workers)
}

// comparePipelineAgainst is comparePipeline with the sequential result
// precomputed, so a matrix of pipeline configurations pays for the
// reference run once.
func comparePipelineAgainst(t *testing.T, name string, seq Result, m Model, opts Options, workers int) {
	t.Helper()
	pip := CheckPipelined(m, opts, workers, 0)
	if pip.Outcome != seq.Outcome || pip.Message != seq.Message {
		t.Fatalf("%s: outcome %v %q vs sequential %v %q", name, pip.Outcome, pip.Message, seq.Outcome, seq.Message)
	}
	if pip.States != seq.States || pip.MaxDepth != seq.MaxDepth || pip.Rules != seq.Rules {
		t.Fatalf("%s: states/depth/rules %d/%d/%d vs sequential %d/%d/%d",
			name, pip.States, pip.MaxDepth, pip.Rules, seq.States, seq.MaxDepth, seq.Rules)
	}
	if len(pip.Trace) != len(seq.Trace) {
		t.Fatalf("%s: trace length %d vs %d", name, len(pip.Trace), len(seq.Trace))
	}
	for i := range pip.Trace {
		if string(pip.Trace[i]) != string(seq.Trace[i]) {
			t.Fatalf("%s: trace diverges at step %d", name, i)
		}
	}
	if pip.Stats.Expansions != seq.Stats.Expansions ||
		pip.Stats.Generated != seq.Stats.Generated ||
		pip.Stats.DedupHits != seq.Stats.DedupHits {
		t.Fatalf("%s: stats %+v vs sequential %+v", name, pip.Stats, seq.Stats)
	}
}

// wideModel fans out to many states per level so the workers have
// something to chew on.
type wideModel struct{ levels, width int }

func (w *wideModel) enc(l, i int) []byte { return []byte(fmt.Sprintf("%04d:%06d", l, i)) }
func (w *wideModel) Initial() [][]byte   { return [][]byte{w.enc(0, 0)} }
func (w *wideModel) Successors(s []byte) ([][]byte, error) {
	var l, i int
	fmt.Sscanf(string(s), "%04d:%06d", &l, &i)
	if l+1 >= w.levels {
		return nil, nil
	}
	out := make([][]byte, 0, 3)
	for k := 0; k < 3; k++ {
		out = append(out, w.enc(l+1, (i*3+k)%w.width))
	}
	return out, nil
}
func (w *wideModel) Quiescent(s []byte) bool {
	var l, i int
	fmt.Sscanf(string(s), "%04d:%06d", &l, &i)
	return l+1 >= w.levels
}
func (w *wideModel) Describe(s []byte) string { return string(s) }

func TestPipelineMatchesSequential(t *testing.T) {
	models := map[string]Model{
		"complete":  &counter{n: 5000, branch: true, quiet: 4999, bad: -1, errAt: -1},
		"deadlock":  &counter{n: 5000, branch: true, quiet: -1, bad: 4999, errAt: -1},
		"violation": &counter{n: 5000, branch: true, quiet: -1, bad: -1, errAt: 3000},
		"wide":      &wideModel{levels: 25, width: 1500},
	}
	for name, m := range models {
		seqTraced := Check(m, Options{})
		seqBare := Check(m, Options{DisableTraces: true})
		for _, workers := range []int{2, 4, 8} {
			tag := fmt.Sprintf("%s/w%d", name, workers)
			comparePipelineAgainst(t, tag, seqTraced, m, Options{}, workers)
			comparePipelineAgainst(t, tag+"/notrace", seqBare, m, Options{DisableTraces: true}, workers)
		}
	}
}

// TestPipelineBounds covers every early-termination mode: the bound
// checks live in the merge loop, so speculative worker expansions past
// the stopping point must not perturb any reported number.
func TestPipelineBounds(t *testing.T) {
	m := &counter{n: 100000, branch: true, quiet: -1, bad: -1, errAt: -1}
	for _, workers := range []int{2, 8} {
		for _, maxStates := range []int{1, 17, 500, 4096} {
			comparePipeline(t, fmt.Sprintf("states=%d/w%d", maxStates, workers),
				m, Options{MaxStates: maxStates, DisableTraces: true}, workers)
		}
		for _, maxDepth := range []int{1, 3, 10} {
			comparePipeline(t, fmt.Sprintf("depth=%d/w%d", maxDepth, workers),
				m, Options{MaxDepth: maxDepth, DisableTraces: true}, workers)
		}
		comparePipeline(t, fmt.Sprintf("both/w%d", workers),
			m, Options{MaxStates: 700, MaxDepth: 12}, workers)
	}
	// A violation discovered near a state bound: whichever limit the
	// sequential engine hits first, the pipeline must report the same.
	v := &counter{n: 100000, branch: true, quiet: -1, bad: -1, errAt: 900}
	comparePipeline(t, "violation-near-bound", v, Options{MaxStates: 1000}, 4)
	comparePipeline(t, "bound-before-violation", v, Options{MaxStates: 200}, 4)
}

func TestPipelineDFSFallsBack(t *testing.T) {
	m := &counter{n: 300, quiet: -1, bad: 299, errAt: -1}
	res := CheckPipelined(m, Options{Strategy: DFS}, 8, 0)
	if res.Outcome != Deadlock {
		t.Fatalf("res = %v", res)
	}
}

// TestPipelineRulesCountOnEarlyTermination pins the Rules counter on a
// violation run: it is the number of states actually expanded in BFS
// order — speculative worker expansions past the violation must not
// count.
func TestPipelineRulesCountOnEarlyTermination(t *testing.T) {
	m := &counter{n: 5000, branch: true, quiet: -1, bad: -1, errAt: 3000}
	seq := Check(m, Options{})
	if seq.Outcome != Violation {
		t.Fatalf("seq = %v", seq)
	}
	for _, workers := range []int{2, 4, 8} {
		if pip := CheckPipelined(m, Options{}, workers, 0); pip.Rules != seq.Rules {
			t.Errorf("pipeline workers=%d: Rules %d vs sequential %d", workers, pip.Rules, seq.Rules)
		}
	}
}

// TestPipelineProgress: the progress callback fires from the merge
// goroutine with coherent snapshots (frontier accounting must match
// the sequential queue-length definition).
func TestPipelineProgress(t *testing.T) {
	m := &counter{n: 20000, branch: true, quiet: 19999, bad: -1, errAt: -1}
	snaps := 0
	opts := Options{
		DisableTraces: true,
		ProgressEvery: 500,
		Progress: func(s Snapshot) {
			snaps++
			if s.States < 0 || s.Frontier < 0 || s.Frontier > s.States {
				t.Errorf("incoherent snapshot: %+v", s)
			}
		},
	}
	res := CheckPipelined(m, opts, 4, 0)
	if res.Outcome != Complete {
		t.Fatalf("res = %v", res)
	}
	if snaps == 0 {
		t.Fatal("no progress snapshots delivered")
	}
}

// TestCheckEngineDispatch pins the one search loop's dispatch: a BFS
// with more than one worker takes its expansions from a pipeline of
// that many workers, one worker (and every DFS) expands inline, and
// each run reports the sequential search's outcome, states and rules.
// Choosing among engines (seq, pipeline, dist) is dist.Run's job.
func TestCheckEngineDispatch(t *testing.T) {
	m := &counter{n: 2000, branch: true, quiet: 1999, bad: -1, errAt: -1}
	for _, strategy := range []Strategy{BFS, DFS} {
		opts := Options{Strategy: strategy}
		seq := Check(m, opts)
		if seq.Outcome != Complete {
			t.Fatalf("%v sequential: %v", strategy, seq)
		}
		for _, workers := range []int{1, 2, 4} {
			res := CheckPipelinedCtx(context.Background(), m, opts, workers)
			if res.Outcome != seq.Outcome || res.States != seq.States || res.Rules != seq.Rules {
				t.Errorf("%v workers=%d: %v vs sequential %v", strategy, workers, res, seq)
			}
			ran := workers
			if strategy == DFS {
				ran = 1
			}
			if got := len(res.Stats.Health.Workers); got != ran {
				t.Errorf("%v workers=%d: ran with %d workers, want %d", strategy, workers, got, ran)
			}
		}
	}
}

// BenchmarkCheckPipelined measures the pipelined engine on the same
// synthetic model as BenchmarkCheckThroughput, at several worker
// counts, for side-by-side comparison.
func BenchmarkCheckPipelined(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := &counter{n: 50_000, branch: true, quiet: 49_999, bad: -1, errAt: -1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := CheckPipelined(m, Options{DisableTraces: true}, workers, 0)
				if res.Outcome != Complete {
					b.Fatal(res)
				}
			}
			b.ReportMetric(50_000, "states")
		})
	}
}
