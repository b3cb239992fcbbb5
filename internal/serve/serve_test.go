package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/serve"
	"minvn/internal/serve/client"
)

// testServer spins up a serve.Server behind httptest and returns a
// typed client for it. Cleanup tears both down.
func testServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, client.New(hs.URL, hs.Client())
}

func verifyMSI(maxStates int) serve.VerifyRequest {
	return serve.VerifyRequest{
		Protocol: "MSI_nonblocking_cache",
		Options:  serve.VerifyOptions{MaxStates: maxStates},
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	_, cl := testServer(t, serve.Config{})
	view, err := cl.Analyze(context.Background(), serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if view.Status != serve.StatusDone {
		t.Fatalf("status = %s (%s)", view.Status, view.Error)
	}
	var res serve.AnalyzeResult
	if err := jsonUnmarshal(view.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if !strings.Contains(res.Class, "Class 3") {
		t.Errorf("class = %q, want Class 3", res.Class)
	}
	if res.NumVNs < 2 || len(res.VN) == 0 {
		t.Errorf("assignment missing: num_vns=%d vn=%v", res.NumVNs, res.VN)
	}
}

func TestVerifyCacheHitByteIdentical(t *testing.T) {
	_, cl := testServer(t, serve.Config{})
	req := verifyMSI(3000)
	cold, err := cl.Verify(context.Background(), req, true)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.Status != serve.StatusDone || cold.Cached {
		t.Fatalf("cold: status=%s cached=%v (%s)", cold.Status, cold.Cached, cold.Error)
	}
	hot, err := cl.Verify(context.Background(), req, true)
	if err != nil {
		t.Fatalf("hot: %v", err)
	}
	if !hot.Cached {
		t.Fatalf("hot request missed the cache")
	}
	if !bytes.Equal(cold.Result, hot.Result) {
		t.Fatalf("cached result not byte-identical:\n%s\nvs\n%s", cold.Result, hot.Result)
	}
	var res serve.VerifyResult
	if err := jsonUnmarshal(hot.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Outcome == "" || res.States == 0 {
		t.Errorf("empty verify result: %+v", res)
	}
}

// TestSpecAndNameShareCacheEntry pins that an inline protocol_spec and
// the built-in name it encodes hash to the same cache key: the spec is
// decoded and re-encoded to the canonical form before hashing.
func TestSpecAndNameShareCacheEntry(t *testing.T) {
	p, err := protocols.Load("MSI_nonblocking_cache")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := protocol.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	_, cl := testServer(t, serve.Config{})
	byName, err := cl.Verify(context.Background(),
		serve.VerifyRequest{Protocol: p.Name, Options: serve.VerifyOptions{MaxStates: 2500}}, true)
	if err != nil {
		t.Fatalf("by name: %v", err)
	}
	bySpec, err := cl.Verify(context.Background(),
		serve.VerifyRequest{ProtocolSpec: spec, Options: serve.VerifyOptions{MaxStates: 2500}}, true)
	if err != nil {
		t.Fatalf("by spec: %v", err)
	}
	if !bySpec.Cached {
		t.Fatalf("inline spec of the same protocol missed the cache")
	}
	if !bytes.Equal(byName.Result, bySpec.Result) {
		t.Fatalf("spec result differs from name result")
	}
}

// TestSingleflightDedup holds the pool at the run gate and submits the
// same request twice: the second must attach to the first's job
// instead of queueing a duplicate.
func TestSingleflightDedup(t *testing.T) {
	gate := make(chan struct{})
	srv, cl := testServer(t, serve.Config{
		Workers:   1,
		BeforeRun: func() { <-gate },
	})
	first, err := cl.Verify(context.Background(), verifyMSI(3000), false)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	second, err := cl.Verify(context.Background(), verifyMSI(3000), false)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if second.ID != first.ID {
		t.Fatalf("second submit got job %s, want dedup onto %s", second.ID, first.ID)
	}
	close(gate)
	view, err := cl.WaitDone(context.Background(), first.ID, 0)
	if err != nil || view.Status != serve.StatusDone {
		t.Fatalf("job did not complete: %v %+v", err, view)
	}
	if st := srv.Stats(); st.Counters["serve.singleflight_hits"] != 1 {
		t.Errorf("singleflight_hits = %d, want 1", st.Counters["serve.singleflight_hits"])
	}
}

// TestBackpressure503 holds every admitted job at the run gate and
// submits a burst of three times the server's capacity: the pool must
// run Workers jobs at once, the queue must admit QueueDepth more, and
// every submit past that must be refused with 503 + Retry-After.
func TestBackpressure503(t *testing.T) {
	for _, tc := range []struct {
		name                string
		workers, queueDepth int
	}{
		{"1 worker", 1, 1},
		{"8 workers", 8, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			srv, cl := testServer(t, serve.Config{
				Workers:    tc.workers,
				QueueDepth: tc.queueDepth,
				BeforeRun:  func() { <-gate },
			})
			ctx := context.Background()
			next := 3000 // distinct max_states: no singleflight, no cache hit
			var accepted []string
			submit := func(what string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					view, err := cl.Verify(ctx, verifyMSI(next), false)
					if err != nil {
						t.Fatalf("%s job %d: %v", what, i, err)
					}
					next++
					accepted = append(accepted, view.ID)
				}
			}
			submit("running", tc.workers)
			// Once every worker holds a job at the gate, the queue has
			// room for exactly QueueDepth more.
			waitForRunning(t, cl, tc.workers)
			submit("queued", tc.queueDepth)
			for i := 0; i < 2*(tc.workers+tc.queueDepth); i++ {
				_, err := cl.Verify(ctx, verifyMSI(next), false)
				next++
				if !client.IsBusy(err) {
					t.Fatalf("submit %d past capacity: err = %v, want 503 busy", i, err)
				}
				var se *client.StatusError
				if !asStatusError(err, &se) || se.RetryAfter == "" {
					t.Errorf("503 missing Retry-After: %+v", se)
				}
			}
			close(gate)
			for _, id := range accepted {
				if view, err := cl.WaitDone(ctx, id, 0); err != nil || view.Status != serve.StatusDone {
					t.Fatalf("drain after gate: job %s: %v %+v", id, err, view)
				}
			}
			if st := srv.Stats(); st.RunningHWM < tc.workers {
				t.Errorf("running high-water mark %d, want >= %d", st.RunningHWM, tc.workers)
			}
		})
	}
}

// TestSSEOrdering subscribes to a running job's event stream and
// checks contiguous sequence numbers ending in one terminal event; a
// second, late subscriber must replay the identical history.
func TestSSEOrdering(t *testing.T) {
	_, cl := testServer(t, serve.Config{ProgressEvery: 500})
	ctx := context.Background()
	view, err := cl.Verify(ctx, verifyMSI(50_000), false)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var live []serve.Event
	if err := cl.Events(ctx, view.ID, func(e serve.Event) { live = append(live, e) }); err != nil {
		t.Fatalf("live stream: %v", err)
	}
	if len(live) < 2 {
		t.Fatalf("only %d events; want snapshots + done (ProgressEvery=500, MaxStates=50k)", len(live))
	}
	for i, e := range live {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	last := live[len(live)-1]
	if last.Type != "done" || last.Job == nil || last.Job.Status != serve.StatusDone {
		t.Fatalf("terminal event = %+v", last)
	}
	for _, e := range live[:len(live)-1] {
		if e.Type != "snapshot" || e.Snapshot == nil {
			t.Fatalf("non-terminal event = %+v", e)
		}
	}
	// Late subscriber: full replay, identical sequence.
	var replay []serve.Event
	if err := cl.Events(ctx, view.ID, func(e serve.Event) { replay = append(replay, e) }); err != nil {
		t.Fatalf("replay stream: %v", err)
	}
	if len(replay) != len(live) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(live))
	}
}

// TestGracefulDrain pins the shutdown contract: Drain refuses new
// work, lets the in-flight job finish, and returns.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	srv, cl := testServer(t, serve.Config{
		Workers:   1,
		BeforeRun: func() { <-gate },
	})
	ctx := context.Background()
	view, err := cl.Verify(ctx, verifyMSI(3000), false)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitForRunning(t, cl, 1)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Admission must refuse with 503 once draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Verify(ctx, verifyMSI(9999), false)
		if client.IsBusy(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: err = %v, want 503", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned before the in-flight job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete after the job finished")
	}
	got, ok := srv.Job(view.ID)
	if !ok || got.Status != serve.StatusDone {
		t.Fatalf("in-flight job after drain: %+v", got)
	}
}

// TestDeadlineCancelsJob pins per-job deadlines: a tiny deadline on a
// large search yields a canceled job, and canceled results are never
// cached.
func TestDeadlineCancelsJob(t *testing.T) {
	_, cl := testServer(t, serve.Config{MaxStates: 5_000_000})
	ctx := context.Background()
	req := serve.VerifyRequest{
		Protocol:       "MOESI_nonblocking_cache",
		Options:        serve.VerifyOptions{MaxStates: 5_000_000},
		DeadlineMillis: 30,
	}
	view, err := cl.Verify(ctx, req, true)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if view.Status != serve.StatusCanceled {
		t.Fatalf("status = %s, want canceled", view.Status)
	}
	// The same request with a workable deadline must run fresh — the
	// canceled attempt must not have poisoned the cache.
	req.DeadlineMillis = 0
	req.Options.MaxStates = 4000
	again, err := cl.Verify(ctx, req, true)
	if err != nil {
		t.Fatalf("second verify: %v", err)
	}
	if again.Cached || again.Status != serve.StatusDone {
		t.Fatalf("second run: cached=%v status=%s", again.Cached, again.Status)
	}
}

func TestBadRequests(t *testing.T) {
	_, cl := testServer(t, serve.Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		req  serve.VerifyRequest
	}{
		{"unknown protocol", serve.VerifyRequest{Protocol: "NoSuchProtocol"}},
		{"no protocol", serve.VerifyRequest{}},
		{"bad vn mode", serve.VerifyRequest{Protocol: "MSI_nonblocking_cache",
			Options: serve.VerifyOptions{VN: "bogus"}}},
		{"bad engine", serve.VerifyRequest{Protocol: "MSI_nonblocking_cache",
			Options: serve.VerifyOptions{Engine: "warp"}}},
		{"class2 minimal", serve.VerifyRequest{Protocol: "MSI_blocking_cache"}},
		{"too many workers", serve.VerifyRequest{Protocol: "MSI_nonblocking_cache",
			Options: serve.VerifyOptions{Workers: 100_000_000}}},
		{"oversized spec", serve.VerifyRequest{ProtocolSpec: append(append([]byte{'"'},
			bytes.Repeat([]byte("x"), protocol.MaxDecodeBytes)...), '"')}},
	}
	for _, tc := range cases {
		_, err := cl.Verify(ctx, tc.req, false)
		var se *client.StatusError
		if !asStatusError(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", tc.name, err)
		}
	}
}

// TestUnknownOptionRefused: an option the spec does not have, such as
// "shards", is a 400 naming it, never silently ignored.
func TestUnknownOptionRefused(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	resp, err := http.Post(hs.URL+"/v1/verify?wait=1", "application/json",
		strings.NewReader(`{"protocol":"MSI_nonblocking_cache","options":{"max_states":100,"shards":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"shards\"`) {
		t.Errorf("status %d, body %s; want 400 naming the unknown field", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, cl := testServer(t, serve.Config{})
	if _, err := cl.Analyze(context.Background(), serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"serve_requests 1", "serve_jobs_done 1", "# TYPE serve_requests counter"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestNoGoroutineLeak runs a full server lifecycle — jobs, SSE, drain
// — and requires the goroutine count to return to its baseline. The
// race detector build of this test is the acceptance check.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := serve.New(serve.Config{Workers: 4, ProgressEvery: 500})
	hs := httptest.NewServer(srv.Handler())
	cl := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	view, err := cl.Verify(ctx, verifyMSI(20_000), false)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := cl.Events(ctx, view.ID, func(serve.Event) {}); err != nil {
		t.Fatalf("events: %v", err)
	}
	if _, err := cl.Verify(ctx, verifyMSI(20_000), true); err != nil {
		t.Fatalf("hot verify: %v", err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	hs.CloseClientConnections()
	hs.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestVerifyDistEngine pins the distributed engine's serve wiring: a
// dist job (in-process workers) reproduces the pipeline engine's result
// on an exhaustible configuration, but does NOT share its cache entry
// — dist applies max_states at level granularity, so its bounded
// results are keyed separately from the in-process engines'. DFS
// under dist is rejected at admission.
func TestVerifyDistEngine(t *testing.T) {
	_, cl := testServer(t, serve.Config{})
	ctx := context.Background()
	opts := serve.VerifyOptions{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 50_000, Workers: 2}

	popts := opts
	popts.Engine = "pipeline"
	pipe, err := cl.Verify(ctx, serve.VerifyRequest{Protocol: "MSI_nonblocking_cache", Options: popts}, true)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if pipe.Status != serve.StatusDone {
		t.Fatalf("pipeline: status=%s (%s)", pipe.Status, pipe.Error)
	}
	dopts := opts
	dopts.Engine = "dist"
	dv, err := cl.Verify(ctx, serve.VerifyRequest{Protocol: "MSI_nonblocking_cache", Options: dopts}, true)
	if err != nil {
		t.Fatalf("dist: %v", err)
	}
	if dv.Status != serve.StatusDone {
		t.Fatalf("dist: status=%s (%s)", dv.Status, dv.Error)
	}
	if dv.Cached {
		t.Fatalf("dist request hit an in-process engine's cache entry")
	}
	var pr, dr serve.VerifyResult
	if err := jsonUnmarshal(pipe.Result, &pr); err != nil {
		t.Fatalf("pipeline result: %v", err)
	}
	if err := jsonUnmarshal(dv.Result, &dr); err != nil {
		t.Fatalf("dist result: %v", err)
	}
	if dr.Engine != "dist" {
		t.Errorf("engine = %q, want dist", dr.Engine)
	}
	if dr.Outcome != pr.Outcome || dr.States != pr.States || dr.MaxDepth != pr.MaxDepth {
		t.Errorf("dist disagrees with pipeline: outcome %s/%s states %d/%d depth %d/%d",
			dr.Outcome, pr.Outcome, dr.States, pr.States, dr.MaxDepth, pr.MaxDepth)
	}

	bad := dopts
	bad.Strategy = "dfs"
	_, err = cl.Verify(ctx, serve.VerifyRequest{Protocol: "MSI_nonblocking_cache", Options: bad}, false)
	var se *client.StatusError
	if !asStatusError(err, &se) || se.Code != http.StatusBadRequest {
		t.Errorf("dfs+dist: err = %v, want 400", err)
	}
}

// TestVerifyTwoLevelSpec: a two-level composite posted as an inline
// protocol_spec is checked like any other protocol — the shared
// resolver gives it its one L2 home, where the request used to die in
// machine.New ("needs L2s >= 1") with no request field to fix it.
func TestVerifyTwoLevelSpec(t *testing.T) {
	comp, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := protocol.Encode(comp)
	if err != nil {
		t.Fatal(err)
	}
	_, cl := testServer(t, serve.Config{})
	view, err := cl.Verify(context.Background(), serve.VerifyRequest{
		ProtocolSpec: spec,
		Options:      serve.VerifyOptions{VN: "permsg", Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 3000},
	}, true)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	var res serve.VerifyResult
	if err := jsonUnmarshal(view.Result, &res); err != nil || view.Status != serve.StatusDone {
		t.Fatalf("status=%s (%s), result err %v", view.Status, view.Error, err)
	}
	if res.Protocol != "MSI_under_MESI" || res.States == 0 || res.VNMode != "permsg" {
		t.Errorf("result = %+v", res)
	}
}

func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

func asStatusError(err error, se **client.StatusError) bool { return errors.As(err, se) }

// waitForRunning polls /v1/stats until the running count reaches n.
func waitForRunning(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Running >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("running never reached %d (at %d)", n, st.Running)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolShare pins how many search workers a verify job gets. A job
// on the auto engine whose request leaves workers unset gets GOMAXPROCS
// divided by the jobs running as it starts, itself included, and at
// least one: every CPU on an idle server, max(1, GOMAXPROCS/Workers)
// when it fills the pool. Its ledger record states that count and its
// health report has a line per worker it ran. An explicit workers is
// kept, and an engine the request names keeps its default: a pipeline
// runs GOMAXPROCS workers, a dist job its fleet as asked. None of it
// changes an answer: every row of a complete search reaches the same
// outcome, counts and occupancy.
func TestPoolShare(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	base := serve.VerifyOptions{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 50_000}
	var ref *serve.VerifyResult
	var refOcc []byte
	// Each pool runs the measured job with its other slots held busy;
	// the largest also runs it alone.
	for _, c := range []struct{ pool, others int }{
		{1, 0}, {procs, procs - 1}, {4 * procs, 0}, {4 * procs, 4*procs - 1},
	} {
		pool, others := c.pool, c.others
		share := max(1, procs/(others+1))
		for _, tc := range []struct {
			name           string
			engine         string
			workers        int
			param, ranWith int // params.workers; workers in the health report, 0 unchecked
		}{
			{"unset", "", 0, share, share},
			{"workers=3", "", 3, 3, 3},
			{"pipeline", "pipeline", 0, 0, procs},
			{"dist", "dist", 0, 0, 0},
		} {
			t.Run(fmt.Sprintf("pool=%d/running=%d/%s", pool, others+1, tc.name), func(t *testing.T) {
				led, err := ledger.Open(filepath.Join(t.TempDir(), "runs.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { led.Close() }) // after the server's
				// The first others jobs to start hold their pool slots
				// until the measured job is done.
				gate := make(chan struct{})
				defer close(gate)
				var started atomic.Int32
				_, cl := testServer(t, serve.Config{Workers: pool, Ledger: led, BeforeRun: func() {
					if int(started.Add(1)) <= others {
						<-gate
					}
				}})
				ctx := context.Background()
				for i := 0; i < others; i++ {
					if _, err := cl.Verify(ctx, verifyMSI(100+i), false); err != nil {
						t.Fatal(err)
					}
				}
				waitForRunning(t, cl, others)
				opts := base
				opts.Engine, opts.Workers = tc.engine, tc.workers
				view, err := cl.Verify(ctx, serve.VerifyRequest{Protocol: "MSI_nonblocking_cache", Options: opts}, true)
				if err != nil || view.Status != serve.StatusDone {
					t.Fatalf("verify: %v %+v", err, view)
				}
				var rec *ledger.Record
				for _, e := range led.Entries() {
					if e.Record.Extra["job_id"] == view.ID {
						rec = e.Record
					}
				}
				if rec == nil {
					t.Fatalf("no ledger record for %s", view.ID)
				}
				if got := rec.Params["workers"]; got != float64(tc.param) {
					t.Errorf("params.workers = %v, want %d", got, tc.param)
				}
				if tc.ranWith > 0 && len(rec.Snapshot.Health.Workers) != tc.ranWith {
					t.Errorf("ran with %d workers, want %d", len(rec.Snapshot.Health.Workers), tc.ranWith)
				}
				var res serve.VerifyResult
				var occ struct {
					Stats struct {
						Occupancy json.RawMessage `json:"occupancy"`
					} `json:"stats"`
				}
				if err := jsonUnmarshal(view.Result, &res); err != nil {
					t.Fatal(err)
				}
				if err := jsonUnmarshal(view.Result, &occ); err != nil || len(occ.Stats.Occupancy) == 0 {
					t.Fatalf("no occupancy in the result (err %v)", err)
				}
				if res.Outcome != "complete" {
					t.Fatalf("outcome %s, want a complete search", res.Outcome)
				}
				if ref == nil {
					ref, refOcc = &res, occ.Stats.Occupancy
					return
				}
				if res.Outcome != ref.Outcome || res.States != ref.States || res.Rules != ref.Rules ||
					res.MaxDepth != ref.MaxDepth {
					t.Errorf("%s/%d states/%d rules/depth %d, first row %s/%d/%d/%d", res.Outcome, res.States,
						res.Rules, res.MaxDepth, ref.Outcome, ref.States, ref.Rules, ref.MaxDepth)
				}
				if !bytes.Equal(occ.Stats.Occupancy, refOcc) {
					t.Error("occupancy differs from the first row's")
				}
			})
		}
	}
}
