package serve_test

// Correlation contract: a request ID submitted with a job must be
// recoverable from every per-job telemetry surface — the job view, the
// SSE event stream, the structured JSONL job log, the flight-recorder
// export, and the job's ledger record, which is also where the run's
// health profile lives.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"minvn/internal/obs/ledger"
	"minvn/internal/serve"
	"minvn/internal/serve/client"
)

// syncBuffer is a goroutine-safe job-log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// has returns the log, failing unless it contains want. runJob writes a
// job's "finished" line before it publishes the terminal state, so the
// log of a job a waited request returned already holds it.
func (s *syncBuffer) has(t *testing.T, want string) string {
	t.Helper()
	got := s.String()
	if !strings.Contains(got, want) {
		t.Fatalf("job log does not contain %q:\n%s", want, got)
	}
	return got
}

// telemetryServer is testServer plus the raw base URL for endpoints
// the typed client does not wrap.
func telemetryServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client, string) {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, client.New(hs.URL, hs.Client()), hs.URL
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func TestRequestIDCorrelation(t *testing.T) {
	var logBuf syncBuffer
	led, err := ledger.Open(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	_, cl, base := telemetryServer(t, serve.Config{
		JobLog:        serve.NewJobLog(&logBuf, slog.LevelDebug),
		Ledger:        led,
		TraceJobs:     4,
		ProgressEvery: 500,
	})
	cl.RequestID = "req-abc"

	view, err := cl.Verify(context.Background(), verifyMSI(3000), true)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if view.Status != serve.StatusDone {
		t.Fatalf("status = %s (%s)", view.Status, view.Error)
	}

	// 1. The final job view carries the identity.
	if view.RequestID != "req-abc" || view.TraceID == "" {
		t.Fatalf("job view identity: request_id=%q trace_id=%q", view.RequestID, view.TraceID)
	}

	// 2. Every SSE event carries it, snapshots included.
	var events []serve.Event
	if err := cl.Events(context.Background(), view.ID, func(e serve.Event) {
		events = append(events, e)
	}); err != nil {
		t.Fatalf("events: %v", err)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want snapshots + done", len(events))
	}
	sawSnapshot := false
	for _, e := range events {
		if e.JobID != view.ID || e.RequestID != "req-abc" || e.TraceID != view.TraceID {
			t.Fatalf("event %d identity mismatch: %+v", e.Seq, e)
		}
		if e.Type == "snapshot" {
			sawSnapshot = true
		}
	}
	if !sawSnapshot {
		t.Fatal("no snapshot events in the stream")
	}

	// 3. The JSONL job log ties the whole lifecycle to the request ID.
	// It carries lifecycle events only — snapshots are on the SSE stream.
	logText := logBuf.has(t, `"event":"finished"`)
	for _, want := range []string{`"event":"admitted"`, `"event":"started"`} {
		if !strings.Contains(logText, want) {
			t.Errorf("job log missing %s:\n%s", want, logText)
		}
	}
	if strings.Contains(logText, `"event":"snapshot"`) {
		t.Errorf("job log carries per-snapshot events:\n%s", logText)
	}
	for _, line := range strings.Split(strings.TrimSpace(logText), "\n") {
		var rec struct {
			Level     string `json:"level"`
			Event     string `json:"event"`
			JobID     string `json:"job_id"`
			RequestID string `json:"request_id"`
			TraceID   string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad job-log line %q: %v", line, err)
		}
		if rec.JobID == view.ID && rec.RequestID != "req-abc" {
			t.Fatalf("log line for %s lost the request ID: %s", view.ID, line)
		}
	}

	// 4. The flight-recorder export names lanes with the identity.
	code, body := httpGet(t, base+"/debug/trace?job="+view.ID)
	if code != http.StatusOK {
		t.Fatalf("debug/trace: HTTP %d", code)
	}
	if !strings.Contains(body, "req req-abc/") {
		t.Fatalf("trace export lanes lack the request ID:\n%.400s", body)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export is empty")
	}

	// 5. /metrics is the fleet's scrape view: every serve_* series and
	// the per-kind job stage summaries, and nothing attributable to a
	// single job.
	metrics, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serve_requests 1", "serve_cache_misses 1", "serve_jobs_done 1", "serve_running 0",
		"stage_job_verify_seconds_count 1",
		"stage_job_verify_seconds_sum",
		"stage_job_verify_seconds_max",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(metrics, "mc_") {
		t.Errorf("/metrics carries a per-run mc_ series:\n%s", metrics)
	}

	// 6. The job's ledger record carries the same three ids next to the
	// run's health report, so it joins to everything above.
	code, body = httpGet(t, base+"/v1/runs?full=1")
	if code != http.StatusOK {
		t.Fatalf("/v1/runs: HTTP %d", code)
	}
	var page serve.RunsPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Runs) != 1 || page.Runs[0].Record == nil {
		t.Fatalf("/v1/runs?full=1 = %+v, want the one job's record", page)
	}
	rec := page.Runs[0].Record
	for k, want := range map[string]string{"job_id": view.ID, "request_id": "req-abc", "trace_id": view.TraceID} {
		if got, _ := rec.Extra[k].(string); got != want {
			t.Errorf("ledger record extra[%q] = %q, want %q", k, got, want)
		}
	}
	if rec.Snapshot == nil || rec.Snapshot.Health == nil || len(rec.Snapshot.Health.StripeOccupancy) == 0 {
		t.Errorf("ledger record lacks the health report: %+v", rec.Snapshot)
	}
}

// TestDebugTraceNilSafe pins that the trace endpoint degrades to an
// empty, valid document when job tracing is disabled or the job is
// unknown — never an error.
func TestDebugTraceNilSafe(t *testing.T) {
	_, cl, base := telemetryServer(t, serve.Config{TraceJobs: 0})
	if _, err := cl.Analyze(context.Background(), serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"}); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{base + "/debug/trace", base + "/debug/trace?job=job-999"} {
		code, body := httpGet(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", url, code)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", url, err, body)
		}
		if len(doc.TraceEvents) != 0 {
			t.Fatalf("%s: expected empty trace, got %d events", url, len(doc.TraceEvents))
		}
	}
}

// TestRequestIDSanitized pins the header hardening: hostile characters
// are stripped before the ID reaches logs, lane names, or headers.
func TestRequestIDSanitized(t *testing.T) {
	_, _, base := telemetryServer(t, serve.Config{})
	body := strings.NewReader(`{"protocol":"MSI_nonblocking_cache"}`)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/analyze?wait=1", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "ok-1.2_3//<bad>\tchars")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.RequestID != "ok-1.2_3badchars" {
		t.Fatalf("request ID not sanitized: %q", view.RequestID)
	}
	if got := resp.Header.Get("X-Request-ID"); got != view.RequestID {
		t.Fatalf("echoed header %q != view %q", got, view.RequestID)
	}
}

// TestJobLoggerLevelsAndShape pins the slog-backed job log: every line
// is one JSON object with the ts/level/event keys and the job's three
// ids ahead of the event's own fields, events below the level are
// dropped, and a server without a logger logs nothing.
func TestJobLoggerLevelsAndShape(t *testing.T) {
	ctx := context.Background()
	// A verify that waits out its 30 ms deadline in BeforeRun is
	// canceled, with no search racing the deadline.
	long := verifyMSI(4000)
	long.DeadlineMillis = 30
	waitOut := func(ctx context.Context) { <-ctx.Done() }

	// At info, a successful analyze logs its whole lifecycle.
	var info syncBuffer
	_, cl, _ := telemetryServer(t, serve.Config{JobLog: serve.NewJobLog(&info, slog.LevelInfo)})
	cl.RequestID = "r-1"
	view, err := cl.Analyze(ctx, serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(info.has(t, `"event":"finished"`)), "\n")
	var events []string
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if rec["level"] != "info" || rec["job_id"] != view.ID ||
			rec["request_id"] != "r-1" || rec["trace_id"] != view.TraceID || rec["kind"] != "analyze" {
			t.Fatalf("line = %v", rec)
		}
		if ts, _ := rec["ts"].(string); !strings.HasSuffix(ts, "Z") {
			t.Fatalf("ts %q is not a UTC RFC 3339 timestamp", rec["ts"])
		}
		for _, builtin := range []string{"time", "msg"} {
			if _, has := rec[builtin]; has {
				t.Fatalf("line keeps slog's %q key: %v", builtin, rec)
			}
		}
		events = append(events, rec["event"].(string))
	}
	if got := strings.Join(events, ","); got != "admitted,started,finished" {
		t.Fatalf("events = %s", got)
	}
	if !strings.Contains(lines[2], `"status":"done"`) || !strings.Contains(lines[2], `"seconds":`) {
		t.Fatalf("finished line lacks its fields: %s", lines[2])
	}

	// At warn, the info lifecycle lines are dropped and only the
	// canceled job's "finished" survives.
	var warn syncBuffer
	_, cl, _ = telemetryServer(t, serve.Config{JobLog: serve.NewJobLog(&warn, slog.LevelWarn), BeforeRun: waitOut})
	if view, err := cl.Verify(ctx, long, true); err != nil || view.Status != serve.StatusCanceled {
		t.Fatalf("verify: %v %+v", err, view)
	}
	got := strings.TrimSpace(warn.has(t, `"event":"finished"`))
	if strings.Count(got, "\n") != 0 || !strings.Contains(got, `"level":"warn"`) || !strings.Contains(got, `"status":"canceled"`) {
		t.Fatalf("warn-level log = %q, want the one canceled line", got)
	}

	// No logger: nothing to write to, nothing panics.
	_, cl, _ = telemetryServer(t, serve.Config{})
	if _, err := cl.Analyze(ctx, serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"}); err != nil {
		t.Fatal(err)
	}
}

// TestJobLogOrderPerJob: however concurrent submitters and the one
// worker interleave, every job's lines read admitted, started, finished
// — a job is logged as admitted before a worker can take it. Waiting on
// each verify is enough: a job is done only once its finished line is
// written.
func TestJobLogOrderPerJob(t *testing.T) {
	const jobs = 12
	var log syncBuffer
	_, cl, _ := telemetryServer(t, serve.Config{Workers: 1, QueueDepth: jobs, JobLog: serve.NewJobLog(&log, slog.LevelInfo)})
	errs := make(chan error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := cl.Verify(context.Background(), verifyMSI(200+i), true) // distinct keys: no cache, no join
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	events := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec struct {
			Event string `json:"event"`
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		events[rec.JobID] = append(events[rec.JobID], rec.Event)
	}
	if len(events) != jobs {
		t.Fatalf("%d jobs in the log, want %d:\n%s", len(events), jobs, log.String())
	}
	for id, ev := range events {
		if got := strings.Join(ev, ","); got != "admitted,started,finished" {
			t.Errorf("job %s: events = %s", id, got)
		}
	}
}
