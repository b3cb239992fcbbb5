package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"minvn/internal/serve"
	"minvn/internal/serve/client"
)

// daemonEnv makes the test binary run main() as the daemon.
const daemonEnv = "VNSERVED_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDaemon drives a real vnserved process end to end: flags, listen,
// the HTTP API through the typed client, the ledger-backed endpoints,
// and the SIGTERM drain with its exit status and on-disk artifacts.
func TestDaemon(t *testing.T) {
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "stats.json")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	jobLogPath := filepath.Join(dir, "jobs.log")
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0",
		"-stats-json", statsPath, "-ledger", ledgerPath, "-job-log", jobLogPath)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon chose its port: read it off the "listening on" line.
	// The rest of its log goes to the test log for failure reports.
	baseCh := make(chan string, 1)
	exited := make(chan struct{})
	var exitErr error
	go func() {
		defer close(exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			t.Log(sc.Text())
			if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
				baseCh <- url
			}
		}
		exitErr = cmd.Wait() // stderr is at EOF: nothing left to read
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() // no-op after a clean exit
		<-exited
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var base string
	select {
	case base = <-baseCh:
	case <-exited:
		t.Fatalf("daemon exited before listening: %v", exitErr)
	case <-ctx.Done():
		t.Fatal("daemon never printed its listen address")
	}
	cl := client.New(base, nil)
	for cl.Health(ctx) != nil {
		if ctx.Err() != nil {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	an, err := cl.Analyze(ctx, serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"})
	if err != nil || an.Status != serve.StatusDone || len(an.Result) == 0 {
		t.Fatalf("analyze: %v %+v", err, an)
	}

	req := serve.VerifyRequest{Protocol: "MSI_nonblocking_cache", Options: serve.VerifyOptions{MaxStates: 4000}}
	cold, err := cl.Verify(ctx, req, true)
	if err != nil || cold.Status != serve.StatusDone || cold.Cached {
		t.Fatalf("cold verify: %v %+v", err, cold)
	}
	hot, err := cl.Verify(ctx, req, true)
	if err != nil || !hot.Cached {
		t.Fatalf("hot verify missed the cache: %v %+v", err, hot)
	}
	if !bytes.Equal(cold.Result, hot.Result) {
		t.Fatalf("cached result differs from the run that produced it:\n%s\nvs\n%s", cold.Result, hot.Result)
	}

	req.Options.MaxStates++
	job, err := cl.Verify(ctx, req, false)
	if err != nil {
		t.Fatalf("async verify: %v", err)
	}
	next, done := 0, 0
	if err := cl.Events(ctx, job.ID, func(e serve.Event) {
		if e.Seq != next {
			t.Errorf("SSE seq %d, want %d", e.Seq, next)
		}
		next++
		if e.Type == "done" {
			done++
		}
	}); err != nil {
		t.Fatalf("SSE stream: %v", err)
	}
	if done != 1 {
		t.Errorf("SSE stream delivered %d done events", done)
	}

	if m, err := cl.Metrics(ctx); err != nil || !strings.Contains(m, "serve_cache_hits") {
		t.Errorf("/metrics lacks serve_cache_hits: %v\n%s", err, m)
	}
	var runs serve.RunsPage
	if err := json.Unmarshal([]byte(get(t, ctx, base+"/v1/runs")), &runs); err != nil {
		t.Fatalf("/v1/runs: %v", err)
	}
	if len(runs.Runs) == 0 || runs.Runs[0].Tool != "vnserved" {
		t.Errorf("/v1/runs has no vnserved record: %+v", runs)
	}
	dash := get(t, ctx, base+"/debug/dash")
	if !strings.Contains(dash, "minvn fleet") {
		t.Error("/debug/dash is not the dashboard")
	}
	if ext := regexp.MustCompile(`(src|href)="[a-z]+:`).FindString(dash); ext != "" {
		t.Errorf("/debug/dash loads an external asset: %s", ext)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("SIGTERM drain: %v", exitErr)
		}
	case <-ctx.Done():
		t.Fatal("daemon did not exit after SIGTERM")
	}
	for _, path := range []string{statsPath, ledgerPath, jobLogPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty after the drain: %v", filepath.Base(path), err)
		}
	}
}

func get(t *testing.T, ctx context.Context, url string) string {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}
