package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"minvn/internal/obs/ledger"
	"minvn/internal/serve"
	"minvn/internal/serve/client"
	"minvn/internal/vnassign"
)

// ledgerServer is testServer plus a run ledger backed by a temp file.
func ledgerServer(t *testing.T) (*serve.Server, *httptest.Server, *client.Client, *ledger.Ledger) {
	t.Helper()
	led, err := ledger.Open(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Ledger: led})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		led.Close()
	})
	return srv, hs, client.New(hs.URL, hs.Client()), led
}

// TestRunsEndpoint: completed jobs land in the ledger and GET /v1/runs
// pages them newest-first; cache hits replay results without minting
// ghost runs.
func TestRunsEndpoint(t *testing.T) {
	_, hs, cl, led := ledgerServer(t)

	req := verifyMSI(2000)
	if _, err := cl.Verify(context.Background(), req, true); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Same request again: served from the result cache, so the run
	// history must not grow.
	hot, err := cl.Verify(context.Background(), req, true)
	if err != nil || !hot.Cached {
		t.Fatalf("hot verify: err=%v cached=%v", err, hot != nil && hot.Cached)
	}
	analyzed, err := cl.Analyze(context.Background(), serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if led.Len() != 2 {
		t.Fatalf("ledger has %d records, want 2 (verify + analyze, no cache-hit ghost)", led.Len())
	}

	var page serve.RunsPage
	getJSON(t, hs, "/v1/runs", &page)
	if page.Total != 2 || len(page.Runs) != 2 {
		t.Fatalf("page = total %d, %d runs; want 2/2", page.Total, len(page.Runs))
	}
	// Newest first: the analyze job finished last.
	if page.Runs[0].Kind != "analyze" || page.Runs[1].Kind != "verify" {
		t.Errorf("order = %s, %s; want analyze, verify", page.Runs[0].Kind, page.Runs[1].Kind)
	}
	// A finished run's outcome is its answer: the verdict's, the class.
	v := page.Runs[1]
	if v.Tool != "vnserved" || v.Protocol != "MSI_nonblocking_cache" ||
		v.Outcome != "bounded" || v.States == 0 || v.ID == "" {
		t.Errorf("verify run view incomplete: %+v", v)
	}
	if a := page.Runs[0]; a.Protocol != "MSI_nonblocking_cache" || a.Outcome != "class3" {
		t.Errorf("analyze run view = %+v, want class3", a)
	}
	if v.Record != nil {
		t.Errorf("summary view unexpectedly carries the full record")
	}

	// Filters + paging + full documents.
	getJSON(t, hs, "/v1/runs?kind=none&tool=vnstats", &page)
	if page.Total != 0 || len(page.Runs) != 0 {
		t.Errorf("tool filter leaked: %+v", page)
	}
	getJSON(t, hs, "/v1/runs?limit=1&offset=1", &page)
	if page.Total != 2 || len(page.Runs) != 1 || page.Runs[0].Kind != "verify" {
		t.Errorf("offset paging wrong: %+v", page)
	}
	getJSON(t, hs, "/v1/runs?full=1&limit=1&offset=1", &page)
	if len(page.Runs) != 1 || page.Runs[0].Record == nil || page.Runs[0].Record.Snapshot == nil {
		t.Fatalf("full=1 run lacks the record: %+v", page.Runs)
	}
	if !page.Runs[0].Record.Snapshot.Final {
		t.Errorf("recorded snapshot is not the final one")
	}
	// The record states what was asked and answered as the verdict the
	// response carried, with the outcome the response served.
	rec := page.Runs[0].Record
	var served serve.VerifyResult
	if err := json.Unmarshal(hot.Result, &served); err != nil {
		t.Fatal(err)
	}
	if rec.Verdict == nil || !reflect.DeepEqual(*rec.Verdict, served.Verdict) || rec.Outcome != served.Outcome {
		t.Errorf("record outcome %s, verdict %+v\nserved %+v", rec.Outcome, rec.Verdict, served.Verdict)
	}
	if len(rec.Params) != 0 {
		t.Errorf("verify record writes params %v", rec.Params)
	}
	// An analyze record states the static verdict its response served.
	getJSON(t, hs, "/v1/runs?full=1&limit=1", &page)
	var static serve.AnalyzeResult
	if err := json.Unmarshal(analyzed.Result, &static); err != nil {
		t.Fatal(err)
	}
	if a := page.Runs[0].Record; a == nil || a.Static == nil || !reflect.DeepEqual(*a.Static, static.Verdict) ||
		a.Outcome != static.Outcome || len(a.Params) != 0 {
		t.Errorf("analyze record %+v\nserved %+v", a, static.Verdict)
	}
	// The dashboard's per-VN bars and stripe-heat panels read these off
	// the job snapshots; the ledger record must carry both.
	if rec.Snapshot.Occupancy == nil {
		t.Errorf("recorded snapshot lacks per-VN occupancy")
	}
	if rec.Snapshot.Health == nil {
		t.Errorf("recorded snapshot lacks the health report")
	}
}

// Without a ledger the endpoint says so instead of faking emptiness.
func TestRunsEndpointNoLedger(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	resp, err := hs.Client().Get(hs.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, hs *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestDashPage: the dashboard is one self-contained HTML document.
func TestDashPage(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	resp, err := hs.Client().Get(hs.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content-type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	html := body.String()
	for _, want := range []string{
		"minvn fleet", "/debug/dash/events", "/v1/runs",
		"prefers-color-scheme", "EventSource",
		// Only a run that did not finish is red; every verdict is an answer.
		`(r.outcome === "failed" || r.outcome === "canceled") ? "bad-cell" : "ok-cell"`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard HTML misses %q", want)
		}
	}
	if strings.Contains(html, "src=\"http") || strings.Contains(html, "href=\"http") {
		t.Errorf("dashboard references external assets")
	}
}

// TestFleetFeed: jobs publish started/done onto the server-wide ring,
// and the SSE endpoint replays it with fleet-global sequence ids.
func TestFleetFeed(t *testing.T) {
	srv, hs, cl, _ := ledgerServer(t)

	if _, err := cl.Verify(context.Background(), verifyMSI(2000), true); err != nil {
		t.Fatalf("verify: %v", err)
	}

	events, _ := srv.FleetEvents(0)
	var types []string
	for _, e := range events {
		types = append(types, e.Type)
		if e.JobID == "" {
			t.Errorf("fleet event %d lacks a job id", e.Seq)
		}
	}
	if len(events) < 2 || types[0] != "started" || types[len(types)-1] != "done" {
		t.Fatalf("fleet ring = %v, want started..done", types)
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("fleet seq not dense: %d at index %d", e.Seq, i)
		}
	}

	// The SSE endpoint replays the same ring. The stream never ends, so
	// read until the done event and hang up.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+"/debug/dash/events", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawStarted, sawDone bool
	for sc.Scan() {
		line := sc.Text()
		if line == "event: started" {
			sawStarted = true
		}
		if line == "event: done" {
			sawDone = true
			break
		}
	}
	if !sawStarted || !sawDone {
		t.Fatalf("SSE replay incomplete: started=%v done=%v", sawStarted, sawDone)
	}
}

// resumeSSE reads the SSE stream at path as a client resuming from
// Last-Event-ID 1000, an id the server never issued (one kept across a
// server restart), until its "done" event, its end or a timeout, and
// returns the ids and types of the events it saw.
func resumeSSE(t *testing.T, hs *httptest.Server, path string) (ids, types []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+path, nil)
	req.Header.Set("Last-Event-ID", "1000")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			ids = append(ids, id)
		}
		if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			if types = append(types, typ); typ == "done" {
				break
			}
		}
	}
	return ids, types
}

// TestFleetResumeUnknownID: a dashboard resuming from an event id past
// the fleet feed's sequence is replayed the feed from its oldest event,
// not left silent until the sequence catches up.
func TestFleetResumeUnknownID(t *testing.T) {
	_, hs, cl, _ := ledgerServer(t)
	if _, err := cl.Verify(context.Background(), verifyMSI(2000), true); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ids, types := resumeSSE(t, hs, "/debug/dash/events")
	if len(ids) == 0 || ids[0] != "0" || types[0] != "started" || types[len(types)-1] != "done" {
		t.Fatalf("resumed fleet stream: ids %v, events %v; want the feed from id 0, started..done", ids, types)
	}
}

// TestJobEventsResumeUnknownID: a finished job's stream resumed from an
// event id past its history replays the history, ending in "done",
// instead of closing empty.
func TestJobEventsResumeUnknownID(t *testing.T) {
	_, hs, cl, _ := ledgerServer(t)
	view, err := cl.Verify(context.Background(), verifyMSI(2000), true)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	ids, types := resumeSSE(t, hs, "/v1/jobs/"+view.ID+"/events")
	if strings.Join(ids, ",") != "0" || strings.Join(types, ",") != "done" {
		t.Fatalf("resumed job stream: ids %v, events %v; want its one done event, id 0", ids, types)
	}
}

// TestRunsLegacyLedger: records written before run records carried
// verdicts still page by protocol. The fixture holds one record each
// from vnverify, vnexplain, vnmin, a vnserved verify job and a vnserved
// analyze job; an analyze record pages as one whether its kind is a
// param or its answer a static verdict. Its vnsweep and vnfuzz records,
// written before their rows and metrics were typed, page by tool.
func TestRunsLegacyLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "obs", "ledger", "testdata", "legacy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.New("vnmin")
	rec.Static = &vnassign.Verdict{Protocol: "CHI", Outcome: "class3", NumVNs: 2}
	rec.Outcome = rec.Static.Outcome
	if _, _, err := led.Append(rec); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Ledger: led})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close(); led.Close() })

	for proto, tools := range map[string]string{
		"MSI_nonblocking_cache":  "vnverify",
		"MSI_blocking_cache":     "vnexplain",
		"MESI_nonblocking_cache": "vnmin,vnserved",
		"CHI":                    "vnserved,vnmin",
	} {
		var page serve.RunsPage
		getJSON(t, hs, "/v1/runs?protocol="+proto, &page)
		var got []string
		for _, r := range page.Runs {
			if r.Protocol != proto {
				t.Errorf("?protocol=%s listed a %s run", proto, r.Protocol)
			}
			if proto == "CHI" && (r.Kind != "analyze" || r.Outcome != "class3") {
				t.Errorf("CHI %s run pages as kind %q, outcome %q; want analyze, class3", r.Tool, r.Kind, r.Outcome)
			}
			got = append([]string{r.Tool}, got...) // oldest first
		}
		if strings.Join(got, ",") != tools || page.Total != len(got) {
			t.Errorf("?protocol=%s: %d runs from %v, want %s", proto, page.Total, got, tools)
		}
	}
	for tool, outcome := range map[string]string{"vnsweep": "ok", "vnfuzz": "clean"} {
		var page serve.RunsPage
		getJSON(t, hs, "/v1/runs?full=1&tool="+tool, &page)
		if page.Total != 1 || page.Runs[0].Outcome != outcome || page.Runs[0].Record.Extra == nil {
			t.Errorf("?tool=%s: %+v; want one %s record with its payload", tool, page, outcome)
		}
	}
	var page serve.RunsPage
	getJSON(t, hs, "/v1/runs", &page)
	if page.Total != 8 {
		t.Errorf("/v1/runs pages %d records, want the 7 fixture records and one appended", page.Total)
	}
}
