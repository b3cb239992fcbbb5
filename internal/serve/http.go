package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"minvn/internal/obs"
)

// Handler builds the service's HTTP API over the server:
//
//	POST /v1/analyze            static analysis + min-VN assignment
//	POST /v1/verify             bounded model check (?wait=1 blocks)
//	GET  /v1/jobs/{id}          job status + result
//	GET  /v1/jobs/{id}/events   SSE progress stream (replay + live)
//	GET  /v1/stats              pool occupancy + serve.* counters
//	GET  /v1/runs               run-ledger history (paged, filterable)
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text format (serve_* + stage_job_*)
//	GET  /debug/dash            live fleet dashboard (self-contained HTML)
//	GET  /debug/dash/events     server-wide SSE activity feed for the dashboard
//	GET  /debug/trace           Chrome-trace JSON of a recent job (?job=<id>)
//	GET  /debug/pprof/          profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	mux.HandleFunc("GET /debug/dash/events", s.handleDashEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WriteMetricsText(w, s.cfg.Registry.Snapshot())
	})
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// submit runs admission for a prepared task and writes the HTTP
// response: 400 on request faults, whether preparing or resolving the
// task found them; 503 + Retry-After under backpressure or drain,
// otherwise 200/202 with the job view. The caller's X-Request-ID
// (sanitized) becomes the job's correlation identity and is echoed
// back on every response but a fault's.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, t *task, err error) {
	var job *Job
	var view *JobView
	if err == nil {
		t.requestID = sanitizeRequestID(r.Header.Get("X-Request-ID"))
		job, view, err = s.Submit(t)
	}
	if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrDraining) {
		code, msg := http.StatusInternalServerError, err.Error()
		var re *RequestError
		if errors.As(err, &re) {
			code, msg = http.StatusBadRequest, re.Error()
		}
		writeJSON(w, code, errorBody{Error: msg})
		return
	}
	if t.requestID != "" {
		w.Header().Set("X-Request-ID", t.requestID)
	}
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		view = s.wait(r, job)
	}
	code := http.StatusAccepted
	if view.Status == StatusDone || view.Status == StatusFailed || view.Status == StatusCanceled {
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

// wait blocks until the job is terminal or the client goes away, then
// returns the freshest view. It holds the job, not its id, so eviction
// from the id map (maxTerminalJobs) cannot strand it.
func (s *Server) wait(r *http.Request, j *Job) *JobView {
	for {
		s.mu.Lock()
		ch := j.events.updated
		view := j.view()
		done := j.terminal()
		s.mu.Unlock()
		if done {
			return view
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return view
		}
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, err := prepareAnalyze(req)
	s.submit(w, r, t, err)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, err := prepareVerify(req, s.cfg.MaxStates, s.cfg.ProgressEvery)
	s.submit(w, r, t, err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams the job's event history and live updates as
// Server-Sent Events. Every event is replayed from the start (or the
// Last-Event-ID the client resumes from), so a subscriber attaching
// after completion still sees the full sequence ending in "done".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	streamEvents(w, r, "", func(from int) ([]Event, <-chan struct{}, error) {
		events, next, ok := s.Events(id, from)
		if !ok {
			return nil, nil, errors.New("no such job")
		}
		return events, next, nil
	})
}

// streamEvents writes an event log as Server-Sent Events: the events
// from the client's Last-Event-ID on (all of them without one), then
// each new one, until the client goes away. read returns the events
// from a sequence number on and a channel closed on the next change; a
// nil channel ends the stream once those events are written, and an
// error ends it with an error event. A non-empty hello is written first
// as a comment line, so a client sees the stream open on an idle feed.
func streamEvents(w http.ResponseWriter, r *http.Request, hello string,
	read func(from int) ([]Event, <-chan struct{}, error)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	from := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n + 1
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if hello != "" {
		fmt.Fprintf(w, ": %s\n\n", hello)
		flusher.Flush()
	}

	for {
		events, next, err := read(from)
		if err != nil {
			data, _ := json.Marshal(errorBody{Error: err.Error()})
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
			flusher.Flush()
			return
		}
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
			from = e.Seq + 1
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		if next == nil {
			return
		}
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleDebugTrace exports a job's flight recorder as Chrome trace
// JSON (load it in chrome://tracing or Perfetto). ?job=<id> selects a
// job; the default is the most recently started traced job. With
// tracing off (or the job evicted) the export is an empty, valid
// document rather than an error — the endpoint is always safe to curl.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.TraceRecorder(r.URL.Query().Get("job"))
	w.Header().Set("Content-Type", "application/json")
	_ = rec.Export(w)
}

// requestIDMaxLen bounds the accepted X-Request-ID length.
const requestIDMaxLen = 64

// sanitizeRequestID restricts a caller-supplied request ID to a safe
// charset ([A-Za-z0-9._-]) and length, so IDs can be embedded in log
// lines, lane names, and headers verbatim. Offending characters are
// dropped; an all-invalid ID becomes empty (treated as absent).
func sanitizeRequestID(id string) string {
	if len(id) > requestIDMaxLen {
		id = id[:requestIDMaxLen]
	}
	var b []byte
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b = append(b, c)
		}
	}
	return string(b)
}
