package serve

import (
	"context"
	"errors"
	"log"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
	"minvn/internal/obs/trace"
)

// Config tunes a Server. The zero value is usable: Defaults fills in
// every unset field.
type Config struct {
	// Workers is the size of the checking pool: the number of jobs
	// that run concurrently. Queued jobs beyond that wait. A verify
	// job whose request leaves workers and engine unset searches with
	// GOMAXPROCS divided by the jobs running as it starts (at least
	// one worker).
	Workers int
	// QueueDepth bounds the admission queue. A submit that finds the
	// queue full is refused (HTTP 503 + Retry-After) instead of
	// waiting — backpressure, not buffering.
	QueueDepth int
	// CacheEntries caps the content-addressed result cache; 0 uses
	// the default, negative disables caching.
	CacheEntries int
	// DefaultDeadline and MaxDeadline bound per-job runtimes.
	// Requests may shorten below the default or lengthen up to the
	// max.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxBodyBytes caps request bodies at the HTTP layer.
	MaxBodyBytes int64
	// MaxStates bounds every verify job's state count; unbounded or
	// larger requests are clamped to it.
	MaxStates int
	// ProgressEvery is the stored-state period between SSE snapshot
	// events for running verify jobs.
	ProgressEvery int
	// Registry receives the server's metrics; a fresh one is created
	// if nil.
	Registry *obs.Registry
	// JobLog, when non-nil, receives the per-job lifecycle log (see
	// NewJobLog for the JSONL form vnserved writes).
	JobLog *slog.Logger
	// Ledger, when non-nil, receives one content-addressed record per
	// completed (non-cached) job — the run history behind GET /v1/runs
	// and the dashboard. Recording is strictly passive: the append
	// happens just before the job's terminal state is published, off
	// the pool's locked sections.
	Ledger *ledger.Ledger
	// TraceJobs is how many recent jobs keep a per-job flight
	// recorder, exported by GET /debug/trace. 0 disables job tracing
	// (the endpoint then serves an empty, valid trace document).
	TraceJobs int
	// BeforeRun, when non-nil, runs at the start of every job
	// execution (after dequeue, before the task body) with the job's
	// context, whose deadline is already running. Tests use it to hold
	// jobs in the running state, or until their deadline, deterministically.
	BeforeRun func(ctx context.Context)
	// Logf receives server lifecycle logs; log.Printf if nil.
	Logf func(format string, args ...any)
}

// Defaults returns cfg with every unset field filled in.
func (cfg Config) Defaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 2 * time.Minute
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 10 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 2 << 20
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 2_000_000
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 50_000
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// DefaultTraceLaneCap is the per-lane event capacity of per-job flight
// recorders: small, because the server keeps TraceJobs of them alive.
const DefaultTraceLaneCap = 512

// maxTerminalJobs is how many finished jobs stay addressable by id
// (status, result, SSE replay), oldest evicted first: a job pins its
// result bytes and whole snapshot history. Queued and running jobs are
// never evicted, and a finished run stays in the ledger.
const maxTerminalJobs = 256

// Server is the analysis service: a bounded worker pool over an
// admission-controlled queue, with singleflight deduplication and a
// content-addressed result cache in front of it.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string          // ids of terminal jobs in completion order, at most maxTerminalJobs
	inflight map[cacheKey]*Job // queued/running job per key (singleflight)
	cache    *lruCache
	queue    chan *Job
	nextID   uint64
	draining bool

	running    int // jobs currently executing
	runningHWM int // high-water mark of running

	// finishMu serializes job completion (record, then publish); see
	// runJob. Taken before mu, never the other way round.
	finishMu sync.Mutex

	// Per-job flight recorders, newest last; bounded at cfg.TraceJobs.
	// A job's recorder is installed when it starts running and survives
	// completion until evicted, so /debug/trace covers recent history.
	traces     map[string]*trace.Recorder
	traceOrder []string

	// fleet is the server-wide activity feed behind the dashboard's SSE
	// stream: started/snapshot/done events across all jobs, with a
	// fleet-wide sequence so reconnects resume via Last-Event-ID.
	fleet eventLog

	runBase context.Context // canceled by Close to hard-stop runs
	stopRun context.CancelFunc
	workers sync.WaitGroup

	// metric handles, resolved once
	mRequests    *obs.Counter
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	mDedup       *obs.Counter
	mRejected    *obs.Counter
	mDone        *obs.Counter
	mFailed      *obs.Counter
	mCanceled    *obs.Counter
	gRunning     *obs.Gauge
	gQueued      *obs.Gauge
	gCacheSize   *obs.Gauge
}

// ErrBusy is returned by Submit when the admission queue is full.
var ErrBusy = errors.New("serve: queue full, retry later")

// ErrDraining is returned by Submit once shutdown has begun.
var ErrDraining = errors.New("serve: server is draining")

// New starts a server's worker pool. Callers must Drain or Close it.
func New(cfg Config) *Server {
	cfg = cfg.Defaults()
	s := &Server{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		inflight: make(map[cacheKey]*Job),
		cache:    newLRUCache(cfg.CacheEntries),
		queue:    make(chan *Job, cfg.QueueDepth),
		traces:   make(map[string]*trace.Recorder),
		fleet:    newEventLog(fleetCap),
	}
	r := cfg.Registry
	s.mRequests = r.Counter("serve.requests")
	s.mCacheHits = r.Counter("serve.cache_hits")
	s.mCacheMisses = r.Counter("serve.cache_misses")
	s.mDedup = r.Counter("serve.singleflight_hits")
	s.mRejected = r.Counter("serve.rejected_busy")
	s.mDone = r.Counter("serve.jobs_done")
	s.mFailed = r.Counter("serve.jobs_failed")
	s.mCanceled = r.Counter("serve.jobs_canceled")
	s.gRunning = r.Gauge("serve.running")
	s.gQueued = r.Gauge("serve.queued")
	s.gCacheSize = r.Gauge("serve.cache_entries")
	s.runBase, s.stopRun = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Submit admits a prepared task. It returns the job serving it — a
// fresh one, or (with cached/deduped true in the view) an existing
// one when the result cache or the singleflight map already covers
// the key — and its view at admission. ErrBusy means the queue is
// full; ErrDraining means the server is shutting down; a
// *RequestError is a fault that resolving a verify task found.
//
// A verify task is keyed but not resolved: a hit or a join is answered
// from the key alone, and only a miss resolves the task, off the lock.
// A resolve fault refuses the request as a fault found while preparing
// it would: nothing is counted, logged or admitted.
func (s *Server) Submit(t *task) (*Job, *JobView, error) {
	if t.resolve != nil {
		if job, view, ok := s.answer(t); ok {
			return job, view, nil
		}
		if err := t.resolve(); err != nil {
			return nil, nil, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.mRequests.Inc()

	if s.draining {
		return nil, nil, ErrDraining
	}
	// Checked again for a task resolved above: an identical request may
	// have been admitted, or have finished, while this one resolved.
	if job, view, ok := s.answerLocked(t); ok {
		return job, view, nil
	}
	s.mCacheMisses.Inc()

	// The job is admitted and logged before it is queued: once queued, a
	// free worker may log "started" at once. Submit is the only sender
	// and holds s.mu, and workers only drain, so a queue with room now
	// still has room at the send, which therefore cannot block.
	job := newJob(jobID(s.bumpID()), t)
	if len(s.queue) == cap(s.queue) {
		s.mRejected.Inc()
		s.logJob(slog.LevelWarn, "rejected_busy", trace.NewTraceContext(t.requestID, ""),
			"kind", t.kind, "protocol", t.protocol, "queued", len(s.queue))
		return nil, nil, ErrBusy
	}
	s.jobs[job.id] = job
	s.inflight[t.key] = job
	queued := len(s.queue) + 1 // this job included
	s.gQueued.Set(int64(queued))
	s.logJob(slog.LevelInfo, "admitted", job.tc, "kind", t.kind, "protocol", t.protocol, "queued", queued)
	s.queue <- job
	return job, job.view(), nil
}

// answer serves a task before it is resolved, when the cache or an
// in-flight job covers its key and the server is not draining, and
// counts it as a request; ok false means neither did, and counts
// nothing.
func (s *Server) answer(t *task) (job *Job, view *JobView, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, false
	}
	if job, view, ok = s.answerLocked(t); ok {
		s.mRequests.Inc()
	}
	return job, view, ok
}

// answerLocked serves t from the result cache or from a queued or
// running job with the same key, counting the hit, or the miss and the
// join; ok false means neither covers the key, and counts nothing.
// Caller holds s.mu.
func (s *Server) answerLocked(t *task) (*Job, *JobView, bool) {
	// Content-addressed cache: replay the first completed run's exact
	// bytes as an immediately-done job.
	if ent, ok := s.cache.get(t.key); ok {
		s.mCacheHits.Inc()
		job := newJob(jobID(s.bumpID()), t)
		job.status = StatusDone
		job.cached = true
		job.result = ent.result
		s.jobs[job.id] = job
		s.retireLocked(job)
		s.publishLocked(job, Event{Type: "done", Job: job.view()})
		s.logJob(slog.LevelInfo, "cache_hit", job.tc, "kind", t.kind, "protocol", t.protocol, "produced_by", ent.jobID)
		return job, job.view(), true
	}

	// Singleflight: a queued or running job for the same key serves
	// this request too. The joiner's own request ID gets its own log
	// line, tied to the serving job's identity, so both requests stay
	// traceable even though only one job runs.
	job, ok := s.inflight[t.key]
	if !ok {
		return nil, nil, false
	}
	s.mCacheMisses.Inc()
	s.mDedup.Inc()
	s.logJob(slog.LevelInfo, "joined", trace.NewTraceContext(t.requestID, job.id), "kind", t.kind,
		"protocol", t.protocol, "job_request_id", job.tc.RequestID, "job_trace_id", job.tc.TraceID)
	return job, job.view(), true
}

// retireLocked notes that job is terminal and evicts the oldest
// finished jobs beyond maxTerminalJobs from the id map; holders of an
// evicted *Job (a ?wait=1 handler) are unaffected. Caller holds s.mu.
func (s *Server) retireLocked(job *Job) {
	s.finished = append(s.finished, job.id)
	for len(s.finished) > maxTerminalJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// searchShare is the search workers of a verify job on the auto engine
// whose request leaves workers unset: the host's CPUs divided among the
// jobs running as it starts, itself included, and at least one (which
// auto runs as the sequential engine). A job alone on the server gets
// every CPU. A job does not give CPUs back when others start after it.
// Caller holds s.mu.
func (s *Server) searchShare() int {
	return max(1, runtime.GOMAXPROCS(0)/s.running)
}

func (s *Server) bumpID() uint64 {
	s.nextID++
	return s.nextID
}

// Job returns the view of a job by id.
func (s *Server) Job(id string) (*JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.view(), true
}

// Events returns the job's events from seq from on (see
// eventLog.since) plus a channel that is closed on the next change (nil
// if the job is terminal, when they end its history).
func (s *Server) Events(id string, from int) ([]Event, <-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, false
	}
	if j.terminal() {
		return j.events.since(from), nil, true
	}
	return j.events.since(from), j.events.updated, true
}

// TraceRecorder returns the flight recorder of the given job, or —
// with an empty id — of the most recently started traced job. The
// returned recorder may be nil (job unknown, evicted, or tracing off);
// nil is directly exportable as an empty, valid trace document.
func (s *Server) TraceRecorder(jobID string) *trace.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jobID == "" {
		if len(s.traceOrder) == 0 {
			return nil
		}
		jobID = s.traceOrder[len(s.traceOrder)-1]
	}
	return s.traces[jobID]
}

// Stats is the server's metric snapshot plus pool facts.
type Stats struct {
	Workers      int              `json:"workers"`
	QueueDepth   int              `json:"queue_depth"`
	Running      int              `json:"running"`
	RunningHWM   int              `json:"running_hwm"`
	Queued       int              `json:"queued"`
	CacheEntries int              `json:"cache_entries"`
	Counters     map[string]int64 `json:"counters"`
}

// Stats reports pool occupancy and the serve.* counters.
func (s *Server) Stats() Stats {
	snap := s.cfg.Registry.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:      s.cfg.Workers,
		QueueDepth:   s.cfg.QueueDepth,
		Running:      s.running,
		RunningHWM:   s.runningHWM,
		Queued:       len(s.queue),
		CacheEntries: s.cache.len(),
		Counters:     snap.Counters,
	}
}

// Drain stops admission, waits for queued and running jobs to finish
// (or ctx to expire, which hard-cancels the remainder), and releases
// the pool.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // safe: sends also happen under s.mu
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopRun()
		return nil
	case <-ctx.Done():
		s.stopRun() // hard-stop in-flight checks via their contexts
		<-done
		return ctx.Err()
	}
}

// Close hard-stops the server without waiting for jobs to finish.
func (s *Server) Close() {
	s.stopRun()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// worker drains the queue until it is closed.
func (s *Server) worker() {
	defer s.workers.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job and publishes its terminal state.
func (s *Server) runJob(job *Job) {
	// A per-job flight recorder, when tracing is on: registered before
	// the run so /debug/trace can export a still-running job.
	var rec *trace.Recorder
	if s.cfg.TraceJobs > 0 {
		rec = trace.New(trace.Config{LaneCapacity: DefaultTraceLaneCap})
	}

	// Logged before the status flips, so a client that sees "running"
	// finds the line (the same rule the terminal state follows below).
	s.logJob(slog.LevelInfo, "started", job.tc, "kind", job.task.kind)
	s.mu.Lock()
	job.status = StatusRunning
	s.running++
	if s.running > s.runningHWM {
		s.runningHWM = s.running
	}
	s.gRunning.Set(int64(s.running))
	s.gQueued.Set(int64(len(s.queue)))
	// A perf knob, outside the cache key like workers itself. An engine
	// the request named keeps its default: dist's key names its fleet
	// size, and a pipeline of one worker would only add overhead.
	if j := job.task.search; j != nil && j.Engine == dist.EngineAuto && j.Workers <= 0 {
		j.Workers = s.searchShare()
	}
	if rec != nil {
		s.traces[job.id] = rec
		s.traceOrder = append(s.traceOrder, job.id)
		for len(s.traceOrder) > s.cfg.TraceJobs {
			delete(s.traces, s.traceOrder[0])
			s.traceOrder = s.traceOrder[1:]
		}
	}
	job.events.notify()
	s.fleet.append(job.event(Event{Type: "started", Job: job.view()}))
	s.mu.Unlock()

	deadline := effectiveDeadline(job.task.deadline, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	ctx, cancel := context.WithTimeout(s.runBase, deadline)
	// The TraceContext rides the run context into the engines, which
	// prefix their recorder lanes with the job/request identity.
	ctx = trace.WithTraceContext(ctx, job.tc)
	if s.cfg.BeforeRun != nil {
		s.cfg.BeforeRun(ctx)
	}
	var finalSnap *mc.Snapshot
	progress := func(snap mc.Snapshot) {
		if snap.Final {
			// The terminal event carries the final state; keep it for
			// the job's ledger record. Engines deliver snapshots on the
			// goroutine that called them — this one.
			finalSnap = &snap
			return
		}
		s.mu.Lock()
		s.publishLocked(job, Event{Type: "snapshot", Snapshot: &snap})
		s.mu.Unlock()
	}
	// The job lane guarantees the correlation identity appears in the
	// trace export even for jobs that never reach an engine.
	jobSpan := rec.Lane(job.tc.LanePrefix() + "job").Start(job.task.kind)
	stopStage := s.cfg.Registry.StartStage("job." + job.task.kind)
	start := time.Now()
	result, err := job.task.run(ctx, progress, rec)
	stopStage()
	jobSpan.End()
	cancel()

	seconds := time.Since(start).Seconds()
	status, errMsg, level := StatusDone, "", slog.LevelInfo
	switch {
	case err == nil:
	case errors.Is(err, errJobCanceled):
		status, errMsg, level = StatusCanceled, "canceled: deadline exceeded or server shutdown", slog.LevelWarn
	default:
		status, errMsg, level = StatusFailed, err.Error(), slog.LevelError
	}
	fields := []any{"kind", job.task.kind, "status", string(status), "seconds", seconds}
	if errMsg != "" {
		fields = append(fields, "error", errMsg)
	}

	// "Done" means "recorded": the job-log line and the ledger record are
	// written before the terminal state is published, so a client
	// released by the done event (or ?wait=1) finds its run in /v1/runs
	// and in the log. finishMu spans record-then-publish, which keeps
	// ledger order equal to completion order across workers, and it is
	// the only lock held over the file I/O — s.mu is not, so submitters
	// and readers never wait on the disk.
	s.finishMu.Lock()
	defer s.finishMu.Unlock()
	s.logJob(level, "finished", job.tc, fields...)
	s.recordJob(job, status, errMsg, finalSnap, seconds)

	s.mu.Lock()
	defer s.mu.Unlock()
	job.status, job.err = status, errMsg
	switch status {
	case StatusDone:
		job.result = result
		s.cache.add(job.task.key, result, job.id)
		s.gCacheSize.Set(int64(s.cache.len()))
		s.mDone.Inc()
	case StatusCanceled:
		s.mCanceled.Inc()
	default:
		s.mFailed.Inc()
	}
	delete(s.inflight, job.task.key)
	s.retireLocked(job)
	s.running--
	s.gRunning.Set(int64(s.running))
	s.publishLocked(job, Event{Type: "done", Job: job.view()})
	// Recorded and published: nothing reads the search (a verify job's
	// compiled system) or the run closure again, so a job kept in the
	// terminal window does not keep them.
	job.task.search, job.task.run = nil, nil
}
