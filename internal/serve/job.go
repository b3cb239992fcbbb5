package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"minvn/internal/mc"
	"minvn/internal/obs/trace"
)

// JobStatus is the lifecycle of a submitted job.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Event is one SSE payload: a live telemetry snapshot while the job
// runs, then a terminal "done" event carrying the final job view.
// Every event carries the job's correlation identity, so a consumer
// holding only the SSE stream can join it against the job log and
// flight-recorder export.
type Event struct {
	Type      string       `json:"type"` // snapshot | done
	Seq       int          `json:"seq"`
	JobID     string       `json:"job_id,omitempty"`
	RequestID string       `json:"request_id,omitempty"`
	TraceID   string       `json:"trace_id,omitempty"`
	Snapshot  *mc.Snapshot `json:"snapshot,omitempty"`
	Job       *JobView     `json:"job,omitempty"`
}

// JobView is the wire form of a job, returned by GET /v1/jobs/{id}
// and embedded in terminal events. Result is the raw cached/produced
// document so identical requests are served byte-identically.
type JobView struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Protocol string    `json:"protocol"`
	Status   JobStatus `json:"status"`
	Cached   bool      `json:"cached"`
	// RequestID is the caller-supplied X-Request-ID of the request that
	// created this job; TraceID is derived from it and the job ID. The
	// identity lives on the job, never inside Result — cached results
	// must stay byte-identical across requests.
	RequestID string          `json:"request_id,omitempty"`
	TraceID   string          `json:"trace_id,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// Job is one admitted request. All fields after the identity block
// are guarded by the owning Server's mutex.
type Job struct {
	id string
	tc trace.TraceContext // correlation identity; immutable after newJob

	task *task

	status JobStatus
	cached bool
	err    string
	result json.RawMessage
	// events is the job's replayable history. Its channel also wakes
	// waiters on a change that adds no event (the job starting).
	events eventLog
}

func newJob(id string, t *task) *Job {
	return &Job{
		id:     id,
		tc:     trace.NewTraceContext(t.requestID, id),
		task:   t,
		status: StatusQueued,
		events: newEventLog(0),
	}
}

// view renders the wire form. Caller holds the server mutex.
func (j *Job) view() *JobView {
	return &JobView{
		ID: j.id, Kind: j.task.kind, Protocol: j.task.protocol,
		Status: j.status, Cached: j.cached,
		RequestID: j.tc.RequestID, TraceID: j.tc.TraceID,
		Error: j.err, Result: j.result,
	}
}

// event stamps e with the job's correlation identity.
func (j *Job) event(e Event) Event {
	e.JobID, e.RequestID, e.TraceID = j.id, j.tc.RequestID, j.tc.TraceID
	return e
}

// eventLog is a replayable history of events numbered from 0: a job's,
// which keeps every event, or the server's fleet feed, which keeps its
// newest limit. Guarded by the server mutex.
type eventLog struct {
	events  []Event
	base    int           // Seq of events[0]
	limit   int           // events retained; 0 keeps all
	updated chan struct{} // closed and replaced on every change
}

func newEventLog(limit int) eventLog {
	return eventLog{limit: limit, updated: make(chan struct{})}
}

// append stamps e with the next sequence number, retains it, dropping
// the oldest event beyond the limit, and wakes every waiter.
func (l *eventLog) append(e Event) {
	e.Seq = l.base + len(l.events)
	l.events = append(l.events, e)
	if drop := len(l.events) - l.limit; l.limit > 0 && drop > 0 {
		l.events = append(l.events[:0], l.events[drop:]...)
		l.base += drop
	}
	l.notify()
}

// notify wakes every waiter by closing the update channel and
// installing a fresh one.
func (l *eventLog) notify() {
	close(l.updated)
	l.updated = make(chan struct{})
}

// since returns the retained events from sequence number from on. A
// from past the next sequence number is one this log never issued (a
// client resuming across a server restart, say): like a from older
// than the oldest retained event, it replays from the oldest one.
func (l *eventLog) since(from int) []Event {
	if from < l.base || from > l.base+len(l.events) {
		from = l.base
	}
	return append([]Event(nil), l.events[from-l.base:]...)
}

// terminal reports whether the job has finished (any way).
func (j *Job) terminal() bool {
	switch j.status {
	case StatusDone, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// jobID renders sequential ids; content addressing lives in the cache
// key, so ids only need to be unique per process.
func jobID(n uint64) string { return fmt.Sprintf("job-%d", n) }

// effectiveDeadline resolves a job's deadline against the server
// defaults: requests may shorten below the default or lengthen up to
// the max, never beyond.
func effectiveDeadline(requested, def, max time.Duration) time.Duration {
	d := def
	if requested > 0 {
		d = requested
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
