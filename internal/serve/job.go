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

	status  JobStatus
	cached  bool
	err     string
	result  json.RawMessage
	events  []Event
	updated chan struct{} // closed and replaced on every change
}

func newJob(id string, t *task) *Job {
	return &Job{
		id:      id,
		tc:      trace.NewTraceContext(t.requestID, id),
		task:    t,
		status:  StatusQueued,
		updated: make(chan struct{}),
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

// notify wakes every waiter by closing the current update channel and
// installing a fresh one. Caller holds the server mutex.
func (j *Job) notify() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// appendEvent records an event in the replayable history and wakes
// SSE subscribers, stamping the job's correlation identity. Caller
// holds the server mutex.
func (j *Job) appendEvent(e Event) {
	e.Seq = len(j.events)
	e.JobID = j.id
	e.RequestID = j.tc.RequestID
	e.TraceID = j.tc.TraceID
	j.events = append(j.events, e)
	j.notify()
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
