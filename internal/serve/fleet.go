package serve

import (
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
)

// fleetCap bounds the server-wide activity feed behind /debug/dash:
// the oldest events fall off it.
const fleetCap = 512

// publishLocked appends one of a job's events, stamped with its
// correlation identity, to the job's history and to the fleet feed.
// Caller holds s.mu.
func (s *Server) publishLocked(j *Job, e Event) {
	e = j.event(e)
	j.events.append(e)
	s.fleet.append(e)
}

// FleetEvents returns the server-wide activity events from seq from on
// (see eventLog.since) plus a channel closed on the next append. The
// fleet feed never ends: the channel is never nil, so dashboard streams
// stay open across idle periods.
func (s *Server) FleetEvents(from int) ([]Event, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet.since(from), s.fleet.updated
}

// recordJob appends a finished job to the run ledger, if one is
// configured. Called before the terminal state is published (see
// runJob) and outside s.mu — a slow disk stalls only the completing
// worker, never admission or readers. Cache hits never reach here: a
// replayed result is not a run.
func (s *Server) recordJob(job *Job, status JobStatus, errMsg string, snap *mc.Snapshot, seconds float64) {
	if s.cfg.Ledger == nil {
		return
	}
	rec := ledger.New("vnserved")
	// A finished run's outcome is its answer; a run with no verdict says
	// what was asked by kind and protocol.
	rec.Outcome = string(status)
	if status == StatusDone {
		rec.Outcome = job.task.outcome
	}
	rec.Verdict, rec.Static = job.task.verdict, job.task.static
	if rec.Verdict == nil && rec.Static == nil {
		rec.Params["kind"], rec.Params["protocol"] = job.task.kind, job.task.protocol
	}
	rec.Snapshot = snap
	// The three ids join the record to the job log, the SSE stream and
	// /debug/trace.
	rec.Extra = map[string]any{
		"job_id":   job.id,
		"trace_id": job.tc.TraceID,
		"seconds":  seconds,
	}
	if job.tc.RequestID != "" {
		rec.Extra["request_id"] = job.tc.RequestID
	}
	if errMsg != "" {
		rec.Extra["error"] = errMsg
	}
	if _, _, err := s.cfg.Ledger.Append(rec); err != nil {
		s.cfg.Logf("serve: ledger append for %s: %v", job.id, err)
	}
}
