package serve

import (
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
)

// fleetCap bounds the server-wide activity ring behind /debug/dash.
// Old events fall off the front; fleetBase tracks the Seq of the
// oldest retained event so late subscribers know what they missed.
const fleetCap = 512

// appendFleetLocked stamps a fleet-wide sequence number onto e, stores
// it in the bounded ring, and wakes dashboard subscribers. Caller
// holds s.mu. Unlike per-job events, fleet Seq numbers are global and
// monotonically increasing across the server's lifetime.
func (s *Server) appendFleetLocked(e Event) {
	e.Seq = s.fleetSeq
	s.fleetSeq++
	s.fleet = append(s.fleet, e)
	if drop := len(s.fleet) - fleetCap; drop > 0 {
		s.fleet = append(s.fleet[:0], s.fleet[drop:]...)
		s.fleetBase += drop
	}
	close(s.fleetCh)
	s.fleetCh = make(chan struct{})
}

// fleetEvent builds a fleet ring entry carrying the job's correlation
// identity; Seq is assigned at append time.
func fleetEvent(typ string, j *Job, snap *mc.Snapshot, view *JobView) Event {
	return Event{
		Type: typ, JobID: j.id,
		RequestID: j.tc.RequestID, TraceID: j.tc.TraceID,
		Snapshot: snap, Job: view,
	}
}

// FleetEvents returns the server-wide activity events with Seq >= from
// plus a channel closed on the next append. The fleet feed never
// terminates: the channel is always non-nil, so dashboard streams stay
// open across idle periods.
func (s *Server) FleetEvents(from int) ([]Event, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.fleetBase {
		from = s.fleetBase
	}
	var tail []Event
	if idx := from - s.fleetBase; idx < len(s.fleet) {
		tail = append(tail, s.fleet[idx:]...)
	}
	return tail, s.fleetCh
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
