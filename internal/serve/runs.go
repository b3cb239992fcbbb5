package serve

import (
	"net/http"
	"strconv"

	"minvn/internal/obs/ledger"
)

// RunView is the wire summary of one ledger record, returned by
// GET /v1/runs. Record carries the full document only when the caller
// asked for it (?full=1) — summaries keep paging cheap.
type RunView struct {
	Seq          int            `json:"seq"`
	ID           string         `json:"id"`
	Created      string         `json:"created,omitempty"`
	Tool         string         `json:"tool"`
	Kind         string         `json:"kind,omitempty"`
	Protocol     string         `json:"protocol,omitempty"`
	Outcome      string         `json:"outcome,omitempty"`
	States       int            `json:"states,omitempty"`
	StatesPerSec float64        `json:"states_per_sec,omitempty"`
	Record       *ledger.Record `json:"record,omitempty"`
}

// RunsPage is one page of run history, newest-first. Total counts the
// runs matching the filters, not the page size.
type RunsPage struct {
	Total  int       `json:"total"`
	Offset int       `json:"offset"`
	Limit  int       `json:"limit"`
	Runs   []RunView `json:"runs"`
}

const (
	runsDefaultLimit = 50
	runsMaxLimit     = 500
)

// handleRuns pages the run ledger: GET /v1/runs?offset=&limit=&tool=&
// protocol=&full=1. Runs come newest-first; offset/limit page within
// the filtered view. Without a configured ledger the endpoint is 404 —
// absence of history is a deployment fact, not an empty result.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "run ledger not configured (start vnserved with -ledger)"})
		return
	}
	q := r.URL.Query()
	offset, _ := strconv.Atoi(q.Get("offset"))
	if offset < 0 {
		offset = 0
	}
	limit := runsDefaultLimit
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	if limit > runsMaxLimit {
		limit = runsMaxLimit
	}
	toolF, protoF := q.Get("tool"), q.Get("protocol")
	full := q.Get("full") == "1"

	entries := s.cfg.Ledger.Entries()
	page := RunsPage{Offset: offset, Limit: limit, Runs: []RunView{}}
	matched := 0
	for i := len(entries) - 1; i >= 0; i-- {
		rec := entries[i].Record
		if toolF != "" && rec.Tool != toolF {
			continue
		}
		if protoF != "" && rec.Protocol() != protoF {
			continue
		}
		if matched >= offset && len(page.Runs) < limit {
			page.Runs = append(page.Runs, runView(entries[i], full))
		}
		matched++
	}
	page.Total = matched
	writeJSON(w, http.StatusOK, page)
}

func runView(e ledger.Entry, full bool) RunView {
	rec := e.Record
	v := RunView{
		Seq: e.Seq, ID: e.ID,
		Created: rec.Created, Tool: rec.Tool, Outcome: rec.Outcome,
	}
	// A verdict answers a verification, a static verdict an analysis;
	// other runs state their kind.
	v.Kind, _ = rec.Params["kind"].(string)
	if rec.Verdict != nil {
		v.Kind = "verify"
	} else if rec.Static != nil {
		v.Kind = "analyze"
	}
	v.Protocol = rec.Protocol()
	if rec.Snapshot != nil {
		v.States = rec.Snapshot.States
		v.StatesPerSec = rec.Snapshot.StatesPerSec
	}
	if full {
		v.Record = rec
	}
	return v
}
