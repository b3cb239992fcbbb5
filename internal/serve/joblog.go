package serve

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"time"

	"minvn/internal/obs/trace"
)

// NewJobLog builds the structured per-job event log for Config.JobLog:
// a stdlib slog JSON handler writing one object per line to w, dropping
// events below level, with the built-in keys renamed to the log's own —
// "ts" (RFC 3339, UTC), "level" (lower case) and "event". The log
// carries lifecycle events only (admitted, joined, cache_hit,
// rejected_busy, started, finished): it is the one surface that sees
// requests which never became a run. Progress snapshots are on the SSE
// stream; the finished run is in the ledger.
func NewJobLog(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			switch a.Key { // the log is flat: no groups to tell apart
			case slog.TimeKey:
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			case slog.LevelKey:
				return slog.String("level", strings.ToLower(a.Value.String()))
			case slog.MessageKey:
				a.Key = "event"
			}
			return a
		},
	}))
}

// logJob writes one lifecycle line: the job's correlation identity
// (job_id, request_id, trace_id — the ids on its SSE events, trace
// lanes, view and ledger record), then the event's own key/value
// fields. A nil Config.JobLog logs nothing.
func (s *Server) logJob(level slog.Level, event string, tc trace.TraceContext, fields ...any) {
	if s.cfg.JobLog == nil {
		return
	}
	var ids []any
	for _, id := range [][2]string{{"job_id", tc.JobID}, {"request_id", tc.RequestID}, {"trace_id", tc.TraceID}} {
		if id[1] != "" {
			ids = append(ids, id[0], id[1])
		}
	}
	s.cfg.JobLog.Log(context.Background(), level, event, append(ids, fields...)...)
}
