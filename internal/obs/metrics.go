package obs

import (
	"fmt"
	"io"
	"strings"
)

// metricHelp maps registry names onto the one-line descriptions the
// exposition's `# HELP` lines carry. Unlisted metrics get a generic
// description derived from their name rather than none — Prometheus
// tooling treats a missing HELP as an empty string, which reads as a
// bug in the exporter.
var metricHelp = map[string]string{
	"serve.requests":          "Analyze/verify submissions accepted at the HTTP layer, cache hits and singleflight joins included.",
	"serve.cache_hits":        "Submissions answered byte-identically from the content-addressed result cache.",
	"serve.cache_misses":      "Submissions whose key was absent from the result cache.",
	"serve.singleflight_hits": "Submissions joined onto an already queued or running job for the same key.",
	"serve.rejected_busy":     "Submissions refused with 503 because the admission queue was full.",
	"serve.jobs_done":         "Jobs that ran to completion and published a result.",
	"serve.jobs_failed":       "Jobs that ended in an error other than cancellation.",
	"serve.jobs_canceled":     "Jobs cut short by their deadline or server shutdown.",
	"serve.running":           "Jobs executing right now (bounded by the worker pool size).",
	"serve.queued":            "Jobs admitted but not yet picked up by a worker.",
	"serve.cache_entries":     "Entries currently held in the content-addressed result cache.",
}

// helpText resolves a metric's HELP line, falling back to a generated
// description so every exposed metric carries one.
func helpText(name, kind string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return fmt.Sprintf("%s %q (no registered description).", kind, name)
}

// WriteMetricsText renders a snapshot in the Prometheus text
// exposition format: one `# HELP` + `# TYPE` pair and one sample per
// metric, names sanitized to the metric charset (dots become
// underscores), deterministic order — counters sorted by name, then
// gauges sorted by name, then stage summaries sorted by name. It is
// deliberately minimal — enough for `curl /metrics`, scrape jobs, and
// tests, with no client library.
func WriteMetricsText(w io.Writer, s Snapshot) error {
	emit := func(kind string, names []string, get func(string) int64) error {
		for _, name := range names {
			mn := metricName(name)
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
				mn, helpText(name, kind), mn, kind, mn, get(name)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("counter", SortedNames(s.Counters), func(n string) int64 { return s.Counters[n] }); err != nil {
		return err
	}
	if err := emit("gauge", SortedNames(s.Gauges), func(n string) int64 { return s.Gauges[n] }); err != nil {
		return err
	}
	// Stage timers render as Prometheus summaries (count + sum), plus a
	// non-standard _max gauge for the slowest single run — the signal a
	// mean hides.
	for _, st := range s.StageSummaries {
		mn := "stage_" + metricName(st.Name) + "_seconds"
		if _, err := fmt.Fprintf(w,
			"# HELP %s Wall-clock time spent in the %q pipeline stage.\n"+
				"# TYPE %s summary\n%s_count %d\n%s_sum %g\n"+
				"# HELP %s_max Slowest single run of the %q stage, in seconds.\n"+
				"# TYPE %s_max gauge\n%s_max %g\n",
			mn, st.Name, mn, mn, st.Count, mn, st.Seconds,
			mn, st.Name, mn, mn, st.Max); err != nil {
			return err
		}
	}
	return nil
}

// metricName maps a registry name onto the Prometheus metric charset
// [a-zA-Z0-9_:].
func metricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
