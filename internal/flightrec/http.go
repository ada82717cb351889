package flightrec

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Handler serves the recorder's debug endpoints:
//
//	/debug/periods       — JSON list of period summaries, newest first
//	/debug/periods/{id}  — one full record (span tree + explains)
//	/debug/trace.json    — all retained spans in Chrome trace-event
//	                       format, loadable in Perfetto / chrome://tracing
//
// Mount it on a telemetry server under "/debug/periods",
// "/debug/periods/" and "/debug/trace.json".
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch {
		case req.URL.Path == "/debug/trace.json":
			r.serveChromeTrace(w)
		case req.URL.Path == "/debug/periods":
			writeJSON(w, r.Summaries())
		case strings.HasPrefix(req.URL.Path, "/debug/periods/"):
			r.servePeriod(w, strings.TrimPrefix(req.URL.Path, "/debug/periods/"))
		default:
			http.NotFound(w, req)
		}
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = encodeJSON(w, v)
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func (r *Recorder) servePeriod(w http.ResponseWriter, rest string) {
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		http.Error(w, "bad period id", http.StatusBadRequest)
		return
	}
	rec, ok := r.Get(id)
	if !ok {
		http.Error(w, "period not retained", http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}

// chromeEvent is one entry of the Chrome trace-event format. Timestamps
// and durations are microseconds; "X" is a complete (timed) event, "M" a
// metadata event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

func (r *Recorder) serveChromeTrace(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_ = r.WriteChromeTrace(w)
}

// WriteChromeTrace flattens every retained record's spans into one
// Chrome trace-event file (the /debug/trace.json payload), so callers
// without an HTTP server — CI failure hooks dumping artifacts, mainly —
// can persist the same trace. Each distinct span Node becomes a named
// "thread" so the viewer lays the room row above the per-rack rows;
// span nesting within a row comes from time containment, which the
// parent/child timing guarantees.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var spans []Span
	if r != nil {
		r.mu.Lock()
		r.each(func(rec *PeriodRecord) { spans = append(spans, rec.Spans...) })
		r.mu.Unlock()
	}
	out := chromeTrace{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	if len(spans) == 0 {
		return encodeJSON(w, out)
	}

	// Stable thread numbering: sorted node names, with the room-side
	// coordinator first if present.
	nodeSet := make(map[string]bool)
	for _, s := range spans {
		nodeSet[threadName(s)] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	tid := make(map[string]int, len(nodes))
	for i, n := range nodes {
		tid[n] = i + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": n},
		})
	}

	// Rebase timestamps to the earliest span so the viewer opens at t=0.
	base := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(base) {
			base = s.Start
		}
	}
	for _, s := range spans {
		args := map[string]any{
			"trace_id": s.TraceID,
			"span_id":  s.SpanID,
		}
		if s.ParentID != "" {
			args["parent_id"] = s.ParentID
		}
		if s.Retries > 0 {
			args["retries"] = s.Retries
		}
		if s.Error != "" {
			args["error"] = s.Error
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(base).Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid[threadName(s)],
			Cat:  "period",
			Args: args,
		})
	}
	return encodeJSON(w, out)
}

func threadName(s Span) string {
	if s.Node != "" {
		return s.Node
	}
	return "control"
}
