package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Request-correlation forensics: reconstruct one served query's journey
// across the serving stack from its TypeRequest events. The fleet and the
// station each stamp the request id into Detail as a req=<id> token,
// so a span tree needs nothing but the recorded stream — no in-band
// context propagation beyond the X-Agg-Request-Id header.

// Token extracts the value of a space-separated k=v token from an event
// Detail string.
func Token(detail, key string) (string, bool) {
	for _, f := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v, true
		}
	}
	return "", false
}

// stripTokens returns detail without the named k=v tokens — rendering
// helpers drop req= and job= once the tree structure already says them.
func stripTokens(detail string, keys ...string) string {
	fields := strings.Fields(detail)
	out := fields[:0]
next:
	for _, f := range fields {
		for _, k := range keys {
			if strings.HasPrefix(f, k+"=") {
				continue next
			}
		}
		out = append(out, f)
	}
	return strings.Join(out, " ")
}

// RequestEvents selects the TypeRequest events for one request id, in
// time order.
func RequestEvents(events []Event, id string) []Event {
	var out []Event
	for _, e := range events {
		if e.Type != TypeRequest {
			continue
		}
		if v, ok := Token(e.Detail, "req"); ok && v == id {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// RequestIDs returns the distinct request ids present in the trace, in
// first-appearance order — how aggtrace lists candidates when asked for a
// request it cannot find.
func RequestIDs(events []Event) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range events {
		if e.Type != TypeRequest {
			continue
		}
		if v, ok := Token(e.Detail, "req"); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// RequestSpan is one node of a request's span tree: either a standalone
// stage (fleet fan-out/merge) or a job grouping the
// station-side stages that share a job=<id> token.
type RequestSpan struct {
	Job    string  // job id, "" for standalone stages
	Events []Event // the span's stages in time order
}

// Start returns the span's first event time.
func (s RequestSpan) Start() time.Duration { return s.Events[0].At }

// RequestTree groups one request's events into spans: events carrying a
// job= token collapse into one span per job (ordered by the job's first
// event); the rest stand alone. The result is the tree aggtrace renders —
// fan-out/merge at the top level, per-job admit→run→done nested.
func RequestTree(events []Event, id string) []RequestSpan {
	evs := RequestEvents(events, id)
	byJob := make(map[string]int)
	var spans []RequestSpan
	for _, e := range evs {
		if job, ok := Token(e.Detail, "job"); ok {
			i, seen := byJob[job]
			if !seen {
				i = len(spans)
				byJob[job] = i
				spans = append(spans, RequestSpan{Job: job})
			}
			spans[i].Events = append(spans[i].Events, e)
			continue
		}
		spans = append(spans, RequestSpan{Events: []Event{e}})
	}
	return spans
}

// WriteRequestTree renders one request's span tree with per-stage timings
// offset from the request's first recorded event. Unknown ids return an
// error naming the ids the trace does hold.
func WriteRequestTree(w io.Writer, events []Event, id string) error {
	spans := RequestTree(events, id)
	if len(spans) == 0 {
		ids := RequestIDs(events)
		if len(ids) == 0 {
			return fmt.Errorf("trace holds no request events")
		}
		if len(ids) > 8 {
			ids = append(ids[:8], "…")
		}
		return fmt.Errorf("no events for request %s (trace holds: %s)", id, strings.Join(ids, ", "))
	}
	start := spans[0].Start()
	var end time.Duration
	n := 0
	for _, s := range spans {
		n += len(s.Events)
		if last := s.Events[len(s.Events)-1].At; last > end {
			end = last
		}
	}
	fmt.Fprintf(w, "request %s: %d stages, %v end-to-end\n", id, n, end-start)
	for _, s := range spans {
		if s.Job == "" {
			e := s.Events[0]
			fmt.Fprintf(w, "  %-9s +%-12v %s\n", e.Cause, e.At-start, stripTokens(e.Detail, "req"))
			continue
		}
		fmt.Fprintf(w, "  job %s\n", s.Job)
		for _, e := range s.Events {
			fmt.Fprintf(w, "    %-9s +%-12v %s\n", e.Cause, e.At-start, stripTokens(e.Detail, "req", "job"))
		}
	}
	return nil
}
