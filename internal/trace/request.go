package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Request-correlation forensics: reconstruct one served query's journey
// through the serving stack from its TypeRequest events. The station
// stamps the request id into Detail as a req=<id> token, so a span tree
// needs nothing but the recorded stream — no in-band context propagation
// beyond the X-Agg-Request-Id header.

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

// WriteRequestTree renders one request's stages with timings offset from
// its first recorded event. Ingress mints a fresh id for every HTTP
// request and each request is served by one job, so the tree is request →
// job → admit/run/done. Unknown ids return an error naming the ids the
// trace does hold.
func WriteRequestTree(w io.Writer, events []Event, id string) error {
	evs := RequestEvents(events, id)
	if len(evs) == 0 {
		ids := RequestIDs(events)
		if len(ids) == 0 {
			return fmt.Errorf("trace holds no request events")
		}
		if len(ids) > 8 {
			ids = append(ids[:8], "…")
		}
		return fmt.Errorf("no events for request %s (trace holds: %s)", id, strings.Join(ids, ", "))
	}
	start := evs[0].At
	job, _ := Token(evs[0].Detail, "job")
	fmt.Fprintf(w, "request %s: %d stages, %v end-to-end\n", id, len(evs), evs[len(evs)-1].At-start)
	fmt.Fprintf(w, "  job %s\n", job)
	for _, e := range evs {
		fmt.Fprintf(w, "    %-9s +%-12v %s\n", e.Cause, e.At-start, stripTokens(e.Detail, "req", "job"))
	}
	return nil
}
