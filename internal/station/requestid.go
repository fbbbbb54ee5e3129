package station

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
)

// RequestIDHeader carries one request's correlation id end to end: aggd
// mints it at ingress, the station stamps it into job lifecycle and
// serve-trace events, and aggtrace -why request <id> reconstructs the span
// tree from it.
const RequestIDHeader = "X-Agg-Request-Id"

// ridFallback sequences ids when the system randomness source fails —
// uniqueness within the process still holds.
var ridFallback atomic.Int64

// newRequestID mints a 16-hex-char correlation id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", ridFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID is the ingress middleware: every request gets a freshly
// minted X-Agg-Request-Id, overwriting any the client sent (the id is
// written into the trace, so a client-chosen one could spoof another job's
// span). The id is pinned onto the request headers, so downstream handlers
// read one value, and echoed on the response, where clients and smoke
// tests pick it up.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newRequestID()
		r.Header.Set(RequestIDHeader, id)
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// RequestIDFrom reads the correlation id pinned by WithRequestID ("" when
// the middleware did not run).
func RequestIDFrom(r *http.Request) string {
	return r.Header.Get(RequestIDHeader)
}
