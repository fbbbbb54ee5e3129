package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport wraps an http.RoundTripper with a chaos controller — the
// injection seam for the -join proxy, where shards are remote processes
// the controller cannot reach. Shard identity is derived from the request
// host via the target table handed to NewTransport.
type Transport struct {
	inner  http.RoundTripper
	ctl    *Controller
	shards map[string]int // URL host → shard ordinal
}

// NewTransport wraps inner (nil = http.DefaultTransport). targets maps
// each shard's URL host (as it will appear in request URLs) to its
// ordinal. A nil controller returns inner unwrapped.
func NewTransport(inner http.RoundTripper, c *Controller, targets map[string]int) http.RoundTripper {
	if c == nil {
		return inner
	}
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, ctl: c, shards: targets}
}

// RoundTrip applies the target shard's fault verdict: crashes and error
// bursts surface as transport errors (what a dead process looks like from
// outside — the breaker's food), queue-full storms as synthesized 503s
// with Retry-After (backpressure, which must NOT trip the breaker), and
// latency as a delay before the real round trip.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	shard, known := t.shards[req.URL.Host]
	if !known {
		return t.inner.RoundTrip(req)
	}
	d := t.ctl.Decide(shard)
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	switch {
	case d.Crash:
		return nil, fmt.Errorf("dial tcp %s: %w", req.URL.Host, ErrCrashed)
	case d.Err:
		return nil, fmt.Errorf("read tcp %s: %w", req.URL.Host, ErrInjected)
	case d.QueueFull:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		body := `{"error":"station: admission queue full (injected storm)","retry_after_ms":25}`
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{
				"Content-Type": {"application/json"},
				"Retry-After":  {"1"},
			},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return t.inner.RoundTrip(req)
}
