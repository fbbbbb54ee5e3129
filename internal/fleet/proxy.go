package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/station"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Proxy is the -join coordinator: the same consistent-hash routing as an
// in-process Fleet, but over remote aggd shard listeners. It terminates
// no queries itself — POST /v1/query is decoded just far enough to derive
// the ring key, then the raw body is forwarded to the owning shard, with
// the identical shed-on-503/draining walk a local fleet performs. Job and
// schedule handles are resolved by asking shards in order (shards stamp
// globally-unique IDs, so at most one answers), and /healthz probes every
// target concurrently and merges the per-shard states. /metricsz serves
// only the proxy's own transport telemetry (proxymetrics.go); each shard
// listener serves its own.
//
// Failure handling mirrors the in-process supervisor, adapted to remote
// targets the proxy cannot restart:
//
//   - A per-target circuit breaker (closed/open/half-open) counts
//     consecutive transport-level failures; once open, the walk sheds to
//     the clockwise successor instantly instead of paying a dial timeout
//     per request. After a cooldown (doubling per re-open, capped), one
//     half-open probe request decides whether to close again. 503s are
//     backpressure, not breaker failures — the shard answered.
//   - Idempotent GETs are hedged: if the target has not answered within a
//     p99-derived delay, a second identical request races it and the
//     first response wins.
//   - Transport errors on idempotent GETs retry with capped exponential
//     backoff; a 503 carrying Retry-After is honored before the retry.
type Proxy struct {
	targets  []string // shard base URLs, index = ring ordinal
	ring     *ring
	client   *http.Client
	probes   *http.Client // short-timeout client for /healthz probes
	opts     ProxyOptions
	started  time.Time
	breakers []*breaker
	metrics  *proxyMetrics
}

// ProxyOptions configures the proxy; its failure handling is tuned by the
// constants below.
type ProxyOptions struct {
	// Timeout is the per-request client timeout (default 2m).
	Timeout time.Duration
	// Transport overrides the HTTP transport — the chaos injection seam
	// (chaos.NewTransport). Nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Trace receives breaker transition events. Must be concurrency-safe.
	Trace trace.Sink
}

// Proxy failure-handling tuning.
const (
	// breakerThreshold is the consecutive transport failures that open a
	// target's breaker.
	breakerThreshold = 3
	// breakerCooldown is the first open→half-open delay; each re-open
	// doubles it up to maxCooldown, which also caps retry backoff and the
	// Retry-After a GET retry honours.
	breakerCooldown = 500 * time.Millisecond
	maxCooldown     = 8 * time.Second
	// probeTimeout bounds each concurrent /healthz probe so one hung shard
	// cannot stall the proxy's own liveness answer.
	probeTimeout = 500 * time.Millisecond
	// retryMax is the extra attempts for idempotent GETs that fail at the
	// transport level; retryBackoff the first retry delay, doubling per
	// attempt.
	retryMax     = 2
	retryBackoff = 25 * time.Millisecond
)

// NewProxy validates the shard URLs and builds the ring over them.
func NewProxy(targets []string, opts ProxyOptions) (*Proxy, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("fleet: proxy needs at least one shard URL")
	}
	clean := make([]string, 0, len(targets))
	for _, t := range targets {
		u, err := url.Parse(strings.TrimRight(t, "/"))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard URL %q must be http(s)://host:port", t)
		}
		clean = append(clean, strings.TrimRight(t, "/"))
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Minute
	}
	p := &Proxy{
		targets: clean,
		ring:    newRing(len(clean)),
		client:  &http.Client{Timeout: opts.Timeout, Transport: opts.Transport},
		probes:  &http.Client{Timeout: probeTimeout, Transport: opts.Transport},
		opts:    opts,
		started: time.Now(),
	}
	p.breakers = make([]*breaker, len(clean))
	for i := range p.breakers {
		p.breakers[i] = &breaker{}
	}
	p.metrics = p.newMetrics()
	return p, nil
}

// Shards returns the remote shard count.
func (p *Proxy) Shards() int { return len(p.targets) }

// emit sends one fleet event if a sink is attached.
func (p *Proxy) emit(target int, typ, cause, detail string) {
	if p.opts.Trace == nil {
		return
	}
	p.opts.Trace.Emit(trace.Event{
		At:      time.Since(p.started),
		Node:    topo.NodeID(target),
		Cluster: trace.NoCluster,
		Phase:   trace.PhaseFleet,
		Type:    typ,
		Cause:   cause,
		Detail:  detail,
	})
}

// Handler builds the proxy's route table — the same surface station.API
// serves, so clients cannot tell a proxy from a shard.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", p.handleQuery)
	mux.HandleFunc("GET /v1/jobs/{id}", p.forwardByID("/v1/jobs/"))
	mux.HandleFunc("DELETE /v1/jobs/{id}", p.forwardByID("/v1/jobs/"))
	mux.HandleFunc("POST /v1/schedules", p.handleScheduleAdd)
	mux.HandleFunc("GET /v1/schedules", p.handleScheduleList)
	mux.HandleFunc("GET /v1/schedules/{id}/results", p.forwardByID("/v1/schedules/", "/results"))
	mux.HandleFunc("DELETE /v1/schedules/{id}", p.forwardByID("/v1/schedules/"))
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metricsz", p.handleMetricsz)
	// The proxy is the fleet's ingress: it mints the request id here and
	// propagates it to every target, so one id follows the request across
	// proxy → shard → worker.
	return station.WithRequestID(mux)
}

// routeRequest is the slice of the query body the proxy must understand to
// route: the ring key fields plus fanout. Unknown fields are left for the
// shard to validate — the proxy forwards the original bytes untouched.
type routeRequest struct {
	Kind   string `json:"kind"`
	Seed   *int64 `json:"seed"`
	Fanout bool   `json:"fanout"`
}

func (p *Proxy) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var route routeRequest
	if err := json.Unmarshal(body, &route); err != nil {
		writeProxyError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if route.Fanout {
		p.handleFanout(w, r, body)
		return
	}
	kind, err := repro.ParseQueryKind(route.Kind)
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The proxy cannot know a remote shard's template seed, so unseeded
	// queries hash on a fixed sentinel: they still stick to one shard.
	seed := int64(0)
	seedSet := false
	if route.Seed != nil {
		seed, seedSet = *route.Seed, true
	}
	key := queryKey(int64(kind), seed)
	if !seedSet {
		key = queryKey(int64(kind), -1<<62)
	}
	// Walk the ring exactly like the in-process coordinator: forward to
	// the owner, shed past 503s and open breakers, surface the LAST
	// response when every shard refuses — one composed rejection, one
	// Retry-After.
	var last *shardResponse
	for _, idx := range p.ring.walk(key) {
		resp, err := p.roundTrip(idx, station.RequestIDFrom(r), http.MethodPost, "/v1/query", body)
		if err != nil {
			last = unreachable(err)
			continue
		}
		if resp.status != http.StatusServiceUnavailable {
			resp.write(w)
			return
		}
		last = resp
	}
	last.write(w)
}

// handleFanout broadcasts the body to every shard and fans the responses
// in: each shard answers its own station.FanoutResponse (one job for a
// station, N for a nested fleet); the proxy concatenates the job lists
// and reports fleet-wide agreement. With ?partial=1, unreachable or
// refusing targets are skipped and listed as missing instead of failing
// the whole fan-out; the flag is forwarded so nested fleets degrade the
// same way.
func (p *Proxy) handleFanout(w http.ResponseWriter, r *http.Request, body []byte) {
	partial := r.URL.Query().Get("partial") == "1"
	path := "/v1/query"
	if partial {
		path += "?partial=1"
	}
	out := station.FanoutResponse{Agree: true}
	for i, t := range p.targets {
		resp, err := p.roundTrip(i, station.RequestIDFrom(r), http.MethodPost, path, body)
		if err == nil && resp.status != http.StatusOK {
			err = fmt.Errorf("status %d", resp.status)
		}
		if err != nil {
			if partial {
				out.Missing = append(out.Missing, i)
				continue
			}
			writeProxyError(w, http.StatusBadGateway, "shard "+t+": "+err.Error())
			return
		}
		var part station.FanoutResponse
		if err := json.Unmarshal(resp.body, &part); err != nil {
			if partial {
				out.Missing = append(out.Missing, i)
				continue
			}
			writeProxyError(w, http.StatusBadGateway, "shard "+t+": bad fanout payload")
			return
		}
		out.Jobs = append(out.Jobs, part.Jobs...)
		out.Agree = out.Agree && part.Agree
		out.Degraded = out.Degraded || part.Degraded
	}
	if partial && len(out.Jobs) == 0 {
		writeProxyError(w, http.StatusServiceUnavailable, "no shard answered the fan-out")
		return
	}
	if len(out.Missing) > 0 {
		out.Degraded = true
		p.emit(out.Missing[0], trace.TypeDegraded, "partial-fanout",
			fmt.Sprintf("missing=%v served=%d", out.Missing, len(out.Jobs)))
	}
	// Shard-local agreement is necessary but not sufficient: the answers
	// must also agree ACROSS shards.
	for i := 1; i < len(out.Jobs); i++ {
		a, b := out.Jobs[0].Answer, out.Jobs[i].Answer
		if a == nil || b == nil || *a != *b {
			out.Agree = false
			break
		}
	}
	writeProxyJSON(w, http.StatusOK, out)
}

// forwardByID forwards a handle-addressed request to whichever shard knows
// the ID — shards stamp globally-unique prefixes, so the first non-404
// answer is authoritative. GETs ride the hedged/retrying path.
func (p *Proxy) forwardByID(prefix string, suffix ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		path := prefix + r.PathValue("id")
		for _, s := range suffix {
			path += s
		}
		var last *shardResponse
		for i := range p.targets {
			var resp *shardResponse
			var err error
			if r.Method == http.MethodGet {
				resp, err = p.get(i, station.RequestIDFrom(r), path)
			} else {
				resp, err = p.roundTrip(i, station.RequestIDFrom(r), r.Method, path, nil)
			}
			if err != nil {
				last = unreachable(err)
				continue
			}
			if resp.status != http.StatusNotFound {
				resp.write(w)
				return
			}
			last = resp
		}
		last.write(w)
	}
}

func (p *Proxy) handleScheduleAdd(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	// Spread schedules over shards by hashing the body (stable for a given
	// registration) and shed past refusing shards like a query.
	var last *shardResponse
	for _, idx := range p.ring.walk(hash64(body)) {
		resp, err := p.roundTrip(idx, station.RequestIDFrom(r), http.MethodPost, "/v1/schedules", body)
		if err != nil {
			last = unreachable(err)
			continue
		}
		if resp.status != http.StatusServiceUnavailable {
			resp.write(w)
			return
		}
		last = resp
	}
	last.write(w)
}

func (p *Proxy) handleScheduleList(w http.ResponseWriter, r *http.Request) {
	var out []station.ScheduleStatus
	for i := range p.targets {
		resp, err := p.get(i, station.RequestIDFrom(r), "/v1/schedules")
		if err != nil || resp.status != http.StatusOK {
			continue // a dead shard hides its schedules, it doesn't kill the list
		}
		var part []station.ScheduleStatus
		if json.Unmarshal(resp.body, &part) == nil {
			out = append(out, part...)
		}
	}
	writeProxyJSON(w, http.StatusOK, out)
}

// handleHealthz probes every target CONCURRENTLY on the short-timeout
// probe client — one hung shard delays the answer by probeTimeout, not by
// the full request timeout times the shard count — and merges the remote
// health payloads into the same {"shards":[{id,state}]} shape a fleet
// serves, one entry per target (a target that is itself a fleet collapses
// to its overall status; an unreachable one reports down).
func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	states := make([]string, len(p.targets))
	var wg sync.WaitGroup
	for i, t := range p.targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			states[i] = p.probeHealth(target)
		}(i, t)
	}
	wg.Wait()
	healthy := 0
	merged := station.Health{Shards: make([]station.ShardHealth, 0, len(p.targets))}
	for i, state := range states {
		if state == trace.ShardHealthy {
			healthy++
		}
		merged.Shards = append(merged.Shards, station.ShardHealth{ID: i, State: state})
	}
	switch {
	case healthy == len(p.targets):
		merged.Status = "ok"
	case healthy > 0:
		merged.Status = "degraded"
	default:
		merged.Status = "unavailable"
	}
	code := http.StatusOK
	if healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	writeProxyJSON(w, code, struct {
		station.Health
		ShardsHealthy int `json:"shards_healthy"`
	}{merged, healthy})
}

// probeHealth asks one target's /healthz and maps the answer to a shard
// state: ok → healthy, draining → draining, degraded (a fleet target with
// some shards out) → suspect, anything unreachable → down.
func (p *Proxy) probeHealth(target string) string {
	resp, err := p.probes.Get(target + "/healthz")
	if err != nil {
		return trace.ShardDown
	}
	defer resp.Body.Close()
	var h station.Health
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h) != nil {
		if resp.StatusCode == http.StatusOK {
			return trace.ShardHealthy
		}
		return trace.ShardDown
	}
	switch h.Status {
	case "ok":
		return trace.ShardHealthy
	case "draining":
		return "draining"
	case "degraded":
		return trace.ShardSuspect
	default:
		return trace.ShardDown
	}
}

// shardResponse is one forwarded exchange, replayed to the client.
type shardResponse struct {
	status int
	header http.Header
	body   []byte
}

func (r *shardResponse) write(w http.ResponseWriter) {
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := r.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(r.status)
	_, _ = w.Write(r.body)
}

func unreachable(err error) *shardResponse {
	body, _ := json.Marshal(map[string]string{"error": "shard unreachable: " + err.Error()})
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	return &shardResponse{status: http.StatusBadGateway, header: h, body: body}
}

// errBreakerOpen short-circuits a request to a target whose breaker is
// open: the cost of a down shard drops from a dial timeout to a load.
var errBreakerOpen = errors.New("fleet: breaker open")

// roundTrip is every forwarded request's path: breaker gate, the real
// exchange, breaker verdict, latency sample into the target's shared
// histogram. A response of any status is a breaker success (the target is
// alive; 503 is backpressure) — only transport-level failures count
// toward opening.
func (p *Proxy) roundTrip(idx int, rid, method, path string, body []byte) (*shardResponse, error) {
	br := p.breakers[idx]
	ok, probe := br.allow()
	if !ok {
		return nil, errBreakerOpen
	}
	if probe {
		// allow() moved the breaker open → half-open; the outcome below
		// decides which way it leaves.
		p.emit(idx, trace.TypeBreaker, trace.BreakerHalfOpen, fmt.Sprintf("target=%s", p.targets[idx]))
	}
	p.metrics.attempts[idx].Inc()
	start := time.Now()
	resp, err := p.do(rid, method, p.targets[idx]+path, body)
	took := time.Since(start)
	p.metrics.avail.Record(err == nil)
	if err == nil {
		p.metrics.observeLatency(idx, took)
	}
	if state, changed := br.report(err == nil, probe); changed {
		p.emit(idx, trace.TypeBreaker, state, fmt.Sprintf("target=%s", p.targets[idx]))
	}
	p.emitForward(rid, idx, took, err)
	return resp, err
}

// emitForward records the proxy's forward stage of one correlated request
// (skipped for the proxy's own internal scrapes, which carry no id).
func (p *Proxy) emitForward(rid string, idx int, took time.Duration, err error) {
	if p.opts.Trace == nil || rid == "" {
		return
	}
	detail := fmt.Sprintf("req=%s target=%d took=%v", rid, idx, took)
	if err != nil {
		detail += " error=transport"
	}
	p.opts.Trace.Emit(trace.Event{
		At:      time.Since(p.started),
		Node:    topo.NodeID(idx),
		Cluster: trace.NoCluster,
		Phase:   trace.PhaseServe,
		Type:    trace.TypeRequest,
		Cause:   trace.StageForward,
		Detail:  detail,
	})
}

// get is the idempotent-GET path: hedged against the target's p99 and
// retried on transport failure with capped backoff, honoring Retry-After
// on 503s when a retry remains.
func (p *Proxy) get(idx int, rid, path string) (*shardResponse, error) {
	backoff := retryBackoff
	var resp *shardResponse
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = p.getHedged(idx, rid, path)
		if err == nil && resp.status != http.StatusServiceUnavailable {
			return resp, nil
		}
		if attempt >= retryMax || errors.Is(err, errBreakerOpen) {
			return resp, err
		}
		wait := backoff
		if err == nil {
			// 503: the shard answered but refused; honor its Retry-After
			// if it fits under the backoff cap, else give up the retry.
			ra := retryAfterOf(resp.header)
			if ra <= 0 || ra > maxCooldown {
				return resp, nil
			}
			wait = ra
			p.metrics.retryBusy[idx].Inc()
		} else {
			p.metrics.retryXpt[idx].Inc()
		}
		time.Sleep(wait)
		backoff = min(backoff*2, maxCooldown)
	}
}

// retryAfterOf parses a Retry-After header (whole seconds form).
func retryAfterOf(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// getHedged races a second identical GET against a slow first one after
// the hedge delay. Safe only for idempotent requests; the first response
// to arrive wins and the loser's goroutine drains in the background.
func (p *Proxy) getHedged(idx int, rid, path string) (*shardResponse, error) {
	delay := p.hedgeDelay(idx)
	if delay <= 0 {
		return p.roundTrip(idx, rid, http.MethodGet, path, nil)
	}
	type result struct {
		resp *shardResponse
		err  error
	}
	ch := make(chan result, 2)
	fire := func() {
		r, err := p.roundTrip(idx, rid, http.MethodGet, path, nil)
		ch <- result{r, err}
	}
	go fire()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var first result
	select {
	case first = <-ch:
		return first.resp, first.err
	case <-timer.C:
		p.metrics.hedges[idx].Inc()
		go fire()
	}
	first = <-ch
	if first.err != nil {
		// The losing attempt may still succeed; wait for it.
		if second := <-ch; second.err == nil {
			return second.resp, nil
		}
		return first.resp, first.err
	}
	return first.resp, first.err
}

// hedgeDelay resolves the hedge wait for a target: the p99 of the
// target's rolling latency window once enough samples exist, otherwise no
// hedging. The window — not the cumulative /metricsz
// histogram — is deliberate: a control decision must track the current
// latency regime, and after long uptime a suddenly slow target would need
// its slow samples to outvote the entire fast history before a cumulative
// p99 moved, hedging every GET against it in the meantime.
func (p *Proxy) hedgeDelay(idx int) time.Duration {
	h := p.metrics.latWin[idx]
	if h.Count() < hedgeMinSamples {
		return 0
	}
	return h.Quantile(0.99)
}

func (p *Proxy) do(rid, method, url string, body []byte) (*shardResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set(station.RequestIDHeader, rid)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	return &shardResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

func writeProxyError(w http.ResponseWriter, code int, msg string) {
	writeProxyJSON(w, code, map[string]string{"error": msg})
}

func writeProxyJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// breaker is one target's circuit breaker. (Its former private latency
// ring moved to the per-target telemetry instruments: one roundTrip
// sample point feeds both the cumulative /metricsz histogram and the
// rolling window the hedge delay reads.)
//
//	closed ── breakerThreshold consecutive transport failures ──▶ open
//	  ▲                                                     │ cooldown
//	  │              probe succeeds                         ▼
//	  └──────────────────◀──────────────── half-open (one probe in flight)
//	                                          │ probe fails: open again,
//	                                          ▼ cooldown ×2 (capped)
type breaker struct {
	mu       sync.Mutex
	state    string // "" = closed (zero value serves immediately)
	fails    int
	openedAt time.Time
	cooldown time.Duration
	probing  bool
}

func (b *breaker) current() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == "" {
		return trace.BreakerClosed
	}
	return b.state
}

// allow reports whether a request may proceed, and whether it is the
// half-open probe (whose outcome alone decides the breaker's fate).
func (b *breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case "", trace.BreakerClosed:
		return true, false
	case trace.BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false, false
		}
		b.state = trace.BreakerHalfOpen
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// report records a request outcome; returns the new state and whether it
// changed (the caller emits the transition event outside the lock).
func (b *breaker) report(success, probe bool) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if success {
		b.fails = 0
		if b.state != "" && b.state != trace.BreakerClosed {
			b.state = trace.BreakerClosed
			b.cooldown = 0
			return trace.BreakerClosed, true
		}
		return trace.BreakerClosed, false
	}
	switch b.state {
	case "", trace.BreakerClosed:
		b.fails++
		if b.fails >= breakerThreshold {
			b.state = trace.BreakerOpen
			b.openedAt = time.Now()
			if b.cooldown == 0 {
				b.cooldown = breakerCooldown
			}
			return trace.BreakerOpen, true
		}
		return trace.BreakerClosed, false
	default: // half-open probe failed, or straggler failure while open
		changed := b.state != trace.BreakerOpen
		b.state = trace.BreakerOpen
		if probe {
			b.openedAt = time.Now()
			b.cooldown = min(b.cooldown*2, maxCooldown)
			changed = true
		}
		return trace.BreakerOpen, changed
	}
}
