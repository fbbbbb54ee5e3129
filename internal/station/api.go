package station

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// Backend is what the HTTP frontend serves: a single Station or a fleet
// coordinator (internal/fleet) — same wire API either way, so clients and
// the load driver cannot tell one shard from N.
type Backend interface {
	Submit(QuerySpec) (*Job, error)
	// SubmitAll fans a query out to every shard. With partial set, a fleet
	// admits what it can past down shards and returns the missing shard
	// ordinals alongside; without it admission is all-or-nothing.
	SubmitAll(spec QuerySpec, partial bool) ([]*Job, []int, error)
	Job(id string) *Job
	AddSchedule(ScheduleSpec) (*Schedule, error)
	Schedule(id string) *Schedule
	RemoveSchedule(id string) bool
	ScheduleStatuses() []ScheduleStatus
	Draining() bool
	Health() Health
	// WriteMetrics renders the backend's telemetry registry as Prometheus
	// text exposition — the /metricsz body. A fleet merges its shard
	// registries under per-shard labels.
	WriteMetrics(io.Writer) error
}

// API is the HTTP JSON frontend over a Backend — the handler cmd/aggd
// serves. Endpoints:
//
//	POST   /v1/query                  one-shot query, sync (default) or async
//	GET    /v1/jobs/{id}              poll an async job
//	DELETE /v1/jobs/{id}              cancel a job
//	POST   /v1/schedules              register a recurring epoch query
//	GET    /v1/schedules              list schedules
//	GET    /v1/schedules/{id}/results retained epoch results, oldest first
//	DELETE /v1/schedules/{id}         stop and remove a schedule
//	GET    /healthz                   liveness (503 while draining)
//	GET    /metricsz                  Prometheus text: every counter and gauge
//
// Backpressure contract: when admission is full the API answers 503 with a
// retry_after_ms JSON hint and a Retry-After header derived from the same
// constant (the header is the hint rounded up to whole seconds — HTTP
// cannot express sub-second Retry-After); it never blocks the accept loop
// waiting for a pool slot. A fleet backend sheds to sibling shards first
// and surfaces exactly one such rejection when the whole fleet is full.
//
// A sync query whose job fails on its own (per-job timeout, deployment
// error) is answered with the job's terminal status — 504 for a timeout,
// 500 otherwise — not misreported as a client abort; "request aborted" 503s
// are reserved for requests whose client actually went away mid-epoch.
type API struct {
	st Backend
}

// NewAPI wraps a backend (a *Station or a fleet coordinator).
func NewAPI(st Backend) *API { return &API{st: st} }

// retryAfter is the single source of the backpressure backoff hint handed
// to rejected clients. The queue drains at pool speed (tens of ms per
// epoch), so a small hint keeps closed-loop clients live without hammering
// the accept loop. Both wire forms derive from this constant so they can
// never contradict each other.
const retryAfter = 25 * time.Millisecond

// retryAfterMs is the JSON hint (precise milliseconds).
const retryAfterMs = int64(retryAfter / time.Millisecond)

// retryAfterHeader is the Retry-After header value: the same hint rounded
// UP to whole seconds, the finest granularity the header supports.
var retryAfterHeader = strconv.FormatInt(int64((retryAfter+time.Second-1)/time.Second), 10)

// Server limits for every listener that serves this API: a client that dribbles its headers or body, or sends oversized
// headers, is cut off rather than holding a connection open. ReadTimeout
// bounds reading the request only: net/http clears the read deadline when
// the body ends and it starts watching the connection for a hang-up, so
// the request's context outlives it. There is no write timeout — a sync
// query holds its response for as long as its epoch runs
// (TestQueryOutlivesReadTimeout).
const (
	ReadHeaderTimeout = 5 * time.Second
	ReadTimeout       = 30 * time.Second
	IdleTimeout       = 2 * time.Minute
	MaxHeaderBytes    = 64 << 10
)

// NewServer returns an http.Server for h with the limits above.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
}

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", a.handleQuery)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.handleJobCancel)
	mux.HandleFunc("POST /v1/schedules", a.handleScheduleAdd)
	mux.HandleFunc("GET /v1/schedules", a.handleScheduleList)
	mux.HandleFunc("GET /v1/schedules/{id}/results", a.handleScheduleResults)
	mux.HandleFunc("DELETE /v1/schedules/{id}", a.handleScheduleDelete)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /metricsz", a.handleMetricsz)
	return WithRequestID(mux)
}

type queryRequest struct {
	Kind string `json:"kind"`
	// Seed is a pointer so the wire can distinguish "no seed given" (nil,
	// template seed) from an explicit seed 0, which is a valid stream.
	Seed      *int64 `json:"seed,omitempty"`
	Async     bool   `json:"async,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	// Fanout submits the query to every shard of a fleet backend (one job
	// on a single station) and fans the answers back in.
	Fanout bool `json:"fanout,omitempty"`
}

// spec converts the wire request into an admission spec, carrying the
// request's correlation id into the job lifecycle.
func (req queryRequest) spec(kind repro.QueryKind, r *http.Request) QuerySpec {
	spec := QuerySpec{
		Kind:      kind,
		Timeout:   time.Duration(req.TimeoutMs) * time.Millisecond,
		RequestID: RequestIDFrom(r),
	}
	if req.Seed != nil {
		spec.Seed, spec.SeedSet = *req.Seed, true
	}
	return spec
}

type apiError struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// FanoutResponse is the POST /v1/query payload when fanout is requested:
// one job per shard, plus whether every finished answer is bit-identical —
// the fleet's serving-correctness invariant (same seed, same template,
// same answer on every shard). With ?partial=1 a fleet with down shards
// answers what it has, flags Degraded, and lists the missing ordinals;
// Agree then covers the answering shards only.
type FanoutResponse struct {
	Jobs     []JobStatus `json:"jobs"`
	Agree    bool        `json:"agree"`
	Degraded bool        `json:"degraded,omitempty"`
	Missing  []int       `json:"missing,omitempty"`
}

func (a *API) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	kind, err := repro.ParseQueryKind(req.Kind)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if req.TimeoutMs < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "timeout_ms must be non-negative"})
		return
	}
	if req.Fanout {
		a.handleFanout(w, r, req.spec(kind, r))
		return
	}
	job, err := a.st.Submit(req.spec(kind, r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if req.Async {
		w.Header().Set("Location", "/v1/jobs/"+job.ID())
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	if _, err := job.Wait(r.Context()); err != nil && !job.Finished() {
		// The client went away mid-epoch: release the pool slot's result
		// and report the cancellation (the write usually goes nowhere).
		job.Cancel()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "request aborted: " + err.Error()})
		return
	}
	// The job reached a terminal state on its own — done, or failed from a
	// per-job timeout or a deployment error. That outcome belongs to the
	// job, not the transport: answer with its status, never a fabricated
	// "request aborted".
	writeJSON(w, jobStatusCode(job), job.Status())
}

// jobStatusCode maps a finished job's state to the sync-response code.
func jobStatusCode(job *Job) int {
	switch job.State() {
	case JobFailed:
		if errors.Is(job.Err(), context.DeadlineExceeded) {
			return http.StatusGatewayTimeout // per-job timeout expired
		}
		return http.StatusInternalServerError
	case JobCanceled:
		return http.StatusConflict // canceled out from under the waiter
	default:
		return http.StatusOK
	}
}

// handleFanout submits one job per shard and (synchronously) fans the
// answers back in, reporting whether they agree bit-for-bit. All-or-
// nothing by default; ?partial=1 opts into a degraded answer that skips
// down shards and names them in the response.
func (a *API) handleFanout(w http.ResponseWriter, r *http.Request, spec QuerySpec) {
	partial := r.URL.Query().Get("partial") == "1"
	jobs, missing, err := a.st.SubmitAll(spec, partial)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	out := FanoutResponse{
		Jobs:     make([]JobStatus, 0, len(jobs)),
		Degraded: len(missing) > 0,
		Missing:  missing,
	}
	for _, job := range jobs {
		if _, err := job.Wait(r.Context()); err != nil && !job.Finished() {
			job.Cancel()
		}
	}
	for _, job := range jobs {
		out.Jobs = append(out.Jobs, job.Status())
	}
	out.Agree = answersAgree(jobs)
	writeJSON(w, http.StatusOK, out)
}

// answersAgree reports whether every job finished done with the same
// answer — the cross-shard determinism check fanout exists for.
func answersAgree(jobs []*Job) bool {
	if len(jobs) == 0 {
		return false
	}
	var first repro.QueryAnswer
	for i, job := range jobs {
		ans, err, ok := job.Answer()
		if !ok || err != nil {
			return false
		}
		if i == 0 {
			first = ans
			continue
		}
		if ans != first {
			return false
		}
	}
	return true
}

func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrUnavailable):
		// Both are transient refusals worth retrying after a beat: a full
		// queue drains at pool speed.
		w.Header().Set("Retry-After", retryAfterHeader)
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{Error: err.Error(), RetryAfterMs: retryAfterMs})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	}
}

func (a *API) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job := a.st.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (a *API) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job := a.st.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

type scheduleRequest struct {
	Kind     string   `json:"kind"`
	PeriodMs float64  `json:"period_ms"`
	Jitter   *float64 `json:"jitter,omitempty"` // absent = default 0.1
	Keep     int      `json:"keep,omitempty"`
}

func (a *API) handleScheduleAdd(w http.ResponseWriter, r *http.Request) {
	var req scheduleRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	kind, err := repro.ParseQueryKind(req.Kind)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if req.PeriodMs <= 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "period_ms must be positive"})
		return
	}
	spec := ScheduleSpec{
		Kind:   kind,
		Period: time.Duration(req.PeriodMs * float64(time.Millisecond)),
		Jitter: -1, // scheduler default
		Keep:   req.Keep,
	}
	if req.Jitter != nil {
		spec.Jitter = *req.Jitter
	}
	sc, err := a.st.AddSchedule(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/schedules/"+sc.ID()+"/results")
	writeJSON(w, http.StatusCreated, sc.Status())
}

func (a *API) handleScheduleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.st.ScheduleStatuses())
}

// scheduleResults is the GET /v1/schedules/{id}/results payload.
type scheduleResults struct {
	ScheduleStatus
	Results []EpochResult `json:"results"`
}

func (a *API) handleScheduleResults(w http.ResponseWriter, r *http.Request) {
	sc := a.st.Schedule(r.PathValue("id"))
	if sc == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown schedule " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, scheduleResults{ScheduleStatus: sc.Status(), Results: sc.Results()})
}

func (a *API) handleScheduleDelete(w http.ResponseWriter, r *http.Request) {
	if !a.st.RemoveSchedule(r.PathValue("id")) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown schedule " + r.PathValue("id")})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := a.st.Health()
	code := http.StatusOK
	if !h.Healthy() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (a *API) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = a.st.WriteMetrics(w) // client gone; nothing useful to do
}

// decodeBody parses a small JSON request body strictly: unknown fields,
// trailing garbage and bodies over 1 MiB are errors, so client typos fail
// loudly instead of silently running a default query. The body must end
// after its one value: Decoder.More would let a stray '}' or ']' through,
// and would read a cut-off body as a clean end.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return fmt.Errorf("bad request body: %w", err)
	default:
		return fmt.Errorf("bad request body: trailing data")
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone; nothing useful to do
}
