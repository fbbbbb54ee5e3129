// Package station is the base-station serving layer: it turns the one-shot
// round machinery behind repro.Deployment into a standing service, the
// operating mode the protocol family assumes (a base station that floods a
// query, collects per-epoch cluster aggregates, verifies them, and repeats).
//
// The package owns three things:
//
//   - a deployment pool of N workers. A repro.Deployment is NOT safe for
//     concurrent use (see its concurrency contract), so each worker
//     goroutine exclusively owns one Deployment for the station's lifetime
//     and replays it with Reset(seed) per job — the pool is the
//     serialization boundary between the concurrent HTTP frontend and the
//     single-threaded simulation core.
//   - a bounded admission queue with backpressure: Submit never blocks;
//     when the queue is full it rejects with ErrQueueFull and the HTTP
//     layer translates that into 503 + Retry-After. The accept loop is
//     never stalled by a slow epoch.
//   - an epoch scheduler (scheduler.go) that runs registered recurring
//     queries on jittered periods, re-seeding the deployment each epoch so
//     readings re-draw — the service analogue of ResampleReadings.
//
// Shutdown is a graceful drain: admission closes, queued and in-flight
// epochs finish, and schedules stop. A query that panics fails its own
// job; the worker keeps serving, and its next Reset rewinds the
// deployment.
package station

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config sizes the station. Zero values take the documented defaults.
type Config struct {
	Workers    int // deployment pool size (default 4)
	QueueDepth int // admission queue capacity (default 64)
	KeepJobs   int // finished jobs retained for polling (default 1024)

	// JobTimeout bounds one job from admission to completion; 0 = none.
	// A timeout that fires while the job is queued fails it before it
	// costs a worker; one that fires mid-epoch fails it on completion.
	JobTimeout time.Duration

	// IDPrefix prefixes every job and schedule ID ("s2-job-17"). A fleet
	// coordinator gives each shard a distinct prefix so handles stay
	// globally unique and route back to their owning shard.
	IDPrefix string

	// ScheduleOrdinalBase offsets the ordinals folded into schedule epoch
	// seeds. Within one station the per-schedule ordinal already keeps
	// same-kind schedules on distinct seed streams; when stations serve as
	// shards of one fleet, each shard's local ordinals restart at 1 and
	// same-kind schedules placed on different shards would alias back onto
	// identical streams. The coordinator stamps a disjoint base per shard
	// so the streams stay disjoint fleet-wide. Zero for standalone stations.
	ScheduleOrdinalBase int64

	Deploy  repro.Options        // deployment template, one instance per worker
	Cluster repro.ClusterOptions // protocol options applied to every query

	// TraceStats attaches a counting sink to every worker deployment; the
	// agg_trace_* series it feeds sum across workers in the station's
	// registry and are served on /metricsz.
	TraceStats bool

	// Trace, when non-nil, receives serving-layer request lifecycle events
	// (PhaseServe/TypeRequest: admit → run → done/failed/canceled), each
	// stamped with the job's request id so aggtrace -why request can
	// reconstruct the span tree. Distinct from TraceStats, which counts
	// protocol events inside the worker deployments.
	Trace trace.Sink

	// RunningHook, when non-nil, fires after a job transitions to Running
	// and before its epoch executes — the seam deterministic
	// backpressure/cancellation interleaving tests (including the fleet
	// coordinator's) park workers on. Leave nil in production.
	RunningHook func(*Job)
}

// Sentinel errors the HTTP layer translates into status codes.
var (
	ErrQueueFull = errors.New("station: admission queue full")
	ErrDraining  = errors.New("station: draining, not accepting work")
	// ErrUnavailable marks a partial fleet fan-out that no shard admitted
	// — retryable, like ErrQueueFull.
	ErrUnavailable = errors.New("station: shard unavailable")
)

// ShardHealth is one shard's health detail inside a Health payload.
type ShardHealth struct {
	ID    int    `json:"id"`
	State string `json:"state"` // trace.ShardHealthy or "draining"
}

// Health is the /healthz payload: an overall status plus per-shard detail.
// A single station reports one shard (itself); a fleet reports one entry
// per supervised shard.
type Health struct {
	Status string        `json:"status"` // "ok", "degraded" (some shards out), "draining"
	Shards []ShardHealth `json:"shards"`
}

// Healthy reports whether the overall status allows serving.
func (h Health) Healthy() bool { return h.Status == "ok" || h.Status == "degraded" }

// QuerySpec is one unit of admitted work.
type QuerySpec struct {
	Kind repro.QueryKind
	// Seed re-seeds the worker's deployment for this epoch. A zero Seed
	// with SeedSet false inherits the deployment template's seed; SeedSet
	// marks the value as explicit, so seed 0 — a perfectly valid deployment
	// seed — is serveable rather than silently aliasing the template.
	// Identical specs yield bit-identical answers regardless of which
	// worker (or which fleet shard) serves them.
	Seed    int64
	SeedSet bool
	// Timeout overrides Config.JobTimeout for this job; 0 inherits it.
	Timeout time.Duration
	// RequestID correlates the job with the originating HTTP request
	// (X-Agg-Request-Id). Empty — scheduled epochs, direct API use — falls
	// back to the job id, so every job is traceable by some id.
	RequestID string
}

// EffectiveSeed resolves the seed this spec runs under given the
// deployment template's seed. Submit pins the result on the job, so the
// wire status always reports the seed that actually ran.
func (q QuerySpec) EffectiveSeed(template int64) int64 {
	if q.SeedSet || q.Seed != 0 {
		return q.Seed
	}
	return template
}

// Station is the serving layer: pool + queue + scheduler + metrics.
type Station struct {
	cfg     Config
	queue   chan *Job
	started time.Time // wall-clock epoch for serve-trace event offsets
	metrics *metrics

	mu        sync.Mutex
	draining  bool
	jobs      map[string]*Job
	doneOrder []string // finished job IDs, oldest first (eviction order)
	schedules map[string]*Schedule

	workers []*worker
	wg      sync.WaitGroup

	nextJob   atomic.Int64
	nextSched atomic.Int64

	// testHookRunning, when non-nil, fires after a job transitions to
	// JobRunning and before its epoch executes — the seam the
	// cancellation-mid-epoch and backpressure tests use to act at a
	// deterministic point. Guarded by mu (set via setRunningHook).
	testHookRunning func(*Job)
}

// worker is one pool slot: a goroutine that exclusively owns one
// Deployment.
type worker struct {
	id  int
	dep *repro.Deployment
}

// New builds the pool (one deployment per worker) and starts serving.
func New(cfg Config) (*Station, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.KeepJobs <= 0 {
		cfg.KeepJobs = 1024
	}
	st := &Station{
		cfg:       cfg,
		queue:     make(chan *Job, cfg.QueueDepth),
		started:   time.Now(),
		jobs:      make(map[string]*Job),
		schedules: make(map[string]*Schedule),
	}
	st.metrics = st.newMetrics(cfg.Workers)
	st.testHookRunning = cfg.RunningHook
	for i := 0; i < cfg.Workers; i++ {
		dep, err := repro.NewDeployment(cfg.Deploy)
		if err != nil {
			return nil, fmt.Errorf("station: worker %d: %w", i, err)
		}
		w := &worker{id: i, dep: dep}
		if cfg.TraceStats {
			dep.TraceCounts(st.metrics.reg)
		}
		st.workers = append(st.workers, w)
	}
	for _, w := range st.workers {
		st.wg.Add(1)
		go st.runWorker(w)
	}
	return st, nil
}

// Submit admits one query job. It NEVER blocks: a full queue rejects with
// ErrQueueFull immediately (the caller decides whether to retry later),
// and a draining station rejects with ErrDraining.
func (s *Station) Submit(spec QuerySpec) (*Job, error) {
	if spec.Kind < repro.QuerySum || spec.Kind > repro.QueryMax {
		return nil, fmt.Errorf("station: invalid query kind %d", spec.Kind)
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = s.cfg.JobTimeout
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	ctx, cancelCause := context.WithCancelCause(ctx)
	job := &Job{
		spec:      spec,
		seed:      spec.EffectiveSeed(s.cfg.Deploy.Seed),
		st:        s,
		ctx:       ctx,
		cancel:    cancelCause,
		timerStop: cancel,
		state:     JobQueued,
		worker:    -1,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		job.timerStop()
		return nil, ErrDraining
	}
	// Stamp identity BEFORE the send: the channel's happens-before edge is
	// what lets the worker read job.id and job.requestID lock-free; writes
	// after the send would race a worker that picks the job up immediately.
	// A sequence number burned on rejection is a harmless gap.
	job.id = fmt.Sprintf("%sjob-%d", s.cfg.IDPrefix, s.nextJob.Add(1))
	job.requestID = spec.RequestID
	if job.requestID == "" {
		job.requestID = job.id
	}
	if len(s.queue) == cap(s.queue) {
		job.timerStop()
		s.metrics.rejected.Inc()
		return nil, ErrQueueFull
	}
	// Admit before the send, so no worker can trace the job's run stage
	// ahead of its admit. Submit is the only sender and holds s.mu, so the
	// queue cannot have filled since the check and the send cannot block.
	s.jobs[job.id] = job
	s.metrics.accepted.Inc()
	s.emitRequest(job, trace.StageAdmit, "kind="+spec.Kind.String())
	s.queue <- job
	return job, nil
}

// SubmitAll is the fan-out form of Submit. On a single station it admits
// exactly one job; a fleet coordinator admits one per shard, which is how
// fleet-spanning queries (and the bit-identical fleet smoke) fan out.
// With partial set a fleet admits what it can and reports the ordinals of
// shards it could not reach (the degraded-answer contract); a single
// station has no partial mode — one shard either admits or refuses.
func (s *Station) SubmitAll(spec QuerySpec, partial bool) ([]*Job, []int, error) {
	job, err := s.Submit(spec)
	if err != nil {
		return nil, nil, err
	}
	return []*Job{job}, nil, nil
}

// Health reports the station as one shard: ok or draining.
func (s *Station) Health() Health {
	state, status := trace.ShardHealthy, "ok"
	if s.Draining() {
		state, status = "draining", "draining"
	}
	return Health{Status: status, Shards: []ShardHealth{{ID: 0, State: state}}}
}

// Job returns a submitted job by ID (nil if unknown or evicted).
func (s *Station) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runWorker is the pool loop: it serializes every touch of its Deployment.
func (s *Station) runWorker(w *worker) {
	defer s.wg.Done()
	for job := range s.queue {
		s.execute(w, job)
	}
}

func (s *Station) execute(w *worker, job *Job) {
	// A job cancelled or timed out while queued never costs an epoch.
	if job.Finished() {
		return
	}
	if err := job.ctx.Err(); err != nil {
		s.finish(job, repro.QueryAnswer{}, cause(job.ctx))
		return
	}
	job.setRunning(w.id)
	s.metrics.queueWait.Observe(job.QueueWait())
	s.emitRequest(job, trace.StageRun,
		fmt.Sprintf("worker=%d queue_wait=%v", w.id, job.QueueWait()))
	ans, err := s.epoch(w, job)
	s.metrics.ran(w.id, w.dep.Traffic())
	// Cancellation mid-epoch is best-effort: the simulation round is not
	// interruptible, so the epoch runs to completion and the result is
	// discarded here.
	if cerr := job.ctx.Err(); cerr != nil {
		ans, err = repro.QueryAnswer{}, cause(job.ctx)
	}
	s.finish(job, ans, err)
}

// epoch runs the job's query on the worker's deployment. A panic fails
// this job only: the worker goes on serving, and the Reset that opens its
// next epoch rewinds whatever state the panic left behind.
func (s *Station) epoch(w *worker, job *Job) (ans repro.QueryAnswer, err error) {
	defer func() {
		if r := recover(); r != nil {
			ans, err = repro.QueryAnswer{}, fmt.Errorf("station: %s panicked: %v", job.id, r)
		}
	}()
	if h := s.runningHook(); h != nil {
		h(job)
	}
	if err = w.dep.Reset(job.seed); err != nil {
		return repro.QueryAnswer{}, err
	}
	return w.dep.RunQuery(job.spec.Kind, s.cfg.Cluster)
}

func (s *Station) runningHook() func(*Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.testHookRunning
}

func (s *Station) setRunningHook(h func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.testHookRunning = h
}

// cause extracts the most specific context error (CancelCause when set).
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

func (s *Station) finish(job *Job, ans repro.QueryAnswer, err error) {
	if !job.settle(ans, err) {
		return // lost the race against Cancel-while-queued
	}
	defer job.publish() // only once the outcome is counted
	s.metrics.finished(job.spec.Kind, job.State(), ans)
	if ran := job.RunTime(); ran > 0 {
		s.metrics.run.Observe(ran)
	}
	switch job.State() {
	case JobCanceled:
		s.emitRequest(job, trace.StageCanceled, "")
	case JobFailed:
		s.emitRequest(job, trace.StageFailed, fmt.Sprintf("ran=%v", job.RunTime()))
	case JobDone:
		s.emitRequest(job, trace.StageDone, fmt.Sprintf("ran=%v", job.RunTime()))
	}
	s.retire(job)
}

// retire records the finished job for eviction once KeepJobs is exceeded,
// so a standing service polling thousands of jobs does not grow without
// bound.
func (s *Station) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, job.id)
	for len(s.doneOrder) > s.cfg.KeepJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// cancelFinished lets Job.Cancel retire a still-queued job immediately.
func (s *Station) cancelFinished(job *Job) {
	s.metrics.finished(job.spec.Kind, JobCanceled, repro.QueryAnswer{})
	s.emitRequest(job, trace.StageCanceled, "queued=true")
	s.retire(job)
}

// emitRequest records one request lifecycle stage into the serve-trace
// sink (no-op when tracing is off). Every event carries req= and job=
// tokens so aggtrace -why request can rebuild the span tree.
func (s *Station) emitRequest(job *Job, stage, extra string) {
	if s.cfg.Trace == nil {
		return
	}
	detail := "req=" + job.RequestID() + " job=" + job.id
	if extra != "" {
		detail += " " + extra
	}
	s.cfg.Trace.Emit(trace.Event{
		At:      time.Since(s.started),
		Node:    topo.NodeID(job.Worker()),
		Cluster: trace.NoCluster,
		Phase:   trace.PhaseServe,
		Type:    trace.TypeRequest,
		Cause:   stage,
		Detail:  detail,
	})
}

// Drain gracefully shuts the station down: schedules stop, admission
// closes (Submit returns ErrDraining) and every already-admitted job runs
// to completion. The context bounds the wait; on expiry workers keep
// finishing in the background but Drain returns the context's error.
// Drain is idempotent.
func (s *Station) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	scheds := make([]*Schedule, 0, len(s.schedules))
	for _, sc := range s.schedules {
		scheds = append(scheds, sc)
	}
	s.mu.Unlock()

	for _, sc := range scheds {
		sc.stop()
	}
	if !already {
		close(s.queue)
	}
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-workersDone:
		return nil
	}
}

// Draining reports whether the station has begun shutting down.
func (s *Station) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ScheduleStatuses lists the registered schedules, sorted by ID.
func (s *Station) ScheduleStatuses() []ScheduleStatus {
	s.mu.Lock()
	out := make([]ScheduleStatus, 0, len(s.schedules))
	for _, sc := range s.schedules {
		out = append(out, sc.Status())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
