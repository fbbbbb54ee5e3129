// Package fleet shards the base-station serving layer horizontally: a
// coordinator that owns N station shards (each a full station.Station with
// its own worker pool, deployments, and schedules) and consistent-hashes
// one-shot queries across them. It implements station.Backend, so the
// HTTP API, the load driver, and every client are oblivious to whether one
// shard or sixteen sit behind the listener.
//
// The coordinator's contract:
//
//   - Placement: a query's ring key is (kind, effective seed) — the pair
//     that determines its answer bit-for-bit — so identical queries always
//     land on the same shard. Because every shard is built from the same
//     deployment template, any shard can serve any query with an answer
//     bit-identical to a single station's (make fleet-smoke proves it).
//   - Shedding: a draining, full, or down owner sheds the query to the
//     next shard clockwise on the ring. Clients see a 503 only when the
//     whole fleet refuses.
//   - Composed admission: backpressure hints do not multiply across
//     shards. One walk, one rejection, one Retry-After — coordinator-level
//     admission, not N stacked 503s.
//   - Fan-out: SubmitAll places one job on every shard (fleet-spanning
//     queries); schedule registration fans out by hashing each schedule to
//     one owner shard so recurring load spreads across pools.
//   - Self-healing: each shard sits in a supervised slot with a health
//     state machine (healthy/suspect/down/restarting) driven by active
//     probes and passive request outcomes; down shards leave the rotation,
//     are restarted with exponential backoff + jitter, and re-admitted
//     only after K consecutive healthy probes (supervisor.go). Faults are
//     injected on purpose through Config.Chaos (internal/chaos), which is
//     also what starts the supervisor; its tuning is constants. A
//     single station under chaos runs as a one-shard fleet, so this gate
//     is the only in-process injection seam.
//   - Observation: WriteMetrics serves the coordinator's registry and every
//     shard's under a shard="i" label as one exposition (metrics.go);
//     health and fault transitions are emitted as typed trace events for
//     aggtrace -why outage.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/station"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config sizes the fleet.
type Config struct {
	// Shards is the number of station shards (default 2). Each shard gets
	// a full copy of the Station config — its own worker pool and
	// deployments — plus a distinct ID prefix ("s3-job-17").
	Shards int
	// Station is the per-shard template. The fleet sets IDPrefix and
	// ScheduleOrdinalBase per shard.
	Station station.Config

	// Chaos, when non-nil, injects the controller's fault plan at the
	// shard seam: every admission consults the target shard's verdict
	// before touching it, and the shard supervisor runs (self-healing is
	// pointless without a way for shards to get hurt, and keeping it off
	// otherwise leaves the no-chaos fleet exactly as cheap). Nil costs one
	// pointer check per shard visited.
	Chaos *chaos.Controller

	// Trace receives fleet-level events (fault edges, shard health
	// transitions, degraded answers). Must be safe for concurrent use —
	// wrap single-threaded sinks with trace.NewLocked.
	Trace trace.Sink
}

// slot is one supervised shard position: the station (nil while killed)
// plus its health state. Routing reads state lock-free via the atomics;
// the supervisor owns transitions.
type slot struct {
	id    int
	st    atomic.Pointer[station.Station]
	state atomic.Pointer[string]
	// passive counts request-path failures (injected crashes observed at
	// the seam) since the last supervisor tick — the passive half of the
	// health signal.
	passive atomic.Int64
}

// State returns the slot's current health state (a trace.Shard* constant).
func (s *slot) State() string { return *s.state.Load() }

func (s *slot) setState(state string) { s.state.Store(&state) }

// serving reports whether routing may send work to the slot: healthy or
// suspect (suspect is failing probes but not yet evicted). Down and
// restarting (probation) slots receive no traffic.
func (s *slot) serving() bool {
	st := s.State()
	return st == trace.ShardHealthy || st == trace.ShardSuspect
}

// Fleet is the coordinator. It implements station.Backend.
type Fleet struct {
	cfg     Config
	slots   []*slot
	ring    *ring
	started time.Time
	metrics *metrics

	draining  atomic.Bool
	nextSched atomic.Int64

	// watchers tracks fan-out observer goroutines (per-shard latency plus
	// the merge event) so Drain can wait for the last emit before the
	// caller closes the trace sink. watchMu makes registration atomic with
	// Drain's draining flip: without it a SubmitAll that passed the
	// draining check could Add after Drain's Wait already returned.
	watchMu  sync.Mutex
	watchers sync.WaitGroup

	supStop chan struct{}
	supDone chan struct{}
}

// New builds Shards stations and the hash ring over them, and starts the
// supervisor when a chaos controller is attached.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fleet: shards must be positive, got %d", cfg.Shards)
	}
	// A window aimed past the last shard would never fire, and the drill
	// would report full availability for a fault that never happened.
	for i, w := range cfg.Chaos.Plan().Faults {
		if w.Shard >= cfg.Shards {
			return nil, fmt.Errorf("fleet: chaos fault %d targets shard %d, but the fleet has %d shard(s)", i, w.Shard, cfg.Shards)
		}
	}
	f := &Fleet{cfg: cfg, ring: newRing(cfg.Shards), started: time.Now()}
	for i := 0; i < cfg.Shards; i++ {
		st, err := station.New(f.shardConfig(i))
		if err != nil {
			// Unwind the shards already serving.
			for _, prev := range f.slots {
				if s := prev.st.Load(); s != nil {
					_ = s.Drain(context.Background())
				}
			}
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		sl := &slot{id: i}
		sl.st.Store(st)
		sl.setState(trace.ShardHealthy)
		f.slots = append(f.slots, sl)
	}
	f.metrics = f.newMetrics()
	if cfg.Chaos != nil && cfg.Trace != nil {
		cfg.Chaos.Trace(cfg.Trace)
	}
	if cfg.Chaos != nil {
		f.startSupervisor()
	}
	return f, nil
}

// shardConfig is the station config for shard i — also what a supervisor
// restart rebuilds from, so restarted shards are indistinguishable from
// the originals (same prefix, same ordinal window, same template).
func (f *Fleet) shardConfig(i int) station.Config {
	scfg := f.cfg.Station
	scfg.IDPrefix = fmt.Sprintf("s%d-", i)
	// Each shard's scheduler draws ordinals from a disjoint window so
	// same-kind schedules placed on different shards never alias onto
	// the same epoch-seed stream (they would both start at ordinal 1).
	scfg.ScheduleOrdinalBase = int64(i) << 16
	// Shard stations share the fleet's sink so one request's admit/run/done
	// stages land in the same stream as the fleet's fan-out and merge — the
	// span tree aggtrace -why request rebuilds needs all of them together.
	if scfg.Trace == nil {
		scfg.Trace = f.cfg.Trace
	}
	return scfg
}

// emit sends one fleet event if a sink is attached. Callers nil-check via
// this method's guard; the event is only built past it.
func (f *Fleet) emit(shard int, typ, cause, detail string) {
	if f.cfg.Trace == nil {
		return
	}
	f.cfg.Trace.Emit(trace.Event{
		At:      time.Since(f.started),
		Node:    topo.NodeID(shard),
		Cluster: trace.NoCluster,
		Phase:   trace.PhaseFleet,
		Type:    typ,
		Cause:   cause,
		Detail:  detail,
	})
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.slots) }

// Shard exposes one shard's current station (nil while the shard is
// killed).
func (f *Fleet) Shard(i int) *station.Station { return f.slots[i].st.Load() }

// Owner returns the ring owner for a spec — which shard the query lands on
// when nothing is shedding.
func (f *Fleet) Owner(spec station.QuerySpec) int {
	return f.ring.owner(f.key(spec))
}

func (f *Fleet) key(spec station.QuerySpec) uint64 {
	return queryKey(int64(spec.Kind), spec.EffectiveSeed(f.cfg.Station.Deploy.Seed))
}

// gate applies the chaos verdict for shard idx to one admission attempt.
// Returns the injected error (nil = proceed). Crashes count as passive
// health failures so the supervisor sees what routing saw.
func (f *Fleet) gate(idx int) error {
	d := f.cfg.Chaos.Decide(idx)
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	switch {
	case d.Crash:
		f.slots[idx].passive.Add(1)
		return station.ErrUnavailable
	case d.QueueFull:
		return station.ErrQueueFull
	case d.Err:
		return chaos.ErrInjected
	}
	return nil
}

// Submit admits one query: the ring owner first, shedding clockwise past
// draining, full, or down shards, rejecting only when every shard refuses.
// Like station.Submit it never blocks.
func (f *Fleet) Submit(spec station.QuerySpec) (*station.Job, error) {
	if f.draining.Load() {
		return nil, station.ErrDraining
	}
	sawFull, sawDown := false, false
	order := f.ring.walk(f.key(spec))
	for n, idx := range order {
		sl := f.slots[idx]
		if !sl.serving() {
			sawDown = true
			continue // shed past the downed shard to its ring successor
		}
		if err := f.gate(idx); err != nil {
			switch {
			case errors.Is(err, station.ErrUnavailable):
				sawDown = true
			case errors.Is(err, station.ErrQueueFull):
				sawFull = true
			default:
				f.metrics.avail.Record(false)
				return nil, err // injected error burst: fail this request
			}
			continue
		}
		sh := sl.st.Load()
		if sh == nil || sh.Draining() {
			sawDown = sawDown || sh == nil
			continue // shed to the next ring owner
		}
		job, err := sh.Submit(spec)
		switch {
		case err == nil:
			if n > 0 {
				f.metrics.shed.Inc()
			}
			f.metrics.avail.Record(true)
			return job, nil
		case errors.Is(err, station.ErrQueueFull):
			sawFull = true
		case errors.Is(err, station.ErrDraining):
			// Raced into a drain; keep walking.
		default:
			return nil, err // invalid spec — no shard will take it
		}
	}
	// The whole fleet refused: compose ONE rejection. Full beats down
	// beats draining — both leading conditions are the retryable ones the
	// backoff hint exists for, and full implies capacity will free first.
	f.metrics.rejected.Inc()
	f.metrics.avail.Record(false)
	switch {
	case sawFull:
		return nil, station.ErrQueueFull
	case sawDown:
		return nil, station.ErrUnavailable
	default:
		return nil, station.ErrDraining
	}
}

// SubmitAll fans one query out to every shard — the fleet-spanning form.
// All shards share the deployment template, so the fan-in answers must
// agree bit-for-bit; disagreement means a shard diverged.
//
// Admission is all-or-nothing by default: if any shard refuses, the
// already-admitted jobs are canceled and the error surfaces once. With
// partial set, unreachable or refusing shards are skipped and their
// ordinals returned as missing — the degraded-answer contract clients opt
// into with ?partial=1 — and only a fleet with zero reachable shards
// errors.
func (f *Fleet) SubmitAll(spec station.QuerySpec, partial bool) ([]*station.Job, []int, error) {
	if f.draining.Load() {
		return nil, nil, station.ErrDraining
	}
	jobs := make([]*station.Job, 0, len(f.slots))
	shards := make([]int, 0, len(f.slots))
	var missing []int
	refuse := func(i int, err error) ([]*station.Job, []int, error) {
		for _, j := range jobs {
			j.Cancel()
		}
		if errors.Is(err, station.ErrQueueFull) || errors.Is(err, station.ErrUnavailable) {
			f.metrics.rejected.Inc()
			f.metrics.avail.Record(false)
		}
		return nil, nil, err
	}
	for i, sl := range f.slots {
		var err error
		switch {
		case !sl.serving():
			err = station.ErrUnavailable
		default:
			err = f.gate(i)
		}
		if err == nil {
			sh := sl.st.Load()
			if sh == nil {
				err = station.ErrUnavailable
			} else {
				var job *station.Job
				if job, err = sh.Submit(spec); err == nil {
					jobs = append(jobs, job)
					shards = append(shards, i)
					f.emitRequest(spec.RequestID, i, trace.StageFanout,
						fmt.Sprintf("shard=%d", i))
					continue
				}
			}
		}
		if !partial {
			return refuse(i, err)
		}
		missing = append(missing, i)
	}
	if len(jobs) == 0 {
		// Nothing answered; a fully-missing "partial" answer is no answer.
		return refuse(-1, station.ErrUnavailable)
	}
	if len(missing) > 0 {
		f.metrics.degraded.Inc()
		if f.cfg.Trace != nil {
			f.emit(missing[0], trace.TypeDegraded, "partial-fanout",
				fmt.Sprintf("missing=%v served=%d", missing, len(jobs)))
		}
	}
	f.metrics.avail.Record(true)
	f.watchFanout(spec.RequestID, jobs, shards)
	return jobs, missing, nil
}

// watchFanout observes each fan-out job's completion latency into its
// shard's histogram and emits the merge stage once every job settles —
// the fleet-side half of the request span tree.
func (f *Fleet) watchFanout(reqID string, jobs []*station.Job, shards []int) {
	// Register under watchMu so Drain's watchers.Wait cannot return with a
	// registration in flight; once draining is set the caller may be about
	// to close the sink, so skip the async observers entirely.
	f.watchMu.Lock()
	if f.draining.Load() {
		f.watchMu.Unlock()
		return
	}
	f.watchers.Add(1)
	f.watchMu.Unlock()
	start := time.Now()
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(shard int, job *station.Job) {
			defer wg.Done()
			<-job.Done()
			f.metrics.fanout[shard].Observe(time.Since(start))
		}(shards[i], job)
	}
	go func() {
		defer f.watchers.Done()
		wg.Wait()
		f.emitRequest(reqID, -1, trace.StageMerge, fmt.Sprintf("shards=%d", len(jobs)))
	}()
}

// emitRequest records one fleet-side request lifecycle stage (fan-out,
// merge). Requests with no correlation id — scheduled epochs — are
// skipped; their per-shard jobs are still traced by the stations.
func (f *Fleet) emitRequest(reqID string, shard int, stage, extra string) {
	if f.cfg.Trace == nil || reqID == "" {
		return
	}
	detail := "req=" + reqID
	if extra != "" {
		detail += " " + extra
	}
	f.cfg.Trace.Emit(trace.Event{
		At:      time.Since(f.started),
		Node:    topo.NodeID(shard),
		Cluster: trace.NoCluster,
		Phase:   trace.PhaseServe,
		Type:    trace.TypeRequest,
		Cause:   stage,
		Detail:  detail,
	})
}

// Job resolves a job handle. Shard-prefixed IDs ("s2-job-17") route
// directly; anything else falls back to scanning every shard.
func (f *Fleet) Job(id string) *station.Job {
	if i, ok := f.shardOf(id); ok {
		if sh := f.slots[i].st.Load(); sh != nil {
			return sh.Job(id)
		}
		return nil
	}
	for _, sl := range f.slots {
		if sh := sl.st.Load(); sh != nil {
			if job := sh.Job(id); job != nil {
				return job
			}
		}
	}
	return nil
}

// shardOf parses the "s<i>-" prefix the fleet stamps on every handle.
func (f *Fleet) shardOf(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	rest := id[1:]
	cut := strings.IndexByte(rest, '-')
	if cut <= 0 {
		return 0, false
	}
	var i int
	if _, err := fmt.Sscanf(rest[:cut], "%d", &i); err != nil || i < 0 || i >= len(f.slots) {
		return 0, false
	}
	return i, true
}

// AddSchedule registers a recurring query on one shard, chosen by hashing
// the schedule's fleet-wide ordinal so standing load spreads across pools;
// a draining or down owner sheds registration clockwise like a query would.
func (f *Fleet) AddSchedule(spec station.ScheduleSpec) (*station.Schedule, error) {
	if f.draining.Load() {
		return nil, station.ErrDraining
	}
	ordinal := f.nextSched.Add(1)
	var lastErr error = station.ErrDraining
	for _, idx := range f.ring.walk(queryKey(^int64(spec.Kind), ordinal)) {
		sl := f.slots[idx]
		if !sl.serving() {
			lastErr = station.ErrUnavailable
			continue
		}
		sh := sl.st.Load()
		if sh == nil || sh.Draining() {
			continue
		}
		sc, err := sh.AddSchedule(spec)
		if err == nil {
			return sc, nil
		}
		lastErr = err
		if !errors.Is(err, station.ErrDraining) {
			return nil, err // invalid spec — no shard will take it
		}
	}
	return nil, lastErr
}

// Schedule resolves a schedule handle across shards.
func (f *Fleet) Schedule(id string) *station.Schedule {
	if i, ok := f.shardOf(id); ok {
		if sh := f.slots[i].st.Load(); sh != nil {
			return sh.Schedule(id)
		}
		return nil
	}
	for _, sl := range f.slots {
		if sh := sl.st.Load(); sh != nil {
			if sc := sh.Schedule(id); sc != nil {
				return sc
			}
		}
	}
	return nil
}

// RemoveSchedule stops and removes a schedule wherever it lives.
func (f *Fleet) RemoveSchedule(id string) bool {
	if i, ok := f.shardOf(id); ok {
		if sh := f.slots[i].st.Load(); sh != nil {
			return sh.RemoveSchedule(id)
		}
		return false
	}
	for _, sl := range f.slots {
		if sh := sl.st.Load(); sh != nil && sh.RemoveSchedule(id) {
			return true
		}
	}
	return false
}

// ScheduleStatuses lists every shard's schedules, sorted by ID.
func (f *Fleet) ScheduleStatuses() []station.ScheduleStatus {
	var out []station.ScheduleStatus
	for _, sl := range f.slots {
		if sh := sl.st.Load(); sh != nil {
			out = append(out, sh.ScheduleStatuses()...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Draining reports whether fleet-level shutdown has begun.
func (f *Fleet) Draining() bool { return f.draining.Load() }

// Health reports the fleet's per-shard states: ok when every shard is
// healthy, degraded while any is not, draining during shutdown.
func (f *Fleet) Health() station.Health {
	h := station.Health{Status: "ok", Shards: make([]station.ShardHealth, 0, len(f.slots))}
	if f.draining.Load() {
		h.Status = "draining"
	}
	for _, sl := range f.slots {
		state := sl.State()
		if sh := sl.st.Load(); state == trace.ShardHealthy && (sh == nil || sh.Draining()) {
			state = "draining"
		}
		if state != trace.ShardHealthy && h.Status == "ok" {
			h.Status = "degraded"
		}
		h.Shards = append(h.Shards, station.ShardHealth{ID: sl.id, State: state})
	}
	return h
}

// Drain gracefully shuts the whole fleet down: the supervisor stops (so
// it cannot restart what is being stopped), fleet admission closes, then
// every shard drains concurrently (schedules stop, admitted epochs
// finish). Idempotent; the context bounds the wait.
func (f *Fleet) Drain(ctx context.Context) error {
	// The flip shares watchMu with watchFanout: any watcher registered
	// before it is seen by the Wait below, any after it sees draining and
	// bails — no registration can slip between Wait and the sink close.
	f.watchMu.Lock()
	f.draining.Store(true)
	f.watchMu.Unlock()
	f.stopSupervisor()
	errs := make([]error, len(f.slots))
	var wg sync.WaitGroup
	for i, sl := range f.slots {
		sh := sl.st.Load()
		if sh == nil {
			continue // killed by chaos; nothing to drain
		}
		wg.Add(1)
		go func(i int, sh *station.Station) {
			defer wg.Done()
			errs[i] = sh.Drain(ctx)
		}(i, sh)
	}
	wg.Wait()
	// Fan-out watchers finish once their jobs do (just drained above); wait
	// for the last merge emit so the caller can safely close the sink, but
	// never past the drain deadline.
	watched := make(chan struct{})
	go func() { f.watchers.Wait(); close(watched) }()
	select {
	case <-watched:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("fleet: fan-out watchers still running: %w", ctx.Err()))
	}
	return errors.Join(errs...)
}
