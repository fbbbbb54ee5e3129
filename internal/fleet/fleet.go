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
//   - Shedding: a draining or full owner sheds the query to the next
//     shard clockwise on the ring. Clients see a 503 only when the whole
//     fleet refuses.
//   - Composed admission: backpressure hints do not multiply across
//     shards. One walk, one rejection, one Retry-After — coordinator-level
//     admission, not N stacked 503s.
//   - Fan-out: SubmitAll places one job on every shard (fleet-spanning
//     queries); schedule registration fans out by hashing each schedule to
//     one owner shard so recurring load spreads across pools.
//   - Observation: WriteMetrics serves the coordinator's registry and every
//     shard's under a shard="i" label as one exposition (metrics.go);
//     fan-out and merge stages join the shards' request spans in one
//     trace stream for aggtrace -why request, and a partial fan-out emits
//     a degraded event.
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

	// Trace receives fleet-level events (fan-out and merge stages,
	// degraded answers). Must be safe for concurrent use — wrap
	// single-threaded sinks with trace.NewLocked.
	Trace trace.Sink
}

// Fleet is the coordinator. It implements station.Backend.
type Fleet struct {
	cfg     Config
	shards  []*station.Station
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
}

// New builds Shards stations and the hash ring over them.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fleet: shards must be positive, got %d", cfg.Shards)
	}
	f := &Fleet{cfg: cfg, ring: newRing(cfg.Shards), started: time.Now()}
	for i := 0; i < cfg.Shards; i++ {
		st, err := station.New(f.shardConfig(i))
		if err != nil {
			// Unwind the shards already serving.
			for _, prev := range f.shards {
				_ = prev.Drain(context.Background())
			}
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, st)
	}
	f.metrics = f.newMetrics()
	return f, nil
}

// shardConfig is the station config for shard i: the template with the
// shard's ID prefix and ordinal window.
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

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Shard exposes one shard's station.
func (f *Fleet) Shard(i int) *station.Station { return f.shards[i] }

// Owner returns the ring owner for a spec — which shard the query lands on
// when nothing is shedding.
func (f *Fleet) Owner(spec station.QuerySpec) int {
	return f.ring.owner(f.key(spec))
}

func (f *Fleet) key(spec station.QuerySpec) uint64 {
	return queryKey(int64(spec.Kind), spec.EffectiveSeed(f.cfg.Station.Deploy.Seed))
}

// Submit admits one query: the ring owner first, shedding clockwise past
// draining or full shards, rejecting only when every shard refuses. Like
// station.Submit it never blocks.
func (f *Fleet) Submit(spec station.QuerySpec) (*station.Job, error) {
	if f.draining.Load() {
		return nil, station.ErrDraining
	}
	sawFull := false
	for n, idx := range f.ring.walk(f.key(spec)) {
		sh := f.shards[idx]
		if sh.Draining() {
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
	// The whole fleet refused: compose ONE rejection. Full beats draining:
	// full is the retryable condition the backoff hint exists for.
	f.metrics.rejected.Inc()
	f.metrics.avail.Record(false)
	if sawFull {
		return nil, station.ErrQueueFull
	}
	return nil, station.ErrDraining
}

// SubmitAll fans one query out to every shard — the fleet-spanning form.
// All shards share the deployment template, so the fan-in answers must
// agree bit-for-bit; disagreement means a shard diverged.
//
// Admission is all-or-nothing by default: if any shard refuses, the
// already-admitted jobs are canceled and the error surfaces once. With
// partial set, refusing shards are skipped and their ordinals returned as
// missing — the degraded-answer contract clients opt into with
// ?partial=1 — and only a fan-out no shard admits errors.
func (f *Fleet) SubmitAll(spec station.QuerySpec, partial bool) ([]*station.Job, []int, error) {
	if f.draining.Load() {
		return nil, nil, station.ErrDraining
	}
	jobs := make([]*station.Job, 0, len(f.shards))
	shards := make([]int, 0, len(f.shards))
	var missing []int
	refuse := func(err error) ([]*station.Job, []int, error) {
		for _, j := range jobs {
			j.Cancel()
		}
		if errors.Is(err, station.ErrQueueFull) || errors.Is(err, station.ErrUnavailable) {
			f.metrics.rejected.Inc()
			f.metrics.avail.Record(false)
		}
		return nil, nil, err
	}
	for i, sh := range f.shards {
		job, err := sh.Submit(spec)
		if err == nil {
			jobs = append(jobs, job)
			shards = append(shards, i)
			f.emitRequest(spec.RequestID, i, trace.StageFanout,
				fmt.Sprintf("shard=%d", i))
			continue
		}
		if !partial {
			return refuse(err)
		}
		missing = append(missing, i)
	}
	if len(jobs) == 0 {
		// Nothing answered; a fully-missing "partial" answer is no answer.
		return refuse(station.ErrUnavailable)
	}
	if len(missing) > 0 {
		f.metrics.degraded.Inc()
		if f.cfg.Trace != nil {
			f.cfg.Trace.Emit(trace.Event{
				At:      time.Since(f.started),
				Node:    topo.NodeID(missing[0]),
				Cluster: trace.NoCluster,
				Phase:   trace.PhaseFleet,
				Type:    trace.TypeDegraded,
				Cause:   "partial-fanout",
				Detail:  fmt.Sprintf("missing=%v served=%d", missing, len(jobs)),
			})
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
		return f.shards[i].Job(id)
	}
	for _, sh := range f.shards {
		if job := sh.Job(id); job != nil {
			return job
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
	if _, err := fmt.Sscanf(rest[:cut], "%d", &i); err != nil || i < 0 || i >= len(f.shards) {
		return 0, false
	}
	return i, true
}

// AddSchedule registers a recurring query on one shard, chosen by hashing
// the schedule's fleet-wide ordinal so standing load spreads across pools;
// a draining owner sheds registration clockwise like a query would.
func (f *Fleet) AddSchedule(spec station.ScheduleSpec) (*station.Schedule, error) {
	if f.draining.Load() {
		return nil, station.ErrDraining
	}
	ordinal := f.nextSched.Add(1)
	var lastErr error = station.ErrDraining
	for _, idx := range f.ring.walk(queryKey(^int64(spec.Kind), ordinal)) {
		sh := f.shards[idx]
		if sh.Draining() {
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
		return f.shards[i].Schedule(id)
	}
	for _, sh := range f.shards {
		if sc := sh.Schedule(id); sc != nil {
			return sc
		}
	}
	return nil
}

// RemoveSchedule stops and removes a schedule wherever it lives.
func (f *Fleet) RemoveSchedule(id string) bool {
	if i, ok := f.shardOf(id); ok {
		return f.shards[i].RemoveSchedule(id)
	}
	for _, sh := range f.shards {
		if sh.RemoveSchedule(id) {
			return true
		}
	}
	return false
}

// ScheduleStatuses lists every shard's schedules, sorted by ID.
func (f *Fleet) ScheduleStatuses() []station.ScheduleStatus {
	var out []station.ScheduleStatus
	for _, sh := range f.shards {
		out = append(out, sh.ScheduleStatuses()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Draining reports whether fleet-level shutdown has begun.
func (f *Fleet) Draining() bool { return f.draining.Load() }

// Health reports the fleet's per-shard states: ok when every shard is
// healthy, degraded while any shard drains, draining during shutdown.
func (f *Fleet) Health() station.Health {
	h := station.Health{Status: "ok", Shards: make([]station.ShardHealth, 0, len(f.shards))}
	if f.draining.Load() {
		h.Status = "draining"
	}
	for i, sh := range f.shards {
		state := sh.Health().Shards[0].State
		if state != trace.ShardHealthy && h.Status == "ok" {
			h.Status = "degraded"
		}
		h.Shards = append(h.Shards, station.ShardHealth{ID: i, State: state})
	}
	return h
}

// Drain gracefully shuts the whole fleet down: fleet admission closes,
// then every shard drains concurrently (schedules stop, admitted epochs
// finish). Idempotent; the context bounds the wait.
func (f *Fleet) Drain(ctx context.Context) error {
	// The flip shares watchMu with watchFanout: any watcher registered
	// before it is seen by the Wait below, any after it sees draining and
	// bails — no registration can slip between Wait and the sink close.
	f.watchMu.Lock()
	f.draining.Store(true)
	f.watchMu.Unlock()
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, sh := range f.shards {
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
