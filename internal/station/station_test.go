package station

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// testConfig is a small, fast deployment: 80 ideal-channel nodes keep one
// epoch in the low milliseconds so lifecycle tests stay snappy.
func testConfig(workers, queue int) Config {
	return Config{
		Workers:    workers,
		QueueDepth: queue,
		Deploy:     repro.Options{Nodes: 80, Seed: 7, Ideal: true},
	}
}

func newStation(t *testing.T, cfg Config) *Station {
	t.Helper()
	st, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := st.Drain(ctx); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	return st
}

// scrape renders the station's /metricsz body and parses it back.
func scrape(t *testing.T, st *Station) telemetry.Samples {
	t.Helper()
	var b bytes.Buffer
	if err := st.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(&b)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	return samples
}

// jobs sums agg_station_jobs_total for one outcome over every kind.
func jobs(m telemetry.Samples, outcome string) float64 {
	return m.Sum("agg_station_jobs_total", "outcome", outcome)
}

// workerRounds reads one pool worker's epoch count.
func workerRounds(m telemetry.Samples, worker int) float64 {
	return m.Sum("agg_station_worker_rounds_total", "worker", strconv.Itoa(worker))
}

// blockWorkers installs the running hook so every job parks right after
// entering Running until release is closed. started receives each parked
// job.
func blockWorkers(st *Station) (started chan *Job, release chan struct{}) {
	started = make(chan *Job, 64)
	release = make(chan struct{})
	st.setRunningHook(func(j *Job) {
		started <- j
		<-release
	})
	return started, release
}

// TestPoolSerializesSharedWorkerSet is the -race proof of the Deployment
// concurrency contract: many goroutines hammer Submit against a small
// shared worker set, and because each Deployment is owned by exactly one
// worker goroutine, the race detector stays silent while every answer
// still matches the single-threaded result exactly.
func TestPoolSerializesSharedWorkerSet(t *testing.T) {
	cfg := testConfig(2, 64)
	st := newStation(t, cfg)

	dep, err := repro.NewDeployment(cfg.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const submitters, each = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters*each)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				job, err := st.Submit(QuerySpec{Kind: repro.QuerySum})
				if err != nil {
					errs <- err
					continue
				}
				ans, err := job.Wait(context.Background())
				if err != nil {
					errs <- err
					continue
				}
				if ans.Value != want.Value {
					errs <- errors.New("answer diverged across workers")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent submit: %v", err)
	}
	m := scrape(t, st)
	if got := jobs(m, "done"); got != submitters*each {
		t.Errorf("completed = %v, want %d", got, submitters*each)
	}
	for w := 0; w < cfg.Workers; w++ {
		rounds := workerRounds(m, w)
		txBytes := m.Sum("agg_station_worker_traffic_total", "worker", strconv.Itoa(w), "field", "tx_bytes")
		if txBytes == 0 && rounds > 0 {
			t.Errorf("worker %d ran %v rounds but reports zero traffic", w, rounds)
		}
	}
	if rounds := m.Sum("agg_station_worker_rounds_total"); rounds != submitters*each {
		t.Errorf("worker rounds = %v, want %d", rounds, submitters*each)
	}
}

func TestSubmitBackpressureNeverBlocks(t *testing.T) {
	st := newStation(t, testConfig(1, 1))
	started, release := blockWorkers(st)

	running, err := st.Submit(QuerySpec{Kind: repro.QuerySum})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the one worker is now parked mid-epoch

	queued, err := st.Submit(QuerySpec{Kind: repro.QueryCount})
	if err != nil {
		t.Fatalf("queueing one job: %v", err)
	}
	// The queue (depth 1) is full: Submit must reject instantly, not block.
	done := make(chan error, 1)
	go func() {
		_, err := st.Submit(QuerySpec{Kind: repro.QueryAverage})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("full-queue Submit = %v, want ErrQueueFull", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked on a full queue")
	}
	close(release)
	st.setRunningHook(nil)
	for _, j := range []*Job{running, queued} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Errorf("job %s: %v", j.ID(), err)
		}
	}
	if got := scrape(t, st).Sum("agg_station_submitted_total", "result", "rejected"); got != 1 {
		t.Errorf("rejected = %v, want 1", got)
	}
}

func TestCancelQueuedJobNeverCostsAnEpoch(t *testing.T) {
	st := newStation(t, testConfig(1, 4))
	started, release := blockWorkers(st)

	if _, err := st.Submit(QuerySpec{Kind: repro.QuerySum}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := st.Submit(QuerySpec{Kind: repro.QuerySum})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if got := queued.State(); got != JobCanceled {
		t.Fatalf("state after queued cancel = %v, want canceled", got)
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	close(release)
	st.setRunningHook(nil)
	// Drain (via cleanup) then confirm the canceled job never ran.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, st)
	if got := workerRounds(m, 0); got != 1 {
		t.Errorf("worker rounds = %v, want 1 (canceled job must be skipped)", got)
	}
	if got := jobs(m, "canceled"); got != 1 {
		t.Errorf("canceled = %v, want 1", got)
	}
}

func TestCancelMidEpochDiscardsResult(t *testing.T) {
	st := newStation(t, testConfig(1, 4))
	// The hook fires after the job enters Running and before the epoch
	// executes: cancelling here is a deterministic mid-epoch cancel.
	st.setRunningHook(func(j *Job) { j.Cancel() })

	job, err := st.Submit(QuerySpec{Kind: repro.QuerySum})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := job.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if job.State() != JobCanceled {
		t.Fatalf("state = %v, want canceled", job.State())
	}
	if ans.Rounds != 0 || ans.Value != 0 {
		t.Errorf("canceled job leaked an answer: %+v", ans)
	}
	st.setRunningHook(nil)
	m := scrape(t, st)
	// The epoch itself ran to completion (rounds not interruptible)...
	if got := workerRounds(m, 0); got != 1 {
		t.Errorf("worker rounds = %v, want 1", got)
	}
	// ...but the outcome is a cancellation, not a completion.
	if c, d := jobs(m, "canceled"), jobs(m, "done"); c != 1 || d != 0 {
		t.Errorf("canceled/completed = %v/%v, want 1/0", c, d)
	}
}

func TestJobTimeoutWhileQueued(t *testing.T) {
	st := newStation(t, testConfig(1, 4))
	started, release := blockWorkers(st)

	if _, err := st.Submit(QuerySpec{Kind: repro.QuerySum}); err != nil {
		t.Fatal(err)
	}
	<-started
	job, err := st.Submit(QuerySpec{Kind: repro.QuerySum, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline lapse while queued
	close(release)
	st.setRunningHook(nil)
	if _, err := job.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
	if job.State() != JobFailed {
		t.Errorf("state = %v, want failed", job.State())
	}
}

func TestDrainFinishesAdmittedWork(t *testing.T) {
	cfg := testConfig(2, 16)
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*Job, 0, 6)
	for i := 0; i < 6; i++ {
		job, err := st.Submit(QuerySpec{Kind: repro.QuerySum, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := st.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, job := range jobs {
		if job.State() != JobDone {
			t.Errorf("job %s after drain = %v, want done", job.ID(), job.State())
		}
	}
	if _, err := st.Submit(QuerySpec{Kind: repro.QuerySum}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after drain = %v, want ErrDraining", err)
	}
	if _, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: time.Second}); !errors.Is(err, ErrDraining) {
		t.Errorf("AddSchedule after drain = %v, want ErrDraining", err)
	}
	if got := scrape(t, st)["agg_station_draining"]; got != 1 {
		t.Errorf("agg_station_draining = %v after drain, want 1", got)
	}
	// Idempotent.
	if err := st.Drain(ctx); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

func TestSchedulerRunsEpochsAndResamples(t *testing.T) {
	st := newStation(t, testConfig(2, 16))
	sc, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: 5 * time.Millisecond, Jitter: 0.2, Keep: 8})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(sc.Results()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("schedule produced %d results, want >= 3", len(sc.Results()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	results := sc.Results()
	values := make(map[float64]bool)
	for _, r := range results {
		if r.Answer == nil {
			t.Fatalf("epoch %d: no answer (%s)", r.Epoch, r.Error)
		}
		if r.Summary == "" {
			t.Errorf("epoch %d: empty summary", r.Epoch)
		}
		values[r.Answer.Value] = true
	}
	// Each epoch re-seeds the deployment, so readings re-draw: over 3+
	// epochs the SUM answers cannot all collide.
	if len(values) < 2 {
		t.Errorf("epoch answers never changed across %d epochs: %v", len(results), values)
	}
	if !st.RemoveSchedule(sc.ID()) {
		t.Error("RemoveSchedule returned false for a live schedule")
	}
	if st.RemoveSchedule(sc.ID()) {
		t.Error("RemoveSchedule returned true for a removed schedule")
	}
}

func TestSchedulerShedsEpochsUnderBackpressure(t *testing.T) {
	st := newStation(t, testConfig(1, 1))
	started, release := blockWorkers(st)

	sc, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	<-started // first epoch occupies the only worker; the next fills the queue
	deadline := time.Now().Add(30 * time.Second)
	for sc.Status().Skipped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never shed an epoch under a saturated pool")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	st.setRunningHook(nil)
	st.RemoveSchedule(sc.ID())
	if scrape(t, st).Sum("agg_station_submitted_total", "result", "rejected") == 0 {
		t.Error("station counted no rejections despite shed epochs")
	}
}

func TestFinishedJobEviction(t *testing.T) {
	cfg := testConfig(1, 8)
	cfg.KeepJobs = 2
	st := newStation(t, cfg)
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		job, err := st.Submit(QuerySpec{Kind: repro.QueryCount})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
	}
	if st.Job(ids[0]) != nil || st.Job(ids[1]) != nil {
		t.Error("oldest finished jobs not evicted with KeepJobs=2")
	}
	if st.Job(ids[3]) == nil {
		t.Error("newest finished job evicted")
	}
}

func TestTraceStatsMergedAcrossWorkers(t *testing.T) {
	cfg := testConfig(2, 8)
	cfg.TraceStats = true
	flushed := 0
	cfg.AttachSinks = func(worker int, d *repro.Deployment) func() error {
		return func() error { flushed++; return nil }
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		job, err := st.Submit(QuerySpec{Kind: repro.QuerySum, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Both workers count into the station's registry: the series sum
	// their events, and the round gauge holds the furthest round seen.
	m := scrape(t, st)
	if m.Sum("agg_trace_events_total") == 0 || m.Sum("agg_trace_events_total", "type", "lifecycle") == 0 {
		t.Errorf("trace counts missing from the registry: %v", m)
	}
	if m.Sum("agg_trace_phase_events_total", "phase", "announce") == 0 || m["agg_trace_sim_time_ns"] == 0 {
		t.Errorf("trace phase counts or sim-time high-water missing: %v", m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if flushed != cfg.Workers {
		t.Errorf("drain flushed %d sinks, want %d", flushed, cfg.Workers)
	}
}

// TestTraceStatsConcurrentWorkers holds two workers at the start of their
// epochs and releases them together, so both count sinks meet every event
// type for the first time at once (run under -race by make race). The
// shared registry must still hold exactly what an offline replay of the
// same two epochs counts.
func TestTraceStatsConcurrentWorkers(t *testing.T) {
	cfg := testConfig(2, 8)
	cfg.TraceStats = true
	var running sync.WaitGroup
	running.Add(cfg.Workers)
	cfg.RunningHook = func(*Job) {
		running.Done()
		running.Wait()
	}
	st := newStation(t, cfg)

	seeds := []int64{3, 4}
	var started []*Job
	for _, seed := range seeds {
		job, err := st.Submit(QuerySpec{Kind: repro.QuerySum, Seed: seed, SeedSet: true})
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, job)
	}
	for _, job := range started {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	offline := telemetry.NewRegistry()
	for _, seed := range seeds {
		dep, err := repro.NewDeployment(cfg.Deploy)
		if err != nil {
			t.Fatal(err)
		}
		dep.TraceCounts(offline)
		if err := dep.Reset(seed); err != nil {
			t.Fatal(err)
		}
		if _, err := dep.RunQuery(repro.QuerySum, cfg.Cluster); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := offline.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want, err := telemetry.ParseText(&b)
	if err != nil {
		t.Fatal(err)
	}
	got := scrape(t, st)
	for _, name := range []string{"agg_trace_events_total", "agg_trace_phase_events_total"} {
		if want.Sum(name) == 0 || got.Sum(name) != want.Sum(name) {
			t.Errorf("%s = %v, offline replay counts %v", name, got.Sum(name), want.Sum(name))
		}
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("%s = %v, offline replay %v", key, got[key], v)
		}
	}
}

func TestSubmitRejectsInvalidKind(t *testing.T) {
	st := newStation(t, testConfig(1, 4))
	if _, err := st.Submit(QuerySpec{Kind: 0}); err == nil {
		t.Error("Submit accepted kind 0")
	}
	if _, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: 0}); err == nil {
		t.Error("AddSchedule accepted zero period")
	}
	if _, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: time.Second, Jitter: 1.5}); err == nil {
		t.Error("AddSchedule accepted jitter >= 1")
	}
}
