package station

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestMetricszScrape serves real traffic and scrapes /metricsz: the
// exposition must parse, and the series a dashboard keys on — per-kind
// outcomes, queue-wait and run histograms, worker/queue gauges — must
// reflect the traffic just served.
func TestMetricszScrape(t *testing.T) {
	_, srv := newTestServer(t, testConfig(2, 8))

	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}
	rid := resp.Header.Get(RequestIDHeader)
	if rid == "" {
		t.Fatal("response carries no X-Agg-Request-Id")
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	if js.RequestID != rid {
		t.Errorf("job request_id %q != response header %q", js.RequestID, rid)
	}
	if js.QueueWaitMs < 0 {
		t.Errorf("queue_wait_ms = %v, want >= 0", js.QueueWaitMs)
	}

	mresp, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.ContentType)
	}
	samples, err := telemetry.ParseText(mresp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	checks := map[string]float64{
		`agg_station_jobs_total{kind="sum",outcome="done"}`: 1,
		`agg_station_queue_wait_seconds_count`:              1,
		`agg_station_run_seconds_count`:                     1,
		`agg_station_submitted_total{result="accepted"}`:    1,
		`agg_station_workers`:                               2,
	}
	for key, min := range checks {
		if samples[key] < min {
			t.Errorf("%s = %v, want >= %v", key, samples[key], min)
		}
	}
	// The histogram-recorded queue wait and the JSON field tell one story:
	// both are pinned at pickup, so the serve-path sum must cover the job's
	// (to within a nanosecond: the sum round-trips through text exposition).
	if sum := samples["agg_station_queue_wait_seconds_sum"]; sum*1000 < js.QueueWaitMs-1e-6 {
		t.Errorf("histogram queue-wait sum %vs < job's own %vms", sum, js.QueueWaitMs)
	}
}

// TestRequestLifecycleTrace drives one correlated request through a traced
// station and checks the serve-stage events reconstruct into a span tree
// keyed by the id the HTTP layer assigned.
func TestRequestLifecycleTrace(t *testing.T) {
	sink := &trace.Collector{}
	cfg := testConfig(2, 8)
	cfg.Trace = sink
	_, srv := newTestServer(t, cfg)

	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}
	rid := resp.Header.Get(RequestIDHeader)

	// The done stage is emitted by the worker after the HTTP response
	// unblocks; give the pipeline a moment to settle.
	var events []trace.Event
	deadline := time.Now().Add(5 * time.Second)
	for {
		events = trace.RequestEvents(sink.Events(), rid)
		if len(events) >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	stages := make(map[string]bool)
	for _, ev := range events {
		stages[ev.Cause] = true
		if ev.Phase != trace.PhaseServe || ev.Type != trace.TypeRequest {
			t.Errorf("event %+v not a serve/request event", ev)
		}
	}
	for _, want := range []string{trace.StageAdmit, trace.StageRun, trace.StageDone} {
		if !stages[want] {
			t.Errorf("stage %q missing from trace (have %v)", want, stages)
		}
	}

	if len(events) < 2 || events[1].Cause != trace.StageRun {
		t.Fatalf("second stage is not the run: %+v", events)
	}
	if wait, ok := trace.Token(events[1].Detail, "queue_wait"); !ok || wait == "" {
		t.Errorf("run stage lacks queue_wait timing: %q", events[1].Detail)
	}
}

// stallAdmitSink records events like a Collector, but holds every admit
// event for 100 ms first: a worker that could pick the job up before its
// admit is recorded would trace the run stage ahead of it.
type stallAdmitSink struct{ trace.Collector }

func (s *stallAdmitSink) Emit(ev trace.Event) {
	if ev.Cause == trace.StageAdmit {
		time.Sleep(100 * time.Millisecond)
	}
	s.Collector.Emit(ev)
}

// TestAdmitTracedBeforeRun: however slow the sink, every job's stages are
// recorded, and time-stamped, admit → run → done, because Submit traces
// the admit before it hands the job to the queue.
func TestAdmitTracedBeforeRun(t *testing.T) {
	sink := &stallAdmitSink{}
	cfg := testConfig(2, 8)
	cfg.Trace = sink
	st := newStation(t, cfg)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := st.Submit(QuerySpec{Kind: repro.QueryCount})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", job.ID(), err)
		}
	}
	want := []string{trace.StageAdmit, trace.StageRun, trace.StageDone}
	stages := func(evs []trace.Event, id string) []string {
		var out []string
		for _, ev := range evs {
			if job, _ := trace.Token(ev.Detail, "job"); job == id {
				out = append(out, ev.Cause)
			}
		}
		return out
	}
	for _, job := range jobs {
		// The worker traces done after it releases the job's waiters.
		var recorded []string
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			if recorded = stages(sink.Events(), job.ID()); len(recorded) >= len(want) || time.Now().After(deadline) {
				break
			}
		}
		if !slices.Equal(recorded, want) {
			t.Errorf("%s: recorded stages %v, want %v", job.ID(), recorded, want)
		}
		if got := stages(trace.RequestEvents(sink.Events(), job.RequestID()), job.ID()); !slices.Equal(got, want) {
			t.Errorf("%s: stages in time order %v, want %v", job.ID(), got, want)
		}
	}
}

// TestSpoofedRequestIDIsReplaced: an inbound X-Agg-Request-Id is never
// trusted. A client that sends "a job=s9-job-1" must get a freshly minted
// 16-hex id back, and the job's serve events must carry that id and the
// job's own job= token, so the spoofed text cannot reassign the span.
func TestSpoofedRequestIDIsReplaced(t *testing.T) {
	sink := &trace.Collector{}
	cfg := testConfig(1, 8)
	cfg.Trace = sink
	_, srv := newTestServer(t, cfg)

	const spoof = "a job=s9-job-1"
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query", strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, spoof)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var js JobStatus
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("query: %d %v", resp.StatusCode, err)
	}
	rid := resp.Header.Get(RequestIDHeader)
	if len(rid) != 16 || strings.Trim(rid, "0123456789abcdef") != "" {
		t.Fatalf("response request id = %q, want a fresh 16-hex id", rid)
	}
	if js.RequestID != rid {
		t.Errorf("job request_id %q != response header %q", js.RequestID, rid)
	}

	var events []trace.Event
	deadline := time.Now().Add(5 * time.Second)
	for {
		events = trace.RequestEvents(sink.Events(), rid)
		if len(events) >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(events) < 3 {
		t.Fatalf("got %d serve events for %s, want admit, run and done", len(events), rid)
	}
	for _, ev := range events {
		if got, _ := trace.Token(ev.Detail, "req"); got != rid {
			t.Errorf("event %q: req=%q, want %q", ev.Detail, got, rid)
		}
		if got, _ := trace.Token(ev.Detail, "job"); got != js.ID {
			t.Errorf("event %q: job=%q, want the job's own %q", ev.Detail, got, js.ID)
		}
	}
	for _, ev := range sink.Events() {
		if strings.Contains(ev.Detail, "s9-job-1") {
			t.Errorf("spoofed header text reached the trace: %q", ev.Detail)
		}
	}
}

// TestKindOutcomeCounters checks the per-kind/outcome matrix: a served
// query and a canceled one land in different cells.
func TestKindOutcomeCounters(t *testing.T) {
	st := newStation(t, testConfig(1, 4))
	job, err := st.Submit(QuerySpec{Kind: repro.QueryMin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	started, release := blockWorkers(st)
	blocker, err := st.Submit(QuerySpec{Kind: repro.QuerySum})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is parked on blocker
	queued, err := st.Submit(QuerySpec{Kind: repro.QueryMax})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel() // canceled while still queued
	<-queued.Done()
	close(release)
	if _, err := blocker.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := queued.State(); got != JobCanceled {
		t.Fatalf("queued job state = %v, want canceled", got)
	}

	m := st.metrics
	if got := m.jobs[int(repro.QueryMin)][outcomeDone].Value(); got != 1 {
		t.Errorf("min/done = %d, want 1", got)
	}
	if got := m.jobs[int(repro.QueryMax)][outcomeCanceled].Value(); got != 1 {
		t.Errorf("max/canceled = %d, want 1", got)
	}
}
