package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/station"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestProxyHedgesSlowTarget is the hedging regression gate: with the
// p99 now read from the shared per-target histogram instead of the old
// private sample ring, a GET to a target that suddenly stalls must still
// fire a hedge after the learned delay and win with the fast second
// attempt.
func TestProxyHedgesSlowTarget(t *testing.T) {
	const stall = 750 * time.Millisecond
	var calls atomic.Int64
	slowFirst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall) // only the first in-flight GET stalls
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"s0-job-1","state":"done"}`)
	}))
	defer slowFirst.Close()

	p, err := NewProxy([]string{slowFirst.URL}, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	// Before the histogram has enough samples, the derived delay must be
	// zero: hedging on thin data hedges everything.
	if d := p.hedgeDelay(0); d != 0 {
		t.Fatalf("hedgeDelay with empty histogram = %v, want 0", d)
	}

	// Teach the target's latency instruments a fast baseline, as a warm
	// proxy would have learned from real traffic.
	for i := 0; i < hedgeMinSamples; i++ {
		p.metrics.observeLatency(0, 10*time.Millisecond)
	}
	if d := p.hedgeDelay(0); d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("hedgeDelay after warm-up = %v, want a small p99-derived delay", d)
	}

	start := time.Now()
	resp, err := p.get(0, "rid-hedge", "/v1/jobs/s0-job-1")
	took := time.Since(start)
	if err != nil || resp.status != http.StatusOK {
		t.Fatalf("hedged get: %v status=%v", err, resp)
	}
	if took >= stall {
		t.Fatalf("hedged get took %v, want well under the %v stall", took, stall)
	}
	if n := p.metrics.hedges[0].Value(); n != 1 {
		t.Errorf("hedges counter = %d, want 1", n)
	}
	if n := p.metrics.attempts[0].Value(); n < 2 {
		t.Errorf("attempts counter = %d, want both racing attempts counted", n)
	}
}

// TestHedgeDelayTracksRegimeChange pins the rolling-window property: a
// long fast history must not anchor the hedge delay. After the window
// fills with slow samples the delay follows the new regime, even though
// the slow samples are a tiny fraction of the lifetime total — the
// failure mode a cumulative p99 has (hedging every GET against a target
// that turned slow) and the one the old 64-sample ring never did.
func TestHedgeDelayTracksRegimeChange(t *testing.T) {
	p, err := NewProxy([]string{"http://127.0.0.1:1"}, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate long uptime: tens of thousands of fast exchanges.
	for i := 0; i < 50_000; i++ {
		p.metrics.observeLatency(0, 10*time.Millisecond)
	}
	if d := p.hedgeDelay(0); d > 100*time.Millisecond {
		t.Fatalf("hedgeDelay over fast history = %v, want fast", d)
	}
	// The target turns slow. Two window rotations of slow samples (<1% of
	// the lifetime count) must drag the hedge delay up to the new regime.
	for i := 0; i < 2*hedgeWindow; i++ {
		p.metrics.observeLatency(0, 500*time.Millisecond)
	}
	if d := p.hedgeDelay(0); d < 400*time.Millisecond {
		t.Fatalf("hedgeDelay after regime change = %v, want ~500ms: the window "+
			"must forget the fast history", d)
	}
	// The cumulative exposition histogram keeps the lifetime view.
	if got := p.metrics.lat[0].Count(); got != 50_000+2*hedgeWindow {
		t.Fatalf("cumulative histogram count = %d, want all samples", got)
	}
}

// TestProxyMetricsExposition scrapes the proxy's /metricsz after real
// traffic and checks the exposition parses with the per-target series a
// dashboard keys on — and that the correlation id assigned at the proxy
// comes back on both the response header and the job status.
func TestProxyMetricsExposition(t *testing.T) {
	rig := newProxyRig(t)

	resp, err := http.Post(rig.proxy.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	rid := resp.Header.Get(station.RequestIDHeader)
	var js station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid == "" {
		t.Fatal("proxy response carries no X-Agg-Request-Id")
	}
	if js.RequestID != rid {
		t.Errorf("job status request_id %q != response header id %q", js.RequestID, rid)
	}

	resp, err = http.Get(rig.proxy.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("metricsz content type = %q", ct)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("proxy exposition does not parse: %v", err)
	}
	attempts := samples[`agg_proxy_attempts_total{target="0"}`] +
		samples[`agg_proxy_attempts_total{target="1"}`]
	if attempts < 1 {
		t.Errorf("no per-target attempts recorded: %v", samples)
	}
	for _, target := range []string{"0", "1"} {
		key := fmt.Sprintf(`agg_proxy_breaker_state{target=%q,state="closed"}`, target)
		if samples[key] != 1 {
			t.Errorf("%s = %v, want 1 (healthy targets stay closed)", key, samples[key])
		}
	}
	if samples["agg_proxy_availability_ratio"] != 1 {
		t.Errorf("availability = %v after all-success traffic, want 1",
			samples["agg_proxy_availability_ratio"])
	}
}

// scrapeFleet renders the fleet's /metricsz body and parses it back.
func scrapeFleet(t *testing.T, f *Fleet) telemetry.Samples {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	samples, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatalf("fleet exposition does not parse: %v", err)
	}
	return samples
}

// scrapeURL GETs and parses one listener's /metricsz.
func scrapeURL(t *testing.T, base string) telemetry.Samples {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metricsz: %d", base, resp.StatusCode)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("%s/metricsz does not parse: %v", base, err)
	}
	return samples
}

// TestFleetMetricsShardLabels drives a fleet, renders WriteMetrics, and
// checks that each shard's station registry appears under its own
// shard="i" label and counts exactly the fan-out jobs the test saw finish.
func TestFleetMetricsShardLabels(t *testing.T) {
	f := newFleet(t, testConfig(2, 1, 8))

	jobs, missing, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, false)
	if err != nil || len(missing) != 0 {
		t.Fatalf("SubmitAll: %v missing=%v", err, missing)
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	samples := scrapeFleet(t, f)
	var doneFromMetrics float64
	for shard := 0; shard < 2; shard++ {
		key := fmt.Sprintf(`agg_station_jobs_total{shard="%d",kind="sum",outcome="done"}`, shard)
		if samples[key] != 1 {
			t.Errorf("%s = %v, want exactly the fan-out job", key, samples[key])
		}
		doneFromMetrics += samples[key]
		state := fmt.Sprintf(`agg_fleet_shard_state{shard="%d",state="healthy"}`, shard)
		if samples[state] != 1 {
			t.Errorf("%s = %v, want 1", state, samples[state])
		}
	}
	if want := float64(len(jobs)); doneFromMetrics != want {
		t.Errorf("metrics count %v done jobs, the fan-out finished %v", doneFromMetrics, want)
	}
	if samples["agg_fleet_availability_ratio"] != 1 {
		t.Errorf("fleet availability = %v, want 1", samples["agg_fleet_availability_ratio"])
	}
}

// seriesRow pairs one field of the retired JSON stats endpoint with the
// /metricsz reading that replaces it and the value the test drove.
type seriesRow struct {
	field     string
	got, want float64
}

func checkRows(t *testing.T, rows []seriesRow) {
	t.Helper()
	for _, r := range rows {
		if r.got != r.want {
			t.Errorf("%s: /metricsz reads %v, want %v", r.field, r.got, r.want)
		}
	}
}

// TestNoSeriesLost is the one-metrics-surface gate. Every field the
// retired JSON stats endpoint served — station pool shape, admission,
// outcomes, protocol events, per-worker rounds and traffic, trace counts,
// fleet shed/reject/restart/degraded, proxy breakers — must have a
// /metricsz series, and each series must read exactly what this test
// drove through a single station, a proxy and a 2-shard fleet.
func TestNoSeriesLost(t *testing.T) {
	deploy := repro.Options{Nodes: 80, Seed: 7, Ideal: true}
	parked, release := make(chan struct{}), make(chan struct{})
	st, err := station.New(station.Config{
		Workers: 1, QueueDepth: 1, TraceStats: true, Deploy: deploy,
		RunningHook: func(j *station.Job) {
			switch j.RequestID() {
			case "cancel":
				j.Cancel() // mid-epoch: the epoch runs, its answer is dropped
			case "park":
				parked <- struct{}{}
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Drain(context.Background()) })

	// ran lists the epochs the worker executed, as seeds of one kind each;
	// answers holds the done jobs' results.
	ran := map[int64]repro.QueryKind{}
	var answers []repro.QueryAnswer
	submit := func(kind repro.QueryKind, seed int64, rid string, timeout time.Duration) *station.Job {
		t.Helper()
		job, err := st.Submit(station.QuerySpec{Kind: kind, Seed: seed, SeedSet: true, RequestID: rid, Timeout: timeout})
		if err != nil {
			t.Fatalf("submit %s: %v", rid, err)
		}
		return job
	}
	done := func(job *station.Job) {
		t.Helper()
		ans, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %s: %v", job.ID(), err)
		}
		ran[job.Seed()] = job.Status().Answer.Kind
		answers = append(answers, ans)
	}
	for i, kind := range []repro.QueryKind{repro.QuerySum, repro.QueryCount, repro.QueryMax} {
		done(submit(kind, int64(10+i), "", 0))
	}
	if _, err := submit(repro.QueryVariance, 20, "cancel", 0).Wait(context.Background()); err == nil {
		t.Fatal("canceled job reported success")
	}
	ran[20] = repro.QueryVariance
	if _, err := submit(repro.QuerySum, 21, "", time.Nanosecond).Wait(context.Background()); err == nil {
		t.Fatal("expired job reported success")
	}
	// Park the only worker, fill the depth-1 queue, and get refused.
	parkedJob := submit(repro.QueryMin, 30, "park", 0)
	<-parked
	queued := submit(repro.QueryAverage, 31, "", 0)
	if _, err := st.Submit(station.QuerySpec{Kind: repro.QuerySum}); !errors.Is(err, station.ErrQueueFull) {
		t.Fatalf("submit to a full queue = %v, want ErrQueueFull", err)
	}
	close(release)
	done(parkedJob)
	done(queued)

	// One query through a proxy, so its breaker series have traffic.
	srv := httptest.NewServer(station.NewAPI(st).Handler())
	t.Cleanup(srv.Close)
	p, err := NewProxy([]string{srv.URL}, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(p.Handler())
	t.Cleanup(psrv.Close)
	code, body := postJSON(t, psrv.URL+"/v1/query", `{"kind":"sum","seed":40}`)
	var proxied station.JobStatus
	if err := json.Unmarshal(body, &proxied); code != http.StatusOK || err != nil || proxied.Answer == nil {
		t.Fatalf("proxied query: %d %s", code, body)
	}
	ran[40] = repro.QuerySum
	answers = append(answers, *proxied.Answer)

	// Offline truth for the worker-side series: the same epochs on one
	// deployment, counting into its own registry. Traffic fields are keyed
	// by repro.Traffic's JSON names — the former worker_stats.traffic keys.
	offReg := telemetry.NewRegistry()
	dep, err := repro.NewDeployment(deploy)
	if err != nil {
		t.Fatal(err)
	}
	dep.TraceCounts(offReg)
	traffic := map[string]float64{}
	for seed, kind := range ran {
		if err := dep.Reset(seed); err != nil {
			t.Fatal(err)
		}
		if _, err := dep.RunQuery(kind, repro.ClusterOptions{}); err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(dep.Traffic())
		var fields map[string]float64
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for k, v := range fields {
			traffic[k] += v
		}
	}
	var alarms, rejected, degraded, failed, takeovers, promotions float64
	for _, a := range answers {
		alarms += float64(a.Alarms())
		if !a.Accepted {
			rejected++
		}
		degraded += float64(a.Round.DegradedClusters)
		failed += float64(a.Round.FailedClusters)
		takeovers += float64(a.Round.Takeovers)
		promotions += float64(a.Round.Promotions)
	}

	m := scrapeURL(t, srv.URL)
	event := func(e string) float64 { return m.Sum("agg_station_protocol_total", "event", e) }
	rows := []seriesRow{
		{"workers", m["agg_station_workers"], 1},
		{"queue_len", m["agg_station_queue_depth"], 0},
		{"queue_cap", m["agg_station_queue_capacity"], 1},
		{"draining", m["agg_station_draining"], 0},
		{"accepted", m.Sum("agg_station_submitted_total", "result", "accepted"), 8},
		{"rejected", m.Sum("agg_station_submitted_total", "result", "rejected"), 1},
		{"completed", m.Sum("agg_station_jobs_total", "outcome", "done"), 6},
		{"failed", m.Sum("agg_station_jobs_total", "outcome", "failed"), 1},
		{"canceled", m.Sum("agg_station_jobs_total", "outcome", "canceled"), 1},
		{"alarms", event("alarm"), alarms},
		{"integrity_rejected", event("integrity_rejected"), rejected},
		{"degraded_clusters", event("degraded_cluster"), degraded},
		{"failed_clusters", event("failed_cluster"), failed},
		{"takeovers", event("takeover"), takeovers},
		{"promotions", event("promotion"), promotions},
		{"worker_stats.rounds", m.Sum("agg_station_worker_rounds_total", "worker", "0"), float64(len(ran))},
		{"breakers", scrapeURL(t, psrv.URL)[`agg_proxy_breaker_state{target="0",state="closed"}`], 1},
	}
	if len(traffic) != 7 {
		t.Fatalf("traffic fields = %v, want repro.Traffic's 7", traffic)
	}
	for field, want := range traffic {
		rows = append(rows, seriesRow{"worker_stats.traffic." + field,
			m.Sum("agg_station_worker_traffic_total", "worker", "0", "field", field), want})
	}
	var off bytes.Buffer
	if err := offReg.WritePrometheus(&off); err != nil {
		t.Fatal(err)
	}
	offline, err := telemetry.ParseText(&off)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Sum("agg_trace_events_total") == 0 || offline["agg_trace_round"] == 0 || offline["agg_trace_sim_time_ns"] == 0 {
		t.Fatalf("offline trace counts are empty: %v", offline)
	}
	for key, want := range offline {
		rows = append(rows, seriesRow{"trace " + key, m[key], want})
	}
	checkRows(t, rows)
	if err := st.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkRows(t, []seriesRow{{"draining after Drain", scrapeURL(t, srv.URL)["agg_station_draining"], 1}})

	t.Run("fleet", func(t *testing.T) {
		f := newFleet(t, testConfig(2, 1, 8))
		perShard := map[string]float64{}
		finish := func(jobs ...*station.Job) {
			t.Helper()
			for _, j := range jobs {
				if _, err := j.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
				perShard[j.ID()[:2]]++ // "s0", "s1"
			}
		}
		jobs, _, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, false)
		if err != nil {
			t.Fatal(err)
		}
		finish(jobs...)
		// A down owner sheds to its successor.
		spec := station.QuerySpec{Kind: repro.QueryCount}
		f.slots[f.Owner(spec)].setState(trace.ShardDown)
		job, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		finish(job)
		// A partial fan-out past the down shard degrades.
		jobs, missing, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, true)
		if err != nil || len(missing) != 1 {
			t.Fatalf("partial fan-out: %v missing=%v", err, missing)
		}
		finish(jobs...)
		// With every shard down the fleet composes one rejection, and one
		// supervisor tick restarts each shard.
		for _, sl := range f.slots {
			sl.setState(trace.ShardDown)
		}
		if _, err := f.Submit(spec); !errors.Is(err, station.ErrUnavailable) {
			t.Fatalf("submit to a downed fleet = %v, want ErrUnavailable", err)
		}
		for _, sl := range f.slots {
			f.superviseSlot(sl, &supSlot{})
			sl.setState(trace.ShardHealthy)
		}

		fm := scrapeFleet(t, f)
		checkRows(t, []seriesRow{
			{"shed", fm["agg_fleet_shed_total"], 1},
			{"rejected", fm["agg_fleet_rejected_total"], 1},
			{"restarts", fm["agg_fleet_restarts_total"], 2},
			{"degraded", fm["agg_fleet_degraded_total"], 1},
			{"merged.workers", fm.Sum("agg_station_workers"), 2},
			{"merged.completed", fm.Sum("agg_station_jobs_total", "outcome", "done"), 4},
			{"per_shard[0].completed", fm.Sum("agg_station_jobs_total", "shard", "0", "outcome", "done"), perShard["s0"]},
			{"per_shard[1].completed", fm.Sum("agg_station_jobs_total", "shard", "1", "outcome", "done"), perShard["s1"]},
		})
	})
}
