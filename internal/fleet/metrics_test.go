package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/station"
	"repro/internal/telemetry"
)

// postJSON POSTs body to url and returns the status and response body.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
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
// fleet shed/reject/degraded — must have a /metricsz series, and
// each series must read exactly what this test drove through a single
// station and a 2-shard fleet.
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

	// One query over HTTP, so the served path counts too.
	srv := httptest.NewServer(station.NewAPI(st).Handler())
	t.Cleanup(srv.Close)
	code, body := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","seed":40}`)
	var served station.JobStatus
	if err := json.Unmarshal(body, &served); code != http.StatusOK || err != nil || served.Answer == nil {
		t.Fatalf("served query: %d %s", code, body)
	}
	ran[40] = repro.QuerySum
	answers = append(answers, *served.Answer)

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
		// A drained owner sheds to its successor.
		spec := station.QuerySpec{Kind: repro.QueryCount}
		drainShard(t, f, f.Owner(spec))
		job, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		finish(job)
		// A partial fan-out past the drained shard degrades.
		jobs, missing, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, true)
		if err != nil || len(missing) != 1 {
			t.Fatalf("partial fan-out: %v missing=%v", err, missing)
		}
		finish(jobs...)
		// With every shard drained the fleet composes one rejection.
		drainShard(t, f, 1-f.Owner(spec))
		if _, err := f.Submit(spec); !errors.Is(err, station.ErrDraining) {
			t.Fatalf("submit to a drained fleet = %v, want ErrDraining", err)
		}

		fm := scrapeFleet(t, f)
		checkRows(t, []seriesRow{
			{"shed", fm["agg_fleet_shed_total"], 1},
			{"rejected", fm["agg_fleet_rejected_total"], 1},
			{"degraded", fm["agg_fleet_degraded_total"], 1},
			{"merged.workers", fm.Sum("agg_station_workers"), 2},
			{"merged.completed", fm.Sum("agg_station_jobs_total", "outcome", "done"), 4},
			{"per_shard[0].completed", fm.Sum("agg_station_jobs_total", "shard", "0", "outcome", "done"), perShard["s0"]},
			{"per_shard[1].completed", fm.Sum("agg_station_jobs_total", "shard", "1", "outcome", "done"), perShard["s1"]},
		})
	})
}
