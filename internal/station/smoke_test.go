package station

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestServiceSmoke is the `make service-smoke` gate: boot the serving
// stack cmd/aggd runs (station pool + HTTP API) on an ephemeral port,
// verify the served SUM answer is bit-identical to the same deployment's
// offline RunQuery result, then drive a concurrent mixed-kind aggload
// burst through a >= 4-worker pool and require zero errors. Run under
// -race, it also proves the pool keeps the non-concurrency-safe
// Deployments serialized at service load.
func TestServiceSmoke(t *testing.T) {
	cfg := Config{
		Workers:    4,
		QueueDepth: 16,
		Deploy:     repro.Options{Nodes: 120, Seed: 11, Ideal: true},
	}
	st := newStation(t, cfg)
	srv := httptest.NewServer(NewAPI(st).Handler())
	t.Cleanup(srv.Close)

	// Offline ground truth: the exact same deployment, run directly.
	dep, err := repro.NewDeployment(cfg.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	var served JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || served.Answer == nil {
		t.Fatalf("served query: status %d, %+v", resp.StatusCode, served)
	}
	if served.Answer.Value != want.Value || served.Answer.Truth != want.Truth {
		t.Fatalf("served SUM %v/%v != offline RunQuery %v/%v",
			served.Answer.Value, served.Answer.Truth, want.Value, want.Truth)
	}
	if served.Answer.Accepted != want.Accepted {
		t.Fatalf("served verdict %v != offline %v", served.Answer.Accepted, want.Accepted)
	}

	// Concurrent mixed-kind burst: every request must succeed (503
	// backpressure retries are allowed; errors are not).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadConfig{
		BaseURL:     srv.URL,
		Concurrency: 6,
		Requests:    42,
		Kinds:       AllQueryKinds(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load burst: %d errors (samples %v)", rep.Errors, rep.ErrSamples)
	}
	if rep.Requests != 42 {
		t.Fatalf("load burst completed %d/42 requests", rep.Requests)
	}
	if len(rep.ByKind) != len(AllQueryKinds()) {
		t.Errorf("burst did not mix kinds: %v", rep.ByKind)
	}
	if rep.Throughput <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("implausible latency stats: %+v", rep)
	}

	// The report must round-trip into a benchio snapshot.
	snap := rep.Snapshot("2026-08-05", runtime.Version(), "smoke")
	for _, name := range []string{
		"BenchmarkServeLatency/mean", "BenchmarkServeLatency/p50",
		"BenchmarkServeLatency/p95", "BenchmarkServeLatency/p99",
		"BenchmarkServeThroughput",
	} {
		if m, ok := snap.Benchmarks[name]; !ok || m.NsPerOp <= 0 {
			t.Errorf("snapshot missing %s: %+v", name, m)
		}
	}

	m := scrape(t, st)
	if done := jobs(m, "done"); done < 43 { // 1 smoke query + 42 burst requests
		t.Errorf("completed = %v, want >= 43", done)
	}
	for w := 0; w < cfg.Workers; w++ {
		if workerRounds(m, w) == 0 {
			t.Errorf("worker %d served nothing — pool not spreading load", w)
		}
	}
}
