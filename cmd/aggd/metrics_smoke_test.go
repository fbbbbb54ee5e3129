package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/station"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// postBody POSTs a JSON body and returns the status plus response headers.
func postBody(t *testing.T, url, body string) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// scrape pulls /metricsz and returns the parsed samples.
func scrape(t *testing.T, addr string) telemetry.Samples {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("/metricsz content type = %q", ct)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// TestMetricsSmoke is the `make metrics-smoke` gate: boot a sharded daemon
// with a trace sink, push a mixed-kind burst through it, and require that
// (1) /metricsz parses with the per-shard series dashboards key on,
// (2) counters are monotone across scrapes under live traffic,
// (3) the done jobs it counts equal the 200s the test itself received, and
// (4) after drain, the trace file reconstructs a plain query's span tree
// — request → job → admit/run/done — from the id the HTTP layer returned.
func TestMetricsSmoke(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "serve.jsonl")
	addr, errCh := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-shards", "2", "-workers", "1", "-queue", "16",
		"-nodes", "80", "-seed", "7", "-ideal", "-draintimeout", "30s",
		"-traceout", traceOut)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	served := 0 // jobs the client saw finish with a 200
	burst := func(n int) {
		rep, err := station.RunLoad(ctx, station.LoadConfig{
			BaseURL: "http://" + addr, Concurrency: 4, Requests: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors > 0 {
			t.Fatalf("burst errors: %+v", rep)
		}
		served += int(rep.Requests)
	}

	served += queryEveryShard(t, addr, 2)
	burst(30)
	first := scrape(t, addr)
	for _, key := range []string{
		`agg_station_jobs_total{shard="0",kind="sum",outcome="done"}`,
		`agg_station_jobs_total{shard="1",kind="sum",outcome="done"}`,
		`agg_station_queue_wait_seconds_count{shard="0"}`,
		`agg_station_run_seconds_count{shard="1"}`,
	} {
		if first[key] < 1 {
			t.Errorf("%s = %v, want >= 1", key, first[key])
		}
	}

	burst(30)
	second := scrape(t, addr)
	for key, v := range first {
		if strings.HasSuffix(strings.SplitN(key, "{", 2)[0], "_total") ||
			strings.Contains(key, "_count") || strings.Contains(key, "_sum") {
			if second[key] < v {
				t.Errorf("%s went backwards: %v -> %v", key, v, second[key])
			}
		}
	}

	// The exposition's done jobs, summed over shards and kinds, must be
	// exactly the jobs this client got 200s for.
	if done := scrape(t, addr).Sum("agg_station_jobs_total", "outcome", "done"); done != float64(served) {
		t.Errorf("metrics count %v done jobs, the client was served %d", done, served)
	}

	// One correlated plain query, id captured from the response header.
	code, hdr := postBody(t, "http://"+addr+"/v1/query", `{"kind":"max"}`)
	rid := hdr.Get(station.RequestIDHeader)
	if code != http.StatusOK || rid == "" {
		t.Fatalf("traced query: %d, request id %q", code, rid)
	}

	drainAll(t, errCh) // flushes the JSONL sink on the way out

	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var tree strings.Builder
	if err := trace.WriteRequestTree(&tree, events, rid); err != nil {
		t.Fatalf("span tree for %s: %v", rid, err)
	}
	for _, want := range []string{"request " + rid + ": 3 stages", "job s", "admit", "run", "done", "queue_wait="} {
		if !strings.Contains(tree.String(), want) {
			t.Errorf("span tree missing %q:\n%s", want, tree.String())
		}
	}
}
