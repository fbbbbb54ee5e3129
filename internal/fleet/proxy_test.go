package fleet

import (
	"bytes"
	"context"
	"encoding/json"
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

// proxyRig is two real aggd-shaped shard servers behind a Proxy — the
// -join topology, minus the processes.
type proxyRig struct {
	proxy  *httptest.Server
	shards []*station.Station
}

func newProxyRig(t *testing.T) *proxyRig {
	t.Helper()
	rig := &proxyRig{}
	targets := make([]string, 2)
	for i := range targets {
		st, err := station.New(station.Config{
			Workers:    1,
			QueueDepth: 8,
			IDPrefix:   []string{"s0-", "s1-"}[i],
			Deploy:     repro.Options{Nodes: 80, Seed: 7, Ideal: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.shards = append(rig.shards, st)
		srv := httptest.NewServer(station.NewAPI(st).Handler())
		t.Cleanup(srv.Close)
		targets[i] = srv.URL
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, st := range rig.shards {
			_ = st.Drain(ctx)
		}
	})
	p, err := NewProxy(targets, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rig.proxy = httptest.NewServer(p.Handler())
	t.Cleanup(rig.proxy.Close)
	return rig
}

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

func TestProxyRoutesAndResolves(t *testing.T) {
	rig := newProxyRig(t)

	// A sync query routes to one shard and comes back done.
	code, body := postJSON(t, rig.proxy.URL+"/v1/query", `{"kind":"sum"}`)
	if code != http.StatusOK {
		t.Fatalf("proxy query: %d %s", code, body)
	}
	var js station.JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.State != "done" || js.Answer == nil {
		t.Fatalf("proxy query status: %+v", js)
	}
	if !strings.HasPrefix(js.ID, "s0-") && !strings.HasPrefix(js.ID, "s1-") {
		t.Fatalf("proxy job ID %q lacks a shard prefix", js.ID)
	}

	// The identical query sticks to the same shard (deterministic routing).
	_, body2 := postJSON(t, rig.proxy.URL+"/v1/query", `{"kind":"sum"}`)
	var js2 station.JobStatus
	if err := json.Unmarshal(body2, &js2); err != nil {
		t.Fatal(err)
	}
	if js.ID[:3] != js2.ID[:3] {
		t.Errorf("identical queries routed to different shards: %s vs %s", js.ID, js2.ID)
	}

	// The job handle resolves back through the proxy, whichever shard owns it.
	resp, err := http.Get(rig.proxy.URL + "/v1/jobs/" + js.ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || polled.ID != js.ID {
		t.Fatalf("proxy job poll: %d %+v", resp.StatusCode, polled)
	}
	// And a bogus handle is a clean 404, not a hang.
	resp, err = http.Get(rig.proxy.URL + "/v1/jobs/s0-job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bogus job poll = %d, want 404", resp.StatusCode)
	}
}

func TestProxyFanoutAgrees(t *testing.T) {
	rig := newProxyRig(t)
	code, body := postJSON(t, rig.proxy.URL+"/v1/query", `{"kind":"sum","fanout":true}`)
	if code != http.StatusOK {
		t.Fatalf("proxy fanout: %d %s", code, body)
	}
	var fan struct {
		Jobs  []station.JobStatus `json:"jobs"`
		Agree bool                `json:"agree"`
	}
	if err := json.Unmarshal(body, &fan); err != nil {
		t.Fatal(err)
	}
	if len(fan.Jobs) != 2 || !fan.Agree {
		t.Fatalf("proxy fanout = %d jobs agree=%v, want 2 jobs agreeing", len(fan.Jobs), fan.Agree)
	}
	if *fan.Jobs[0].Answer != *fan.Jobs[1].Answer {
		t.Fatal("proxy fanout answers differ across shards")
	}
}

func TestProxyObservation(t *testing.T) {
	rig := newProxyRig(t)
	// Serve something first so the merged stats are non-trivial.
	postJSON(t, rig.proxy.URL+"/v1/query", `{"kind":"sum","fanout":true}`)

	resp, err := http.Get(rig.proxy.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz["shards_healthy"].(float64) != 2 {
		t.Fatalf("proxy healthz: %d %v", resp.StatusCode, hz)
	}

	// The proxy serves only its own transport telemetry; each shard
	// listener serves its own counters, scraped here directly.
	pm := scrapeURL(t, rig.proxy.URL)
	for _, target := range []string{"0", "1"} {
		if got := pm.Sum("agg_proxy_breaker_state", "target", target, "state", "closed"); got != 1 {
			t.Errorf("target %s breaker closed = %v, want 1", target, got)
		}
	}
	var completed, workers, txBytes float64
	for _, st := range rig.shards {
		var buf bytes.Buffer
		if err := st.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := telemetry.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		completed += m.Sum("agg_station_jobs_total", "outcome", "done")
		workers += m["agg_station_workers"]
		txBytes += m.Sum("agg_station_worker_traffic_total", "field", "tx_bytes")
	}
	if completed < 2 || workers != 2 {
		t.Errorf("shard series: completed=%v workers=%v", completed, workers)
	}
	if txBytes == 0 {
		t.Error("shard traffic is zero after served epochs")
	}
}

func TestProxySchedules(t *testing.T) {
	rig := newProxyRig(t)
	code, body := postJSON(t, rig.proxy.URL+"/v1/schedules", `{"kind":"sum","period_ms":3600000}`)
	if code != http.StatusCreated {
		t.Fatalf("proxy schedule add: %d %s", code, body)
	}
	var sc station.ScheduleStatus
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(rig.proxy.URL + "/v1/schedules")
	if err != nil {
		t.Fatal(err)
	}
	var list []station.ScheduleStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sc.ID {
		t.Fatalf("proxy schedule list: %+v, want just %s", list, sc.ID)
	}
	req, _ := http.NewRequest(http.MethodDelete, rig.proxy.URL+"/v1/schedules/"+sc.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("proxy schedule delete = %d, want 204", resp.StatusCode)
	}
}

func TestProxyShedsPast503(t *testing.T) {
	// Shard 0 always refuses with 503; the proxy must shed to shard 1 and
	// surface its success, not the refusal.
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	st, err := station.New(station.Config{
		Workers: 1, QueueDepth: 8, IDPrefix: "s1-",
		Deploy: repro.Options{Nodes: 80, Seed: 7, Ideal: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = st.Drain(ctx)
	}()
	healthy := httptest.NewServer(station.NewAPI(st).Handler())
	defer healthy.Close()

	p, err := NewProxy([]string{refusing.URL, healthy.URL}, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(p.Handler())
	defer proxy.Close()

	// Whatever the ring says, every seed must end up served by s1.
	for seed := 1; seed <= 4; seed++ {
		body := `{"kind":"sum","seed":` + string(rune('0'+seed)) + `}`
		code, out := postJSON(t, proxy.URL+"/v1/query", body)
		if code != http.StatusOK {
			t.Fatalf("seed %d: proxy = %d %s, want shed to healthy shard", seed, code, out)
		}
		var js station.JobStatus
		if err := json.Unmarshal(out, &js); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(js.ID, "s1-") {
			t.Fatalf("seed %d served by %s, want the healthy shard", seed, js.ID)
		}
	}
}

func TestProxyRejectsBadTargets(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{"not-a-url"},
		{"ftp://x"},
		{"http://"},
	} {
		if _, err := NewProxy(bad, ProxyOptions{}); err == nil {
			t.Errorf("NewProxy(%v) accepted invalid targets", bad)
		}
	}
}
