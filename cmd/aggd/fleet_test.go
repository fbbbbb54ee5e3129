package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/station"
)

// bootDaemon starts run(args) and returns its listen address plus the
// channel its exit error will land on. Daemons started this way all drain
// together on one SIGTERM to the test process.
func bootDaemon(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	prev := listening
	listening = func(addr string) { addrCh <- addr }
	defer func() { listening = prev }()
	errCh := make(chan error, 1)
	go func() {
		_, err := run(args)
		errCh <- err
	}()
	select {
	case addr := <-addrCh:
		return addr, errCh
	case err := <-errCh:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}
	panic("unreachable")
}

func drainAll(t *testing.T, errChs ...chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, ch := range errChs {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("run after SIGTERM: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a daemon did not drain and exit after SIGTERM")
		}
	}
}

// TestShardedFleetServesAndDrains boots aggd in -shards mode, proves the
// wire surface still serves (including a fleet-spanning fanout that must
// agree across shards), checks the per-shard /metricsz series, and drains
// on SIGTERM end to end.
func TestShardedFleetServesAndDrains(t *testing.T) {
	addr, errCh := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-shards", "2", "-workers", "1", "-queue", "8",
		"-nodes", "80", "-seed", "7", "-ideal", "-draintimeout", "30s")

	resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	var status station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status.State != "done" || status.Answer == nil {
		t.Fatalf("fleet query: status %d, %+v", resp.StatusCode, status)
	}
	if !strings.HasPrefix(status.ID, "s") {
		t.Errorf("fleet job ID %q lacks a shard prefix", status.ID)
	}

	resp, err = http.Post("http://"+addr+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum","fanout":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var fan struct {
		Jobs  []station.JobStatus `json:"jobs"`
		Agree bool                `json:"agree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fan.Jobs) != 2 || !fan.Agree {
		t.Fatalf("fanout across the daemon fleet: %d jobs agree=%v", len(fan.Jobs), fan.Agree)
	}

	m := scrape(t, addr)
	for _, shard := range []string{"0", "1"} {
		if got := m.Sum("agg_station_workers", "shard", shard); got != 1 {
			t.Errorf("shard %s workers = %v, want 1", shard, got)
		}
	}
	if got := m.Sum("agg_station_workers"); got != 2 {
		t.Errorf("fleet workers = %v, want 2", got)
	}

	drainAll(t, errCh)
}

// TestJoinProxyCoordinatesRemoteShards boots two shard daemons with
// distinct ID prefixes plus a -join coordinator over them, and proves a
// query through the proxy is served by a real shard, the proxy's breakers
// read closed on its /metricsz, and the shards' own /metricsz count the
// served job.
func TestJoinProxyCoordinatesRemoteShards(t *testing.T) {
	s0, err0 := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-idprefix", "s0-", "-workers", "1", "-queue", "8",
		"-nodes", "80", "-seed", "7", "-ideal", "-draintimeout", "30s")
	s1, err1 := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-idprefix", "s1-", "-workers", "1", "-queue", "8",
		"-nodes", "80", "-seed", "7", "-ideal", "-draintimeout", "30s")
	proxy, errp := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-join", "http://"+s0+",http://"+s1,
		"-draintimeout", "30s")

	resp, err := http.Post("http://"+proxy+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	var status station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status.State != "done" || status.Answer == nil {
		t.Fatalf("proxied query: status %d, %+v", resp.StatusCode, status)
	}
	if !strings.HasPrefix(status.ID, "s0-") && !strings.HasPrefix(status.ID, "s1-") {
		t.Errorf("proxied job ID %q lacks its shard's prefix", status.ID)
	}
	// The handle resolves back through the proxy.
	resp, err = http.Get("http://" + proxy + "/v1/jobs/" + status.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("proxied job poll = %d, want 200", resp.StatusCode)
	}

	pm := scrape(t, proxy)
	for _, target := range []string{"0", "1"} {
		if got := pm.Sum("agg_proxy_breaker_state", "target", target, "state", "closed"); got != 1 {
			t.Errorf("proxy target %s breaker closed = %v, want 1", target, got)
		}
	}
	completed := scrape(t, s0).Sum("agg_station_jobs_total", "outcome", "done") +
		scrape(t, s1).Sum("agg_station_jobs_total", "outcome", "done")
	if completed < 1 {
		t.Errorf("shards count %v done jobs after a proxied query", completed)
	}

	drainAll(t, err0, err1, errp)
}

// TestFleetFlagValidation: the new topology flags reject nonsense the same
// way every other flag does — usage errors, not panics or misruns.
func TestFleetFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero shards", []string{"-shards", "0"}},
		{"negative shards", []string{"-shards", "-2"}},
		{"join plus shards", []string{"-join", "http://x:1", "-shards", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := run(tc.args); err == nil || !cliutil.IsUsage(err) {
				t.Fatalf("want usage error, got %v", err)
			}
		})
	}
	// A malformed -join URL is a config error surfaced by the proxy builder.
	if _, err := run([]string{"-join", "not-a-url"}); err == nil {
		t.Fatal("malformed -join target accepted")
	}
}
