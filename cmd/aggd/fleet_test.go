package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
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

// TestSingleStationChaosRunsAsOneShardFleet: -chaos without -shards serves
// through a one-shard fleet, so the plan's shard-0 queue-full window is
// enforced at the fleet gate (503 with Retry-After while it is open) and
// job ids carry the fleet's s0- prefix once it closes.
func TestSingleStationChaosRunsAsOneShardFleet(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(`{"seed":7,"faults":[{"shard":0,"kind":"queue-full","at":0,"dwell":"300ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, errCh := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-chaos", plan, "-workers", "1", "-queue", "8",
		"-nodes", "80", "-seed", "7", "-ideal", "-draintimeout", "30s")
	armed := time.Now()
	query := func() (*http.Response, station.JobStatus) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"sum"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var status station.JobStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
				t.Fatal(err)
			}
		}
		return resp, status
	}

	resp, _ := query()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query inside the queue-full window = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	time.Sleep(time.Until(armed.Add(400 * time.Millisecond)))
	resp, status := query()
	if resp.StatusCode != http.StatusOK || status.State != "done" {
		t.Fatalf("query after the window = %d %+v, want 200 done", resp.StatusCode, status)
	}
	if !strings.HasPrefix(status.ID, "s0-") {
		t.Errorf("job id %q lacks the one-shard fleet's s0- prefix", status.ID)
	}

	drainAll(t, errCh)
}

// TestFleetFlagValidation: the topology flags reject nonsense the same way
// every other flag does — usage errors, not panics or misruns — and the
// retired -join proxy flag is unknown.
func TestFleetFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero shards", []string{"-shards", "0"}},
		{"negative shards", []string{"-shards", "-2"}},
		{"join is unknown", []string{"-join", "x"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := run(tc.args); err == nil || !cliutil.IsUsage(err) {
				t.Fatalf("want usage error, got %v", err)
			}
		})
	}
}
