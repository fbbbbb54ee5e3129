package main

import (
	"encoding/json"
	"fmt"
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

// queryEveryShard posts sum queries over seeds 1, 2, … until every one of
// the daemon's shards has answered one — placement is deterministic in
// (kind, seed), and a job ID's "s<i>-" prefix names its shard — and
// returns how many queries it sent, each answered 200 and done.
func queryEveryShard(t *testing.T, addr string, shards int) int {
	t.Helper()
	seen := map[string]bool{}
	seed := 0
	for len(seen) < shards {
		if seed++; seed > 64 {
			t.Fatalf("64 seeds reached only shards %v", seen)
		}
		resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"kind":"sum","seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		var js station.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || js.State != "done" || len(js.ID) < 3 {
			t.Fatalf("seed %d query: %d %+v %v", seed, resp.StatusCode, js, err)
		}
		seen[js.ID[:3]] = true
	}
	return seed
}

// TestShardedFleetServesAndDrains boots aggd in -shards mode, proves the
// wire surface still serves (with plain queries reaching both shards),
// checks the per-shard /metricsz series, and drains on SIGTERM end to end.
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

	queryEveryShard(t, addr, 2)

	m := scrape(t, addr)
	for _, shard := range []string{"0", "1"} {
		if got := m.Sum("agg_station_workers", "shard", shard); got != 1 {
			t.Errorf("shard %s workers = %v, want 1", shard, got)
		}
		if got := m.Sum("agg_station_jobs_total", "shard", shard, "outcome", "done"); got < 1 {
			t.Errorf("shard %s done jobs = %v, want >= 1", shard, got)
		}
	}
	if got := m.Sum("agg_station_workers"); got != 2 {
		t.Errorf("fleet workers = %v, want 2", got)
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
