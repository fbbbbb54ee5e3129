package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/station"
)

// TestServeQueryAndGracefulSIGTERM boots the real daemon loop on an
// ephemeral port, serves a query over HTTP, then delivers SIGTERM to the
// process and requires run() to drain and return cleanly — the end-to-end
// drain-on-SIGTERM path.
func TestServeQueryAndGracefulSIGTERM(t *testing.T) {
	addrCh := make(chan string, 1)
	listening = func(addr string) { addrCh <- addr }
	defer func() { listening = nil }()

	errCh := make(chan error, 1)
	go func() {
		_, err := run([]string{
			"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8",
			"-nodes", "80", "-seed", "7", "-ideal",
			"-draintimeout", "30s",
		})
		errCh <- err
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}

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
		t.Fatalf("served query: status %d, %+v", resp.StatusCode, status)
	}
	dep, err := repro.NewDeployment(repro.Options{Nodes: 80, Seed: 7, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if status.Answer.Value != want.Value || status.Answer.Truth != want.Truth {
		t.Errorf("served SUM %v/%v != offline %v/%v",
			status.Answer.Value, status.Answer.Truth, want.Value, want.Truth)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain and exit after SIGTERM")
	}
}

// TestBadFlagsAreUsageErrors sweeps nonsensical invocations: every one must
// come back as a usage error (exit code 2 via cliutil.Exit), never a panic
// or a silent misrun.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative workers", []string{"-workers", "-1"}},
		{"zero workers", []string{"-workers", "0"}},
		{"zero queue", []string{"-queue", "0"}},
		{"zero keepjobs", []string{"-keepjobs", "0"}},
		{"one node", []string{"-nodes", "1"}},
		{"negative nodes", []string{"-nodes", "-5"}},
		{"zero field", []string{"-field", "0"}},
		{"negative range", []string{"-range", "-50"}},
		{"loss of 1", []string{"-loss", "1"}},
		{"negative loss", []string{"-loss", "-0.1"}},
		{"negative timeout", []string{"-timeout", "-1s"}},
		{"zero draintimeout", []string{"-draintimeout", "0s"}},
		{"bad port", []string{"-addr", "localhost:99999"}},
		{"no port", []string{"-addr", "localhost"}},
		{"bad observe addr", []string{"-observe", "nope"}},
		{"positional junk", []string{"extra", "args"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := run(tc.args)
			if err == nil {
				t.Fatal("bad flags accepted")
			}
			if !cliutil.IsUsage(err) {
				t.Fatalf("want usage error (exit 2), got %T: %v", err, err)
			}
			if fs == nil {
				t.Fatal("no flag set returned for usage message")
			}
		})
	}
}

// TestFlagParseErrorsExitTwo: malformed flag syntax is rejected by the flag
// package itself; cliutil.Parse must still map it to a usage error (exit 2).
func TestFlagParseErrorsExitTwo(t *testing.T) {
	_, err := run([]string{"-workers", "lots"})
	if err == nil {
		t.Fatal("malformed flag accepted")
	}
	if !cliutil.IsUsage(err) {
		t.Fatalf("want usage error, got %T: %v", err, err)
	}
	if !strings.Contains(fmt.Sprint(err), "invalid value") {
		t.Fatalf("unexpected parse error: %v", err)
	}
}

// TestSlowHeaderClientIsCutOff: a client that opens a connection and
// dribbles an unfinished request header must be disconnected once
// station.ReadHeaderTimeout lapses, an oversized header must be refused,
// and neither may stop a well-behaved query from being served meanwhile.
func TestSlowHeaderClientIsCutOff(t *testing.T) {
	addr, errCh := bootDaemon(t,
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "8",
		"-nodes", "80", "-seed", "7", "-ideal", "-draintimeout", "30s")

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: aggd\r\n"); err != nil {
		t.Fatal(err)
	}

	status, _ := postBody(t, "http://"+addr+"/v1/query", `{"kind":"sum"}`)
	if status != http.StatusOK {
		t.Errorf("query next to a stalled client: %d, want 200", status)
	}

	// The header never completes: the server must hang up (EOF, or a 408
	// before closing) within the header timeout plus scheduling slack.
	if err := slow.SetReadDeadline(time.Now().Add(station.ReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(slow)
	if err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 408") {
		t.Errorf("stalled connection answered %q", got)
	}
	if waited := time.Since(start); waited < station.ReadHeaderTimeout {
		t.Errorf("stalled connection closed after %v, before the %v header timeout", waited, station.ReadHeaderTimeout)
	}

	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("x", 2*station.MaxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("oversized header: %d, want 431", resp.StatusCode)
	}

	drainAll(t, errCh)
}
