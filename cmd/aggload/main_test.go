package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/station"
)

func startAggd(t *testing.T) string {
	t.Helper()
	st, err := station.New(station.Config{
		Workers: 2, QueueDepth: 8,
		Deploy: repro.Options{Nodes: 80, Seed: 7, Ideal: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(station.NewAPI(st).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := st.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv.URL
}

// TestLoadRunPrintsSummary drives a short burst against a live serving
// stack and checks the stdout summary counts every request, no errors and
// a throughput line.
func TestLoadRunPrintsSummary(t *testing.T) {
	url := startAggd(t)
	var stdout bytes.Buffer
	if _, err := run([]string{
		"-addr", url, "-c", "3", "-n", "9", "-kinds", "sum,min,avg",
	}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"requests: 9 ", "errors: 0 ", "throughput: "} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}

// TestLoadUnreachableServerIsRuntimeError: a dead server is exit 1
// territory (requests errored), not a usage error.
func TestLoadUnreachableServerIsRuntimeError(t *testing.T) {
	var stdout bytes.Buffer
	_, err := run([]string{"-addr", "http://127.0.0.1:1", "-c", "1", "-n", "2", "-timeout", "2s"}, &stdout)
	if err == nil {
		t.Fatal("unreachable server reported success")
	}
	if cliutil.IsUsage(err) {
		t.Fatalf("runtime failure misclassified as usage error: %v", err)
	}
}

// TestLoadBadFlagsAreUsageErrors sweeps nonsensical invocations.
func TestLoadBadFlagsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero concurrency", []string{"-c", "0"}},
		{"negative concurrency", []string{"-c", "-3"}},
		{"negative requests", []string{"-n", "-1"}},
		{"negative duration", []string{"-d", "-5s"}},
		{"zero timeout", []string{"-timeout", "0s"}},
		{"unknown kind", []string{"-kinds", "sum,median"}},
		{"not a url", []string{"-addr", "localhost:8080"}},
		{"malformed flag", []string{"-c", "many"}},
		{"unknown flag", []string{"-frobnicate"}},
		{"positional junk", []string{"stuff"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			_, err := run(tc.args, &stdout)
			if err == nil {
				t.Fatal("bad flags accepted")
			}
			if !cliutil.IsUsage(err) {
				t.Fatalf("want usage error (exit 2), got %T: %v", err, err)
			}
		})
	}
}
