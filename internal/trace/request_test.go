package trace

import (
	"strings"
	"testing"
	"time"
)

// serveEvent builds a request-lifecycle event the way the serving layers
// emit them.
func serveEvent(at time.Duration, stage, detail string) Event {
	return Event{At: at, Node: -1, Cluster: NoCluster,
		Phase: PhaseServe, Type: TypeRequest, Cause: stage, Detail: detail}
}

func sampleRequestTrace() []Event {
	return []Event{
		serveEvent(1*time.Millisecond, StageAdmit, "req=r1 job=s0-q-1 kind=query"),
		// Recorded out of order: a sink may see the done stage first.
		serveEvent(8*time.Millisecond, StageDone, "req=r1 job=s0-q-1 ran=6ms"),
		serveEvent(2*time.Millisecond, StageRun, "req=r1 job=s0-q-1 worker=0 queue_wait=1ms"),
		// A second request interleaved — must not leak into r1's tree.
		serveEvent(3*time.Millisecond, StageAdmit, "req=r2 job=s0-q-2 kind=epoch"),
		// A non-request event with a coincidental req= token.
		{At: 0, Type: TypeAlarm, Detail: "req=r1 bogus"},
	}
}

func TestToken(t *testing.T) {
	if v, ok := Token("req=abc job=s0-q-1", "req"); !ok || v != "abc" {
		t.Fatalf("Token req = %q,%v", v, ok)
	}
	if v, ok := Token("req=abc job=s0-q-1", "job"); !ok || v != "s0-q-1" {
		t.Fatalf("Token job = %q,%v", v, ok)
	}
	if _, ok := Token("req=abc", "missing"); ok {
		t.Fatal("Token must miss absent keys")
	}
	// A key that is a suffix of another key must not match.
	if _, ok := Token("xreq=abc", "req"); ok {
		t.Fatal("Token must match whole tokens only")
	}
}

func TestRequestEventsFiltersAndOrders(t *testing.T) {
	evs := RequestEvents(sampleRequestTrace(), "r1")
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events not time-ordered")
		}
	}
	for _, e := range evs {
		if e.Type != TypeRequest {
			t.Fatalf("non-request event leaked: %v", e)
		}
	}
}

func TestRequestIDs(t *testing.T) {
	ids := RequestIDs(sampleRequestTrace())
	if len(ids) != 2 || ids[0] != "r1" || ids[1] != "r2" {
		t.Fatalf("RequestIDs = %v, want [r1 r2]", ids)
	}
}

// TestRequestTreeNestsJobStages: a request id names one job, so the tree
// is the request line, its job, and the job's stages in time order.
func TestRequestTreeNestsJobStages(t *testing.T) {
	var sb strings.Builder
	if err := WriteRequestTree(&sb, sampleRequestTrace(), "r1"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	want := []string{"request r1", "  job s0-q-1", "    admit ", "    run ", "    done "}
	if len(lines) != len(want) {
		t.Fatalf("tree has %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}

func TestWriteRequestTree(t *testing.T) {
	var sb strings.Builder
	if err := WriteRequestTree(&sb, sampleRequestTrace(), "r1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"request r1: 3 stages, 7ms end-to-end",
		"queue_wait=1ms",
		"ran=6ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	// The req= token is structural, not rendered per line.
	if strings.Contains(out, "req=r1") {
		t.Errorf("tree should strip req= tokens:\n%s", out)
	}
	if strings.Contains(out, "r2") {
		t.Errorf("other request leaked into tree:\n%s", out)
	}
}

func TestWriteRequestTreeUnknownID(t *testing.T) {
	var sb strings.Builder
	err := WriteRequestTree(&sb, sampleRequestTrace(), "nope")
	if err == nil {
		t.Fatal("unknown id must error")
	}
	if !strings.Contains(err.Error(), "r1") {
		t.Fatalf("error should list known ids, got: %v", err)
	}
	err = WriteRequestTree(&sb, nil, "nope")
	if err == nil || !strings.Contains(err.Error(), "no request events") {
		t.Fatalf("empty trace error = %v", err)
	}
}
