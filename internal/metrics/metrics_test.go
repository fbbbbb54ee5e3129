package metrics

import (
	"strings"
	"testing"

	"repro/internal/message"
)

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder()
	r.OnTransmit(1, message.KindHello, 30)
	r.OnTransmit(1, message.KindShare, 50)
	r.OnTransmit(2, message.KindHello, 30)
	r.OnReceive(3, 30)
	r.OnReceive(3, 50)
	r.OnCollision()
	r.OnDrop()

	if got := r.TotalTxBytes(); got != 110 {
		t.Errorf("TotalTxBytes = %d", got)
	}
	if got := r.TotalTxMessages(); got != 3 {
		t.Errorf("TotalTxMessages = %d", got)
	}
	if got := r.TotalRxMessages(); got != 2 {
		t.Errorf("TotalRxMessages = %d", got)
	}
	if got := r.NodeTxBytes(1); got != 80 {
		t.Errorf("NodeTxBytes(1) = %d", got)
	}
	if got := r.NodeTxMessages(2); got != 1 {
		t.Errorf("NodeTxMessages(2) = %d", got)
	}
	if r.Collisions() != 1 || r.Dropped() != 1 {
		t.Errorf("collisions/drops = %d/%d", r.Collisions(), r.Dropped())
	}
}

func TestRecorderByKind(t *testing.T) {
	r := NewRecorder()
	r.OnTransmit(1, message.KindHello, 30)
	r.OnTransmit(2, message.KindHello, 30)
	r.OnTransmit(1, message.KindAck, 23)
	byKind := r.BytesByKind()
	if byKind["hello"] != 60 || byKind["ack"] != 23 {
		t.Errorf("byKind = %v", byKind)
	}
	// Returned map is a copy.
	byKind["hello"] = 0
	if r.BytesByKind()["hello"] != 60 {
		t.Error("BytesByKind must return a copy")
	}
	if got := r.TxMessagesOfKind("hello"); got != 2 {
		t.Errorf("TxMessagesOfKind = %d", got)
	}
	if got := r.AppMessages(); got != 2 {
		t.Errorf("AppMessages = %d (ACKs must be excluded)", got)
	}
	kinds := r.KindsSorted()
	if len(kinds) != 2 || kinds[0] != "ack" || kinds[1] != "hello" {
		t.Errorf("KindsSorted = %v", kinds)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.OnTransmit(1, message.KindHello, 30)
	r.OnTransmit(2, message.KindAck, 23)
	r.OnReceive(3, 30)
	r.OnCollision()
	r.OnDrop()

	r.Reset()
	if got := r.TotalTxBytes(); got != 0 {
		t.Errorf("TotalTxBytes after Reset = %d", got)
	}
	if got := r.TotalTxMessages(); got != 0 {
		t.Errorf("TotalTxMessages after Reset = %d", got)
	}
	if got := r.TotalRxMessages(); got != 0 {
		t.Errorf("TotalRxMessages after Reset = %d", got)
	}
	if r.Collisions() != 0 || r.Dropped() != 0 {
		t.Errorf("collisions/drops after Reset = %d/%d", r.Collisions(), r.Dropped())
	}
	if got := len(r.BytesByKind()); got != 0 {
		t.Errorf("BytesByKind after Reset has %d entries", got)
	}
	if got := r.AppMessages(); got != 0 {
		t.Errorf("AppMessages after Reset = %d", got)
	}

	// The recorder must stay fully usable after Reset: the counters are
	// cleared in place, not dropped.
	r.OnTransmit(1, message.KindShare, 50)
	r.OnReceive(2, 50)
	if r.TotalTxBytes() != 50 || r.NodeTxMessages(1) != 1 || r.NodeRxMessages(2) != 1 {
		t.Errorf("recorder unusable after Reset: tx=%d msgs=%d rx=%d",
			r.TotalTxBytes(), r.NodeTxMessages(1), r.NodeRxMessages(2))
	}
	if kinds := r.KindsSorted(); len(kinds) != 1 || kinds[0] != "share" {
		t.Errorf("KindsSorted after Reset = %v", kinds)
	}
}

func TestNodeRxMessages(t *testing.T) {
	r := NewRecorder()
	r.OnReceive(4, 30)
	r.OnReceive(4, 50)
	r.OnReceive(5, 30)
	if got := r.NodeRxMessages(4); got != 2 {
		t.Errorf("NodeRxMessages(4) = %d", got)
	}
	if got := r.NodeRxMessages(5); got != 1 {
		t.Errorf("NodeRxMessages(5) = %d", got)
	}
	if got := r.NodeRxMessages(6); got != 0 {
		t.Errorf("NodeRxMessages(6) = %d (unknown node must read zero)", got)
	}
}

func TestKindsSortedDeterministic(t *testing.T) {
	r := NewRecorder()
	for _, kind := range []message.Kind{message.KindShare, message.KindHello, message.KindAnnounce, message.KindAck, message.KindRoster} {
		r.OnTransmit(1, kind, 10)
	}
	want := []string{"ack", "announce", "hello", "roster", "share"}
	for trial := 0; trial < 50; trial++ {
		got := r.KindsSorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v", trial, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: KindsSorted = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestRoundResultMetrics(t *testing.T) {
	r := RoundResult{
		Protocol:     "x",
		TrueSum:      200,
		TrueCount:    10,
		ReportedSum:  150,
		ReportedCnt:  8,
		Participants: 8,
		Covered:      9,
	}
	if got := r.Accuracy(); got != 0.75 {
		t.Errorf("Accuracy = %g", got)
	}
	if got := r.CountAccuracy(); got != 0.8 {
		t.Errorf("CountAccuracy = %g", got)
	}
	if got := r.ParticipationRate(); got != 0.8 {
		t.Errorf("ParticipationRate = %g", got)
	}
	if got := r.CoverageRate(); got != 0.9 {
		t.Errorf("CoverageRate = %g", got)
	}
	if r.String() == "" {
		t.Error("String should render")
	}
}

func TestRoundResultStringResilienceCounters(t *testing.T) {
	healthy := RoundResult{Protocol: "icpda", TrueSum: 10, ReportedSum: 10, Accepted: true}
	if s := healthy.String(); strings.Contains(s, "degraded") || strings.Contains(s, "takeovers") {
		t.Errorf("healthy round should omit resilience counters: %s", s)
	}
	hurt := RoundResult{
		Protocol: "icpda", TrueSum: 10, ReportedSum: 7,
		DegradedClusters: 2, FailedClusters: 1,
		Takeovers: 3, Promotions: 1, OrphansRejoined: 4,
	}
	s := hurt.String()
	for _, want := range []string{
		"degraded=2", "failed=1", "takeovers=3", "promotions=1", "rejoined=4",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestRoundResultZeroDivision(t *testing.T) {
	// A zero truth reported exactly is perfect accuracy — not a division by
	// zero, and not the 0.0 the naive guard used to return.
	var r RoundResult
	if r.Accuracy() != 1 || r.CountAccuracy() != 1 {
		t.Errorf("exact zero report should be perfectly accurate: %g, %g",
			r.Accuracy(), r.CountAccuracy())
	}
	if r.ParticipationRate() != 0 || r.CoverageRate() != 0 {
		t.Error("zero RoundResult must not divide by zero")
	}
	r.ReportedSum, r.ReportedCnt = 5, 5
	if r.Accuracy() != 0 || r.CountAccuracy() != 0 {
		t.Error("non-zero report against zero truth is maximally wrong")
	}
}

func TestTrafficSnapshotAndAdd(t *testing.T) {
	r := NewRecorder()
	r.OnTransmit(1, message.KindReading, 40)
	r.OnTransmit(2, message.KindAck, 8)
	r.OnReceive(3, 40)
	r.OnCollision()
	r.OnDrop()
	got := r.Traffic()
	want := Traffic{
		TxBytes: 48, RxBytes: 40, TxMessages: 2, RxMessages: 1,
		AppMessages: 1, Collisions: 1, Dropped: 1,
	}
	if got != want {
		t.Errorf("Traffic() = %+v, want %+v", got, want)
	}

	// Add accumulates per-worker snapshots into pool totals.
	total := Traffic{TxBytes: 2}
	total.Add(got)
	total.Add(got)
	if total.TxBytes != 98 || total.TxMessages != 4 || total.Dropped != 2 {
		t.Errorf("Add accumulated wrong: %+v", total)
	}

	// The snapshot is a value copy: later recording must not leak into it.
	r.OnTransmit(1, message.KindReading, 100)
	if got.TxBytes != 48 {
		t.Error("Traffic snapshot aliases the live Recorder")
	}
}

func TestMarkFillSince(t *testing.T) {
	r := NewRecorder()
	r.OnTransmit(1, message.KindHello, 30)
	m := r.Mark()
	r.OnTransmit(2, message.KindShare, 50)
	r.OnTransmit(3, message.KindAck, 11)
	r.OnTransmit(7, message.KindShare, 50)
	var res RoundResult
	r.FillSince(m, &res)
	if res.TxBytes != 111 || res.TxMessages != 3 || res.AppMessages != 2 {
		t.Errorf("since mark: bytes %d msgs %d app %d, want 111 3 2",
			res.TxBytes, res.TxMessages, res.AppMessages)
	}
}
