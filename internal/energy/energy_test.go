package energy

import (
	"math"
	"testing"

	"repro/internal/message"
	"repro/internal/metrics"
)

func TestModelValidation(t *testing.T) {
	bad := Model{TxPerByte: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative coefficient accepted")
	}
	if err := DefaultModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
}

func TestNodeCost(t *testing.T) {
	rec := metrics.NewRecorder()
	rec.OnTransmit(1, message.KindHello, 100) // 100 B, 1 frame
	rec.OnReceive(1, 50)
	m := Model{TxPerByte: 1, RxPerByte: 2, TxPerMsg: 10, RxPerMsg: 5}
	// 100*1 + 1*10 + 50*2 = 210.
	if got := m.NodeCost(rec, 1); got != 210 {
		t.Errorf("cost = %g", got)
	}
	if got := m.NodeCost(rec, 2); got != 0 {
		t.Errorf("idle node cost = %g", got)
	}
}

func TestAuditReport(t *testing.T) {
	rec := metrics.NewRecorder()
	rec.OnTransmit(0, message.KindHello, 10)
	rec.OnTransmit(1, message.KindHello, 30)
	m := Model{TxPerByte: 1, TxPerMsg: 0}
	r, err := m.Audit(rec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalMicroJ != 40 {
		t.Errorf("total = %g", r.TotalMicroJ)
	}
	if r.MaxNode != 1 || r.MaxMicroJ != 30 {
		t.Errorf("hotspot = node %d at %g", r.MaxNode, r.MaxMicroJ)
	}
	if math.Abs(r.MeanMicroJ-40.0/3) > 1e-9 {
		t.Errorf("mean = %g", r.MeanMicroJ)
	}
	if r.StdMicroJ <= 0 {
		t.Errorf("std = %g", r.StdMicroJ)
	}
}

func TestAuditValidation(t *testing.T) {
	rec := metrics.NewRecorder()
	if _, err := DefaultModel().Audit(rec, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := (Model{TxPerByte: -1}).Audit(rec, 3); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestLifetimeRounds(t *testing.T) {
	r := Report{MaxMicroJ: 1000} // 1 mJ per round at the hotspot
	// 10 J battery -> 10,000 rounds.
	if got := r.LifetimeRounds(10); got != 10000 {
		t.Errorf("lifetime = %g", got)
	}
	var idle Report
	if !math.IsInf(idle.LifetimeRounds(10), 1) {
		t.Error("free rounds should be infinite")
	}
}
