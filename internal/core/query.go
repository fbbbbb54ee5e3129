package core

import (
	"fmt"

	"repro/internal/aggfunc"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// readingVectorInto writes a node's contribution vector for the round into
// dst, a buffer of nComponents() elements: the raw sensor reading by
// default, or one transformed value per active query component.
func (p *Protocol) readingVectorInto(dst []field.Element, id topo.NodeID) {
	if len(p.comps) == 0 {
		dst[0] = p.env.ReadingElement(id)
		return
	}
	for k, c := range p.comps {
		dst[k] = field.FromInt(c(p.env.Readings[id]))
	}
}

// QueryOutcome is the base station's answer to a statistics query.
type QueryOutcome struct {
	Value    float64 // the aggregated answer
	Truth    float64 // ground truth over all deployed sensors
	Rounds   int     // aggregation rounds spent (one per additive component)
	Accepted bool    // false if any component round tripped integrity
	Results  []metrics.RoundResult
}

// Error returns |Value - Truth|.
func (o QueryOutcome) Error() float64 {
	d := o.Value - o.Truth
	if d < 0 {
		d = -d
	}
	return d
}

// RunQuery answers a statistics query by compiling it to additive
// components (package aggfunc) and aggregating the whole component vector
// in ONE round: every share, assembled value, and announce carries one
// value per component, so all components are computed over exactly the
// same participant population — the property that makes ratio statistics
// (average, variance) correct under loss. This is the paper's "each sensor
// contributes several inputs to the additive aggregation" reduction made
// operational.
func (p *Protocol) RunQuery(q aggfunc.Query, startRound uint16) (QueryOutcome, error) {
	comps, err := q.Components()
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("core: %w", err)
	}
	p.comps = comps
	defer func() { p.comps = nil }()
	res, err := p.Run(startRound)
	if err != nil {
		return QueryOutcome{}, err
	}
	sums := make([]int64, len(comps))
	for k := range comps {
		sums[k] = p.bsSums[k].Int()
	}
	truthSums := make([]int64, len(comps))
	for k, c := range comps {
		for n := 1; n < p.env.Net.Size(); n++ {
			truthSums[k] += c(p.env.Readings[n])
		}
	}
	value, err := q.Finish(sums)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("core: finish: %w", err)
	}
	truth, err := q.Finish(truthSums)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("core: truth: %w", err)
	}
	return QueryOutcome{
		Value:    value,
		Truth:    truth,
		Rounds:   1,
		Accepted: res.Accepted,
		Results:  []metrics.RoundResult{res},
	}, nil
}
