// Package tag implements the TAG baseline (Madden et al., OSDI 2002): a
// single spanning tree rooted at the base station, epoch-scheduled in-network
// additive aggregation, no privacy, no integrity protection. It is the
// comparison point for every overhead/accuracy figure, exactly as in the
// lineage papers.
//
// With a positive Config.SampleFraction the same tree becomes the
// SDAP-class comparator: after aggregation the base station challenges a
// random sample of aggregators to attest their subtrees (attest.go).
package tag

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// Config tunes the protocol's schedule and its optional attestation phase.
type Config struct {
	FormationWindow time.Duration // HELLO flood settling time
	EpochSlot       time.Duration // per-hop transmission window
	MaxHops         int           // deepest tree level scheduled

	// AttestWindow is how long after aggregation the attestation phase
	// runs.
	AttestWindow time.Duration
	// SampleFraction of aggregators (nodes with children) challenged per
	// round; 0 runs plain TAG with no attestation phase.
	SampleFraction float64

	// Polluter adds PollutionDelta to the aggregate it forwards (-1 = none).
	Polluter       topo.NodeID
	PollutionDelta int64
}

// DefaultConfig returns plain TAG with a schedule ample for 600 nodes on
// 400 m × 400 m.
func DefaultConfig() Config {
	return Config{
		FormationWindow: 1500 * time.Millisecond,
		EpochSlot:       150 * time.Millisecond,
		MaxHops:         16,
		AttestWindow:    2 * time.Second,
		Polluter:        -1,
	}
}

type nodeState struct {
	parent     topo.NodeID // -1 until joined
	hops       int
	childSum   field.Element
	childCount uint32
	aggregated bool          // received at least one child report
	sent       field.Element // what this node reported upward
	reported   bool
	attestSeen bool // challenge-flood dedup
}

// Protocol is one TAG instance over an Env.
type Protocol struct {
	env   *wsn.Env
	cfg   Config
	nodes []nodeState
	round uint16

	detected bool
	attested int
	start    metrics.Mark
}

// New wires a TAG instance onto the environment's MAC.
func New(env *wsn.Env, cfg Config) (*Protocol, error) {
	if cfg.FormationWindow <= 0 || cfg.EpochSlot <= 0 || cfg.MaxHops < 1 ||
		cfg.SampleFraction < 0 || cfg.SampleFraction > 1 ||
		(cfg.SampleFraction > 0 && cfg.AttestWindow <= 0) {
		return nil, fmt.Errorf("tag: invalid config %+v", cfg)
	}
	p := &Protocol{env: env, cfg: cfg}
	return p, nil
}

// Run executes one query round, plus the attestation phase when sampling
// is on, and returns the base station's view.
func (p *Protocol) Run(round uint16) (metrics.RoundResult, error) {
	p.round = round
	n := p.env.Net.Size()
	p.nodes = make([]nodeState, n)
	for i := range p.nodes {
		p.nodes[i].parent = -1
	}
	p.detected = false
	p.attested = 0
	p.start = p.env.Rec.Mark()
	for i := 0; i < n; i++ {
		id := topo.NodeID(i)
		p.env.MAC.SetReceiver(id, p.receive)
	}

	// The base station roots the tree.
	p.nodes[topo.BaseStationID].parent = topo.BaseStationID
	p.env.Eng.After(0, func() { p.sendHello(topo.BaseStationID, 0) })

	// Epoch-scheduled aggregation: deeper nodes transmit earlier.
	p.env.Eng.After(p.cfg.FormationWindow, func() { p.scheduleReports() })
	if p.cfg.SampleFraction > 0 {
		aggEnd := p.cfg.FormationWindow + time.Duration(p.cfg.MaxHops+1)*p.cfg.EpochSlot
		p.env.Eng.After(aggEnd, func() { p.challenge() })
	}

	if err := p.env.Eng.Run(0); err != nil {
		return metrics.RoundResult{}, fmt.Errorf("tag: %w", err)
	}

	bs := &p.nodes[topo.BaseStationID]
	covered := 0
	for i := 1; i < n; i++ {
		if p.nodes[i].parent >= 0 {
			covered++
		}
	}
	name, alarms := "tag", 0
	if p.cfg.SampleFraction > 0 {
		name = "sdap"
	}
	if p.detected {
		alarms = 1
	}
	res := metrics.RoundResult{
		Protocol:     name,
		TrueSum:      p.env.TrueSum(),
		TrueCount:    p.env.TrueCount(),
		ReportedSum:  bs.childSum.Int(),
		ReportedCnt:  int64(bs.childCount),
		Participants: int(bs.childCount),
		Covered:      covered,
		Accepted:     !p.detected, // plain TAG has no integrity check
		Alarms:       alarms,
	}
	p.env.Rec.FillSince(p.start, &res)
	return res, nil
}

func (p *Protocol) sendHello(from topo.NodeID, hops int) {
	p.env.MAC.Send(message.Build(
		message.KindHello, from, message.BroadcastID, p.round,
		message.MarshalHello(message.Hello{Origin: topo.BaseStationID, Hops: uint16(hops)}),
	))
}

func (p *Protocol) receive(at topo.NodeID, msg *message.Message) {
	switch msg.Kind {
	case message.KindHello:
		p.onHello(at, msg)
	case message.KindAggregate:
		if msg.To != at {
			return // TAG ignores overheard traffic
		}
		agg, err := message.UnmarshalAggregate(msg.Payload)
		if err != nil {
			return
		}
		st := &p.nodes[at]
		st.childSum = st.childSum.Add(agg.Sum)
		st.childCount += agg.Count
		st.aggregated = true
	case message.KindAttest:
		p.onAttest(at, msg)
	case message.KindAttestResp:
		p.onAttestResp(at, msg)
	}
}

func (p *Protocol) onHello(at topo.NodeID, msg *message.Message) {
	st := &p.nodes[at]
	if st.parent >= 0 {
		return // already joined
	}
	h, err := message.UnmarshalHello(msg.Payload)
	if err != nil {
		return
	}
	st.parent = msg.From
	st.hops = int(h.Hops) + 1
	p.sendHello(at, st.hops)
}

// scheduleReports arranges every joined node's single aggregate
// transmission, deepest levels first.
func (p *Protocol) scheduleReports() {
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.parent < 0 {
			continue
		}
		slot := p.cfg.MaxHops - st.hops
		if slot < 0 {
			slot = 0
		}
		// Jitter within the slot desynchronises same-level nodes.
		jitter := time.Duration(p.env.Rng.Int63n(int64(p.cfg.EpochSlot / 2)))
		at := time.Duration(slot)*p.cfg.EpochSlot + jitter
		p.env.Eng.After(at, func() { p.report(id) })
	}
}

func (p *Protocol) report(id topo.NodeID) {
	st := &p.nodes[id]
	sum := st.childSum.Add(p.env.ReadingElement(id))
	if id == p.cfg.Polluter {
		sum = sum.Add(field.FromInt(p.cfg.PollutionDelta))
	}
	st.sent = sum
	st.reported = true
	p.env.MAC.Send(message.Build(
		message.KindAggregate, id, st.parent, p.round,
		message.MarshalAggregate(message.Aggregate{Sum: sum, Count: st.childCount + 1}),
	))
}
