package tag

// This file is the SDAP-class attestation phase (Yang et al., MobiHoc
// 2006): TAG aggregation hardened by commit-and-attest sampling. After the
// aggregate arrives, the base station challenges a random sample of
// aggregators; each must attest its subtree with its children's
// MAC-authenticated reports, which an attacker cannot forge, so a sampled
// attacker is caught — but an unsampled one is not.
//
// This is the *statistical* integrity design the cluster paper's related
// work criticises: detection probability equals the sample fraction (paid
// for with attestation traffic every round), whereas the cluster protocol's
// witnesses give deterministic detection for free. Experiment
// F14-statistical quantifies the contrast on this shared substrate.
//
// Simplifications relative to full SDAP, documented per the reproduction
// rules: groups are aggregator subtrees rather than probabilistically
// re-grouped sets; MAC authentication is modelled (a sampled attacker's
// attestation is marked inconsistent rather than carrying real per-child
// MACs); the commit phase is folded into the aggregation frames. None of
// these change the headline property — sampling-bounded detection.

import (
	"repro/internal/message"
	"repro/internal/topo"
)

// Attested returns how many aggregators were challenged last round.
func (p *Protocol) Attested() int { return p.attested }

// challenge floods the base station's sample set; every sampled aggregator
// that reported must attest.
func (p *Protocol) challenge() {
	var sample []topo.NodeID
	for i := 1; i < p.env.Net.Size(); i++ {
		st := &p.nodes[i]
		if !st.aggregated || !st.reported {
			continue // leaves carry no subtree to attest
		}
		if p.env.Rng.Float64() < p.cfg.SampleFraction {
			sample = append(sample, topo.NodeID(i))
		}
	}
	if len(sample) == 0 {
		return
	}
	p.attested = len(sample)
	payload, err := message.MarshalIDList(sample)
	if err != nil {
		return
	}
	p.env.MAC.Send(message.Build(
		message.KindAttest, topo.BaseStationID, message.BroadcastID, p.round, payload))
}

// onAttest floods the challenge (every node rebroadcasts once via the
// round/seq dedup in the MAC is not enough: the same frame kind from
// different forwarders differs, so dedup locally via the reported flag on a
// scratch bit) and answers it when sampled.
func (p *Protocol) onAttest(at topo.NodeID, msg *message.Message) {
	st := &p.nodes[at]
	if st.attestSeen {
		return
	}
	st.attestSeen = true
	// Re-flood so the challenge reaches deep aggregators.
	p.env.MAC.Send(message.Build(message.KindAttest, at, message.BroadcastID, msg.Round, msg.Payload))
	ids, err := message.UnmarshalIDList(msg.Payload)
	if err != nil {
		return
	}
	for _, id := range ids {
		if id != at {
			continue
		}
		// Attest: in a real deployment this carries the children's
		// MAC-authenticated reports. The attacker cannot forge those, so
		// its attestation is inconsistent with what it sent upward.
		resp := message.AttestResp{
			Subject:    at,
			Reported:   st.sent,
			Consistent: at != p.cfg.Polluter,
		}
		p.env.MAC.Send(message.Build(
			message.KindAttestResp, at, st.parent, msg.Round,
			message.MarshalAttestResp(resp)))
	}
}

// onAttestResp relays attestations up the tree and verdicts at the base
// station.
func (p *Protocol) onAttestResp(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	resp, err := message.UnmarshalAttestResp(msg.Payload)
	if err != nil {
		return
	}
	if at == topo.BaseStationID {
		if !resp.Consistent {
			p.detected = true
		}
		return
	}
	st := &p.nodes[at]
	if st.parent < 0 {
		return
	}
	p.env.MAC.Send(message.Build(message.KindAttestResp, at, st.parent, msg.Round, msg.Payload))
}

// PickAggregator deterministically returns the lowest-ID node that
// aggregated children in the last Run, or -1.
func (p *Protocol) PickAggregator() topo.NodeID {
	for i := 1; i < len(p.nodes); i++ {
		if p.nodes[i].aggregated && p.nodes[i].reported {
			return topo.NodeID(i)
		}
	}
	return -1
}
