package core

import (
	"slices"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Hello roles carried in the formation flood.
const (
	helloMember = 0 // plain flood relay
	helloHead   = 1 // the sender is a cluster head accepting joins
	helloBase   = 3 // the base station's root beacon
)

// sendHello broadcasts a formation beacon. Every node forwards the query
// flood exactly once (CPDA disseminates the query through the whole
// network); heads mark their rebroadcast so neighbours learn whom they can
// join.
func (p *Protocol) sendHello(from topo.NodeID, role uint8, hops int) {
	p.env.MAC.Send(p.build(
		message.KindHello, from, message.BroadcastID, p.round,
		message.MarshalHello(message.Hello{Origin: from, Role: role, Hops: uint16(hops)}),
	))
}

// receive dispatches every frame delivered to (or overheard by) a node.
func (p *Protocol) receive(at topo.NodeID, msg *message.Message) {
	if msg.Round < p.round {
		// Every round drains the engine completely before the next one
		// starts, so no legitimate frame can carry an earlier round stamp:
		// a stale frame is a replay, and absorbing it would double-count
		// its cluster. Drop it and record the catch.
		cluster := trace.NoCluster
		if st := &p.nodes[at]; st.head >= 0 {
			cluster = st.head
		}
		p.emit(at, cluster, "", trace.TypeWitness, "stale-round",
			"replayed %s from %d round=%d current=%d", msg.Kind, msg.From, msg.Round, p.round)
		return
	}
	switch msg.Kind {
	case message.KindHello:
		p.onHello(at, msg)
	case message.KindJoin:
		p.onJoin(at, msg)
	case message.KindRoster:
		p.onRoster(at, msg)
	case message.KindShare:
		p.onShare(at, msg)
	case message.KindRelay:
		p.onRelay(at, msg)
	case message.KindAssembled:
		p.onAssembled(at, msg)
	case message.KindRepoll:
		p.onRepoll(at, msg)
	case message.KindReassemble:
		p.onReassemble(at, msg)
	case message.KindSubShare:
		p.onSubShare(at, msg)
	case message.KindSubAssembled:
		p.onSubAssembled(at, msg)
	case message.KindTakeover:
		p.onTakeover(at, msg)
	case message.KindAnnounce:
		p.onAnnounce(at, msg)
	case message.KindReading:
		p.onPlainReading(at, msg)
	case message.KindAlarm:
		p.onAlarm(at, msg)
	}
}

// onHello drives the query flood, head election, and join-candidate
// collection.
func (p *Protocol) onHello(at topo.NodeID, msg *message.Message) {
	if at == topo.BaseStationID {
		return
	}
	h, err := message.UnmarshalHello(msg.Payload)
	if err != nil {
		return
	}
	st := &p.nodes[at]
	switch h.Role {
	case helloHead:
		if cap(st.heardCH) == 0 {
			st.heardCH = make([]chInfo, 0, minTable)
		}
		st.heardCH = append(st.heardCH, chInfo{id: msg.From, hops: int(h.Hops)})
	case helloBase:
		st.bsDirect = true
	}
	if st.role != roleUnassigned {
		return
	}
	// First HELLO: adopt the flood parent, elect, and rebroadcast. Jitter
	// desynchronises each flood wave.
	st.helloParent = msg.From
	st.hops = int(h.Hops) + 1
	hops := st.hops
	if p.env.Rng.Float64() < p.cfg.Pc {
		st.role = roleHead
		st.head = at
		p.emit(at, at, trace.PhaseFormation, trace.TypeElection, "pc-draw", "became head at hops=%d", hops)
		p.env.Eng.After(p.jitter(80*time.Millisecond), func() { p.sendHello(at, helloHead, hops) })
		return
	}
	st.role = roleMember
	p.env.Eng.After(p.jitter(80*time.Millisecond), func() { p.sendHello(at, helloMember, hops) })
	if !st.joinOn {
		st.joinOn = true
		p.env.Eng.After(p.cfg.JoinWait, func() { p.join(at) })
	}
}

// join picks a uniformly random cluster head among those heard (CPDA-style;
// random choice balances cluster sizes). A member with no head in radio
// range promotes itself to head — the adaptive repair that keeps cluster
// coverage tracking network connectivity instead of head percolation.
func (p *Protocol) join(at topo.NodeID) {
	st := &p.nodes[at]
	if st.role != roleMember {
		return
	}
	if len(st.heardCH) == 0 {
		st.role = roleHead
		st.head = at
		p.emit(at, at, trace.PhaseFormation, trace.TypeElection, "no-head-in-range", "self-promoted")
		p.sendHello(at, helloHead, st.hops)
		return
	}
	best := st.heardCH[p.env.Rng.Intn(len(st.heardCH))]
	st.head = best.id
	if p.env.Sink != nil {
		p.emit(at, best.id, trace.PhaseFormation, trace.TypeJoin, "", "joining head %d", best.id)
	}
	p.env.MAC.Send(p.build(
		message.KindJoin, at, best.id, p.round,
		message.MarshalJoin(message.Join{Head: best.id, Seed: shares.SeedFor(int(at))}),
	))
}

// onJoin records a member at its elected head.
func (p *Protocol) onJoin(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if st.role != roleHead || at == topo.BaseStationID {
		return
	}
	j, err := message.UnmarshalJoin(msg.Payload)
	if err != nil || j.Head != at {
		return
	}
	if p.inRepair {
		// Cross-round churn repair: the joiner is an orphan of a dead head.
		// Queue it for the extended roster repairFinalize publishes, dedup'd
		// against current members and earlier adoptees.
		for _, e := range st.roster.Entries {
			if e.ID == msg.From {
				return
			}
		}
		for _, e := range st.repairJoiners {
			if e.ID == msg.From {
				return
			}
		}
		if len(st.roster.Entries)+len(st.repairJoiners) >= message.MaxClusterSize {
			return
		}
		st.repairJoiners = append(st.repairJoiners, message.RosterEntry{ID: msg.From, Seed: j.Seed})
		return
	}
	if len(st.joiners) >= message.MaxClusterSize-1 {
		return // cluster full; late joiners are excluded by the roster
	}
	if cap(st.joiners) == 0 {
		st.joiners = make([]message.RosterEntry, 0, 2*minTable)
	}
	st.joiners = append(st.joiners, message.RosterEntry{ID: msg.From, Seed: j.Seed})
}

// broadcastRosters runs the two-stage roster phase. Stage one (now): every
// undersized head dissolves — it broadcasts an empty roster so its joiners
// re-join elsewhere, and itself joins a neighbouring head. Stage two
// (half-way to the shares phase): surviving heads broadcast their final
// membership, jittered and repeated once for broadcast-loss resilience (a
// member that misses its roster cannot participate, which would fail the
// whole cluster).
func (p *Protocol) broadcastRosters() {
	p.phaseMark(trace.PhaseRoster, "dissolution + final roster broadcasts")
	window := p.cfg.SharesAt - p.cfg.RosterAt
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleHead {
			continue
		}
		if !p.cfg.NoMerge && !shares.Viable(1+len(st.joiners)) && len(p.otherHeads(id)) > 0 {
			p.dissolve(id)
		}
	}
	p.env.Eng.After(window/2, func() { p.finalRosters() })
}

// otherHeads lists the heads a node heard, excluding itself.
func (p *Protocol) otherHeads(id topo.NodeID) []chInfo {
	st := &p.nodes[id]
	out := make([]chInfo, 0, len(st.heardCH))
	for _, c := range st.heardCH {
		if c.id != id {
			out = append(out, c)
		}
	}
	return out
}

// dissolve demotes an undersized head to member: empty-roster broadcast
// releases its joiners, and the ex-head joins a random neighbouring head.
func (p *Protocol) dissolve(id topo.NodeID) {
	st := &p.nodes[id]
	payload, err := message.MarshalRoster(message.Roster{Head: id})
	if err != nil {
		return
	}
	p.env.Eng.After(p.jitter(50*time.Millisecond), func() {
		p.env.MAC.Send(p.build(message.KindRoster, id, message.BroadcastID, p.round, payload))
	})
	st.role = roleMember
	st.joiners = nil
	p.lifecycle(id, id, trace.PhaseRoster, trace.StateDissolved, "undersized cluster released its joiners")
	p.rejoin(id, id)
}

// rejoin sends a fresh Join to a random heard head other than `not`.
func (p *Protocol) rejoin(at, not topo.NodeID) {
	st := &p.nodes[at]
	candidates := make([]chInfo, 0, len(st.heardCH))
	for _, c := range st.heardCH {
		if c.id != not && c.id != at {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		st.head = -1
		return // no alternative: uncovered this round
	}
	best := candidates[p.env.Rng.Intn(len(candidates))]
	st.head = best.id
	p.env.MAC.Send(p.build(
		message.KindJoin, at, best.id, p.round,
		message.MarshalJoin(message.Join{Head: best.id, Seed: shares.SeedFor(int(at))}),
	))
}

// finalRosters publishes surviving heads' membership.
func (p *Protocol) finalRosters() {
	window := (p.cfg.SharesAt - p.cfg.RosterAt) / 2
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleHead {
			continue
		}
		roster := message.Roster{Head: id}
		roster.Entries = append(roster.Entries,
			message.RosterEntry{ID: id, Seed: shares.SeedFor(int(id))})
		roster.Entries = append(roster.Entries, st.joiners...)
		canonicalizeSeeds(roster.Entries)
		payload, err := message.MarshalRoster(roster)
		if err != nil {
			continue
		}
		p.installRoster(id, roster)
		if p.env.Sink != nil {
			p.lifecycle(id, id, trace.PhaseRoster, trace.StateFormed,
				"roster published: m=%d deputy=%d", len(roster.Entries), p.nodes[id].deputy)
		}
		jitter := p.jitter(window / 4)
		p.env.Eng.After(jitter, func() {
			p.env.MAC.Send(p.build(message.KindRoster, id, message.BroadcastID, p.round, payload))
		})
		p.env.Eng.After(jitter+window/2, func() {
			p.env.MAC.Send(p.build(message.KindRoster, id, message.BroadcastID, p.round, payload))
		})
	}
}

// onRoster installs the cluster parameters at a member, or processes a
// dissolution (empty roster): every overhearing node forgets the dissolved
// head (so announce routing never targets it), and its members re-join.
// Two failover variants ride on the same wire format: a deputy dissolving
// its dead head's unviable remnant (empty roster naming the dead head), and
// a deputy's promotion roster (it announces itself head of the surviving
// remnant).
func (p *Protocol) onRoster(at topo.NodeID, msg *message.Message) {
	st := &p.nodes[at]
	if err := message.UnmarshalRosterInto(msg.Payload, &p.rxRoster); err != nil {
		return
	}
	r := p.rxRoster // shares the scratch's entries: copy before keeping them
	if len(r.Entries) == 0 && r.Head != msg.From {
		// Deputy-announced dissolution of a dead head's remnant: only that
		// cluster's members act, and only on their designated deputy's word.
		if st.head != r.Head || st.deputy != msg.From || at == msg.From {
			return
		}
		if st.role == roleHead {
			if at != r.Head {
				return
			}
			// We are the crashed-and-recovered head itself: the cluster is
			// gone; stand down and re-join like any orphan.
			st.role = roleMember
			st.joiners = nil
		}
		st.headSilent = false
		p.forgetHead(st, r.Head)
		p.clearClusterState(st)
		p.rejoin(at, r.Head)
		return
	}
	if r.Head != msg.From {
		return
	}
	if len(r.Entries) == 0 {
		p.forgetHead(st, msg.From)
		if st.role == roleMember && st.head == msg.From {
			p.rejoin(at, msg.From)
		}
		return
	}
	if st.role == roleHead && at != msg.From && st.head == at && st.deputy == msg.From {
		// We crashed as head, recovered, and our old deputy has permanently
		// taken the cluster over: stand down and join it directly.
		st.role = roleMember
		st.joiners = nil
		p.clearClusterState(st)
		st.head = msg.From
		p.emit(at, msg.From, trace.PhaseRepair, trace.TypeRecover, "deputy-promoted",
			"recovered head standing down; deputy %d now heads the cluster", msg.From)
		p.env.MAC.Send(p.build(
			message.KindJoin, at, msg.From, p.round,
			message.MarshalJoin(message.Join{Head: msg.From, Seed: shares.SeedFor(int(at))}),
		))
		return
	}
	if st.role != roleMember {
		return
	}
	if st.head != msg.From {
		if st.deputy != msg.From {
			return
		}
		// Promotion roster: our deputy stood in for (or succeeded) the dead
		// head. Adopt it — integrity does not rest on head identity but on
		// the F-row witnessing, which survives the promotion unchanged.
		st.head = msg.From
		st.headSilent = false
	}
	p.installRoster(at, message.Roster{Head: r.Head, Entries: slices.Clone(r.Entries)})
}

// canonicalizeSeeds overwrites every roster entry's seed with the position
// seed SeedFor(index) before publication. Seeds only need to be distinct and
// known to all cluster members — nothing in the algebra depends on which node
// holds which seed — so a head publishing {1..m} makes every size-m cluster
// algebraically identical: one Vandermonde weights table per size (shared via
// Protocol.algebraFor), and the batch solver can group whole rounds of
// clusters by size. The Join wire format still carries ID-derived seeds for
// compatibility; heads ignore them at publication.
func canonicalizeSeeds(entries []message.RosterEntry) {
	for i := range entries {
		entries[i].Seed = shares.SeedFor(i)
	}
}

// algebraFor returns the share algebra for a roster, serving canonical
// position-seeded rosters ({1..m}) from a per-size cache so all clusters of
// one size share a single weights table and Lagrange-subset cache.
// Non-canonical rosters (none are produced by this code, but the wire format
// permits them) get a private algebra as before.
func (p *Protocol) algebraFor(entries []message.RosterEntry) (*shares.Algebra, error) {
	canonical := true
	for i, e := range entries {
		if e.Seed != shares.SeedFor(i) {
			canonical = false
			break
		}
	}
	if canonical {
		if a, ok := p.algebras[len(entries)]; ok {
			return a, nil
		}
	}
	seeds := make([]field.Element, len(entries))
	for i, e := range entries {
		seeds[i] = e.Seed
	}
	a, err := shares.NewAlgebra(seeds)
	if err != nil {
		return nil, err
	}
	if canonical {
		if p.algebras == nil {
			p.algebras = make(map[int]*shares.Algebra)
		}
		p.algebras[len(entries)] = a
	}
	return a, nil
}

// installRoster prepares the share algebra for a node's cluster view and
// designates the failover deputy (highest-seed entry other than the head),
// which every roster holder computes locally — zero extra wire bytes.
func (p *Protocol) installRoster(at topo.NodeID, r message.Roster) {
	st := &p.nodes[at]
	st.roster = r
	st.myIdx = -1
	st.deputy = -1
	for i, e := range r.Entries {
		if e.ID == at {
			st.myIdx = i
			break
		}
	}
	if st.myIdx < 0 {
		return // excluded (cluster was full)
	}
	if !shares.Viable(len(r.Entries)) {
		return // undersized: handled by policy at the shares phase
	}
	algebra, err := p.algebraFor(r.Entries)
	if err != nil {
		return // corrupt roster (duplicate seeds); cluster cannot run
	}
	st.algebra = algebra
	st.recvShares = growRows(st.recvShares, len(r.Entries))
	st.fSeen = growTable(st.fSeen, len(r.Entries)) // slots gated by fSeenMask
	st.fSeenMask = 0
	if !p.cfg.NoFailover {
		st.deputy = deputyOf(r)
	}
}
