package core

import (
	"math/bits"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Head failover (DESIGN.md §failover).
//
// The cluster head is the protocol's single point of availability failure: a
// head that fail-stops mid-round silences its whole cluster, and in
// steady-state operation (RunRetaining) the cluster would stay dead for every
// remaining epoch. Failover splits the repair across the phase structure:
//
//   - Phase I: the roster deterministically designates a deputy — the
//     highest-seed member — so every member knows the fallback before
//     aggregation starts, with zero extra wire bytes.
//   - Phase III: every member arms a head-silence watchdog one announce slot
//     after its head's slot. If the head's Announce was never overheard, the
//     member records the silence; the deputy additionally broadcasts a
//     Takeover, collects re-reported assembled columns, re-runs the subset
//     machinery (the dead head's own column is always missing, so a takeover
//     solve is by construction a degraded solve), and announces in the
//     head's stead. Witnessing survives unchanged: members verify the
//     deputy's announce exactly like a head's, and a takeover observed while
//     the head also announced (dual announce) raises an alarm — a
//     compromised deputy gains no forgery power the head didn't have.
//   - Cross-round: RunRetaining opens a repair window when silence, orphans,
//     or recovered nodes are pending — deputies of dead heads promote to
//     permanent heads (or dissolve remnants below the viability minimum so
//     orphans re-join neighbouring clusters), and crashed nodes reboot when
//     CrashRecover is set.

// deputyOf returns the roster's designated deputy head: the highest-seed
// entry other than the head. Seeds are distinct (the share algebra rejects
// duplicates), so the rule is unambiguous and every member computes the same
// deputy locally.
func deputyOf(r message.Roster) topo.NodeID {
	best := topo.NodeID(-1)
	var bestSeed field.Element
	for _, e := range r.Entries {
		if e.ID == r.Head {
			continue
		}
		if best < 0 || e.Seed > bestSeed {
			best, bestSeed = e.ID, e.Seed
		}
	}
	return best
}

// DeputyOf exposes the designated deputy of a head's cluster after a Run
// (-1 when the node is not a viable head) for tests and experiments.
func (p *Protocol) DeputyOf(head topo.NodeID) topo.NodeID {
	if p.nodes == nil || int(head) >= len(p.nodes) {
		return -1
	}
	return p.nodes[head].deputy
}

// scheduleWatchdogs arms the head-silence watchdog on every viable-cluster
// member. Called at the announce phase start, like scheduleAnnounces.
func (p *Protocol) scheduleWatchdogs() {
	if p.cfg.NoFailover {
		return
	}
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleMember || !viableCluster(st) || st.deputy < 0 {
			continue
		}
		p.env.Eng.After(p.watchdogDelay(st), func() { p.watchdogExpire(id) })
	}
}

// watchdogDelay is the member's silence deadline relative to the announce
// phase start: one epoch slot after its head's own announce slot (heads at
// hops h announce in slot MaxHops-h with at most half a slot of jitter).
func (p *Protocol) watchdogDelay(st *nodeState) time.Duration {
	headHops := st.hops
	for _, c := range st.heardCH {
		if c.id == st.head {
			headHops = c.hops
			break
		}
	}
	slot := p.cfg.MaxHops - headHops + 1
	if slot < 1 {
		slot = 1
	}
	return time.Duration(slot) * p.cfg.EpochSlot
}

// watchdogExpire records head silence and, at the deputy, starts the
// takeover. A forging deputy (TakeoverForger) claims the takeover even
// though its head announced — the dual-announce attack.
func (p *Protocol) watchdogExpire(id topo.NodeID) {
	st := &p.nodes[id]
	if st.role != roleMember || p.env.MAC.Disabled(id) {
		return
	}
	forging := p.cfg.TakeoverForger == id && st.deputy == id
	if st.headAnnounced && !forging {
		return
	}
	if !forging {
		st.headSilent = true
		if p.env.Sink != nil {
			p.emit(id, st.head, trace.PhaseFailover, trace.TypeWatchdog, "head-silent",
				"no announce overheard from head %d", st.head)
		}
	}
	if st.deputy != id {
		return
	}
	p.startTakeover(id)
}

// startTakeover broadcasts the deputy's takeover claim (twice, jittered, for
// broadcast-loss resilience — like Reassemble) and schedules the solve
// decision half an epoch slot later, once members had time to re-report.
func (p *Protocol) startTakeover(id topo.NodeID) {
	st := &p.nodes[id]
	st.tookOver = true
	st.takeoverBy = id
	p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateSilent,
		"deputy's watchdog expired with no announce from head %d", st.head)
	p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateTakeover,
		"deputy claiming takeover of head %d", st.head)
	payload := message.MarshalTakeover(message.Takeover{Head: st.head})
	send := func() {
		p.env.MAC.Send(p.build(message.KindTakeover, id, message.BroadcastID, p.round, payload))
	}
	slot := p.cfg.EpochSlot
	p.env.Eng.After(p.jitter(slot/8), send)
	p.env.Eng.After(slot/8+p.jitter(slot/8), send)
	p.env.Eng.After(slot/2, func() { p.takeoverDecide(id) })
}

// onTakeover handles a deputy's takeover claim. A member that saw its head
// announce refuses silently — the claim is mistaken (the deputy lost the
// overhear) or forged, and the member cannot tell which; if the deputy goes
// on to announce anyway, the dual-announce witness in witnessAnnounce
// rejects the round. Members that also observed silence re-report their
// committed assembled column to the deputy so the stand-in solve has rows —
// each re-report doubles as a corroborating silence vote.
func (p *Protocol) onTakeover(at topo.NodeID, msg *message.Message) {
	t, err := message.UnmarshalTakeover(msg.Payload)
	if err != nil {
		return
	}
	st := &p.nodes[at]
	if st.head != t.Head || st.deputy != msg.From || at == msg.From {
		return // not our cluster's deputy claiming our head: ignore
	}
	// Remember that OUR deputy claimed OUR head dead. This is what scopes the
	// dual-announce alarm to this cluster: the same node can sit in two
	// rosters after churn repair, and an announce it originates for the other
	// cluster must not read as a forgery here.
	st.deputyClaimed = true
	if st.role != roleMember {
		// The (live) head itself: rebut the claim so the deputy and the
		// members that lost the first transmission get a second chance to
		// observe the announce before the stand-in solve goes out. If the
		// deputy announces regardless, witnessAnnounce indicts on sight.
		p.rebutTakeover(at)
		return
	}
	if st.headAnnounced || st.takeoverBy == msg.From {
		return // head demonstrably alive, or duplicate claim broadcast
	}
	st.takeoverBy = msg.From
	a, ok := st.fSeenAt(st.myIdx)
	if !ok {
		return // never committed a report this round: nothing to re-send
	}
	payload, err := p.keep(message.AppendAssembled(p.arena.payloads.spare(), a))
	if err != nil {
		return
	}
	frame := p.build(message.KindAssembled, at, msg.From, p.round, payload)
	p.env.Eng.After(p.jitter(p.cfg.EpochSlot/8), func() { p.env.MAC.Send(frame) })
}

// rebutTakeover is the live head's answer to a takeover claim: re-broadcast
// the round's announce locally. The first (unicast) transmission evidently
// never reached the deputy, so a local broadcast re-arms every member's
// headAnnounced evidence and makes the honest deputy stand down before it
// announces. Sent as a broadcast it is witnessed but never absorbed or
// relayed (onAnnounce forwards addressed copies only), so the contribution
// cannot double-count. A head whose announce carried count 0 stays quiet:
// the takeover solve is that cluster's recovery path, not a forgery.
func (p *Protocol) rebutTakeover(id topo.NodeID) {
	st := &p.nodes[id]
	if st.role != roleHead || p.env.MAC.Disabled(id) {
		return
	}
	if st.myAnnounce == nil || st.myAnnounce.ClusterCnt == 0 {
		return
	}
	payload, err := p.keep(message.AppendAnnounce(p.arena.payloads.spare(), *st.myAnnounce))
	if err != nil {
		return
	}
	p.lifecycle(id, id, trace.PhaseFailover, trace.StateRebutted,
		"live head re-broadcasting its announce against a takeover claim")
	p.env.Eng.After(p.jitter(p.cfg.EpochSlot/16), func() {
		p.env.MAC.Send(p.build(message.KindAnnounce, id, message.BroadcastID, p.round, payload))
	})
}

// takeoverDecide computes the solvable participant subset from the
// re-reported columns — the dead head's own column never arrives, so this is
// always the degraded path — and drives the same Reassemble machinery the
// head would have used, with the deputy standing in as collector.
func (p *Protocol) takeoverDecide(id topo.NodeID) {
	st := &p.nodes[id]
	if p.env.MAC.Disabled(id) || !viableCluster(st) {
		return
	}
	if p.cfg.ActiveClusters != nil && !p.cfg.ActiveClusters[st.head] {
		return // the localization bisection muted this cluster
	}
	if p.cfg.TakeoverForger == id {
		// The compromised deputy does not bother collecting evidence — it
		// fabricates an aggregate outright (the strongest thing a malicious
		// deputy can do with the takeover machinery).
		p.env.Eng.After((p.cfg.AggAt-p.cfg.AssembleAt)/4, func() { p.forgedTakeoverAnnounce(id) })
		return
	}
	if st.headAnnounced {
		st.headSilent = false
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateStoodDown,
			"head announced after all")
		return
	}
	m := len(st.roster.Entries)
	full := message.FullMask(m)
	common := ^uint64(0)
	var reporters uint64
	for i := 0; i < m; i++ {
		a, ok := st.fSeenAt(i)
		if !ok {
			continue
		}
		reporters |= uint64(1) << uint(i)
		common &= a.Mask
	}
	// Majority corroboration: members that saw the head announce refuse the
	// claim, so a deputy that merely lost the overhear on a lossy channel
	// collects almost no re-reports and stands down here. A genuinely dead
	// head is silent toward everyone, so every live member re-reports.
	votes := bits.OnesCount64(reporters &^ (uint64(1) << uint(st.myIdx)))
	if 2*votes < m-2 {
		// The silent majority refused to corroborate — they saw the head
		// announce, so the deputy's own missed overhear was channel loss,
		// not a death. Retract the silence verdict or the next round's
		// repair would promote this deputy over a live head.
		st.headSilent = false
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateStoodDown,
			"only %d of %d members corroborate the silence; treating the missed announce as channel loss", votes, m-2)
		return
	}
	p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateCorroborated,
		"%d of %d members corroborate the head's silence", votes, m-2)
	mask := common & reporters & full
	if p.cfg.NoDegrade || bits.OnesCount64(mask) < shares.MinClusterSize {
		p.failedClusters++
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateFailed,
			"unrecoverable after takeover: mask=%#x", mask)
		return
	}
	p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateDegraded,
		"takeover reassemble mask=%#x (%d of %d members)", mask, bits.OnesCount64(mask), m)
	st.fSub = make(map[int]message.Assembled, bits.OnesCount64(mask))
	payload := message.MarshalReassemble(message.Reassemble{Mask: mask})
	send := func() {
		p.env.MAC.Send(p.build(message.KindReassemble, id, message.BroadcastID, p.round, payload))
	}
	slot := p.cfg.EpochSlot
	p.env.Eng.After(p.jitter(slot/8), send)
	p.env.Eng.After(slot/8+p.jitter(slot/8), send)
	if st.subMask == mask && st.subSent != nil {
		// The dead head already ran a sub-exchange over exactly this subset
		// before going silent; our committed sub-report is reusable.
		st.fSub[st.myIdx] = *st.subSent
	} else {
		st.subMask = 0 // supersede any half-finished exchange of the dead head
		p.startSubExchangeAfter(id, mask, slot/4)
	}
	p.env.Eng.After((p.cfg.AggAt-p.cfg.AssembleAt)/4, func() { p.takeoverAnnounce(id) })
}

// takeoverAnnounce solves the cluster from the deputy's collected state and
// announces in the head's stead. The announce carries the deputy as Origin
// over the original roster's algebra, so members witness it with the same
// F-row and re-solve checks as a head announce.
func (p *Protocol) takeoverAnnounce(id topo.NodeID) {
	st := &p.nodes[id]
	if p.env.MAC.Disabled(id) {
		return
	}
	if st.headAnnounced {
		// The head's rebuttal (or a relayed copy of its announce) arrived
		// between the claim and now: the head is alive and its aggregate is
		// in flight. Announcing on top of it would double-count — abort.
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateStoodDown,
			"head announced after all; aborting stand-in announce")
		return
	}
	sums, cnt, effMask, ok := p.solveCluster(st)
	if !ok {
		p.failedClusters++
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateFailed,
			"stand-in solve failed; cluster lost this round")
		return
	}
	st.effMask = effMask
	if effMask != message.FullMask(len(st.roster.Entries)) {
		p.degradedClusters++
	}
	c := p.nComponents()
	a := message.Announce{
		Origin:      id,
		ClusterSums: sums,
		ClusterCnt:  cnt,
		Components:  uint8(c),
		Mask:        effMask,
	}
	if !p.cfg.NoWitness {
		a.FMatrix = p.announceFMatrix(st, effMask)
	}
	st.myAnnounce = &a
	target := p.takeoverTarget(id)
	if target < 0 {
		return
	}
	p.takeovers++
	if p.env.Sink != nil {
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateAnnounced,
			"stand-in announce sum0=%v cnt=%d to=%d", a.ClusterSumOrZero(), cnt, target)
	}
	payload, err := p.keep(message.AppendAnnounce(p.arena.payloads.spare(), a))
	if err != nil {
		return
	}
	p.env.MAC.Send(p.build(message.KindAnnounce, id, target, p.round, payload))
}

// forgedTakeoverAnnounce is the TakeoverForger attack body: the compromised
// deputy announces a fabricated aggregate for a cluster whose head is alive
// and already announced. Every member that witnessed the head's announce
// raises the dual-announce alarm on sight of this one, so the forgery buys
// the deputy nothing but a rejected round.
func (p *Protocol) forgedTakeoverAnnounce(id topo.NodeID) {
	st := &p.nodes[id]
	if p.env.MAC.Disabled(id) {
		return
	}
	m := len(st.roster.Entries)
	c := p.nComponents()
	headIdx := -1
	for i, e := range st.roster.Entries {
		if e.ID == st.head {
			headIdx = i
			break
		}
	}
	if headIdx < 0 {
		return
	}
	mask := message.FullMask(m) &^ (uint64(1) << uint(headIdx))
	sums := make([]field.Element, c)
	sums[0] = field.FromInt(1 << 20) // arbitrary inflated total
	a := message.Announce{
		Origin:      id,
		ClusterSums: sums,
		ClusterCnt:  uint32(bits.OnesCount64(mask)),
		Components:  uint8(c),
		Mask:        mask,
		FMatrix:     make([]field.Element, bits.OnesCount64(mask)*c),
	}
	st.myAnnounce = &a
	target := p.takeoverTarget(id)
	if target < 0 {
		return
	}
	p.takeovers++
	if p.env.Sink != nil {
		p.lifecycle(id, st.head, trace.PhaseFailover, trace.StateAnnounced,
			"FORGED stand-in announce sum0=%v to=%d", sums[0], target)
	}
	payload, err := p.keep(message.AppendAnnounce(p.arena.payloads.spare(), a))
	if err != nil {
		return
	}
	p.env.MAC.Send(p.build(message.KindAnnounce, id, target, p.round, payload))
}

// takeoverTarget routes the stand-in announce toward the base station. The
// CH-tree absorption path is mostly closed this late in the announce phase,
// so the deputy prefers the base station directly, then its flood parent
// (reverse-path relay), then any other in-range head — all of which forward
// late announces onward instead of absorbing them (see onAnnounce).
func (p *Protocol) takeoverTarget(id topo.NodeID) topo.NodeID {
	st := &p.nodes[id]
	if st.bsDirect {
		return topo.BaseStationID
	}
	if st.helloParent >= 0 && st.helloParent != st.head {
		return st.helloParent
	}
	for _, c := range st.heardCH {
		if c.id != st.head && c.id != id {
			return c.id
		}
	}
	return -1
}

// pendingRepair reports whether the next retained round must open a repair
// window: head silence observed, a takeover happened, or crashed nodes are
// due a reboot.
func (p *Protocol) pendingRepair() bool {
	if p.cfg.NoFailover {
		return false
	}
	for i := 1; i < len(p.nodes); i++ {
		if p.env.MAC.Disabled(topo.NodeID(i)) {
			// A dead node's silence flags stay frozen until it is rebooted;
			// only reboot duty itself opens a window for it.
			if p.cfg.CrashRecover {
				return true
			}
			continue
		}
		if p.nodes[i].headSilent {
			return true
		}
	}
	return false
}

// scheduleRepair runs the cross-round churn repair at the start of a
// retained round, inside a dedicated window of the given length (the shares
// phase starts at its close):
//
//	t=0        crashed nodes reboot (CrashRecover); deputies of silent
//	           heads promote — or dissolve remnants below viability
//	t=w/2      members still orphaned re-join a neighbouring cluster
//	t=3w/4     heads that adopted orphans publish their extended rosters
func (p *Protocol) scheduleRepair(window time.Duration) {
	p.inRepair = true
	p.phaseMark(trace.PhaseRepair, "cross-round churn repair window (%v)", window)
	if p.cfg.CrashRecover {
		for i := 1; i < p.env.Net.Size(); i++ {
			id := topo.NodeID(i)
			if p.env.MAC.Disabled(id) {
				p.env.MAC.Enable(id)
				if p.env.Sink != nil {
					p.emit(id, trace.NoCluster, trace.PhaseRepair, trace.TypeRecover,
						"reboot", "crashed node rebooted at repair-window open")
				}
			}
		}
	}
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleMember || !st.headSilent || st.deputy != id || p.env.MAC.Disabled(id) {
			continue
		}
		p.promoteDeputy(id, window)
	}
	p.env.Eng.After(window/2, func() { p.repairOrphans() })
	p.env.Eng.After(window*3/4, func() { p.repairFinalize(window) })
	p.env.Eng.After(window, func() { p.inRepair = false })
}

// promoteDeputy makes the deputy of a dead head the cluster's permanent
// head: the promoted roster is the old one minus the dead head with the
// deputy first (the head is always entry 0). A remnant below the viability
// minimum is dissolved instead, releasing its members to re-join elsewhere.
func (p *Protocol) promoteDeputy(id topo.NodeID, window time.Duration) {
	st := &p.nodes[id]
	dead := st.head
	st.headSilent, st.tookOver = false, false
	var self message.RosterEntry
	entries := make([]message.RosterEntry, 0, len(st.roster.Entries))
	for _, e := range st.roster.Entries {
		switch e.ID {
		case dead:
		case id:
			self = e
		default:
			entries = append(entries, e)
		}
	}
	if self.ID != id {
		return // corrupt state: we are not in our own roster
	}
	entries = append([]message.RosterEntry{self}, entries...)
	if !shares.Viable(len(entries)) {
		p.lifecycle(id, dead, trace.PhaseRepair, trace.StateDissolved,
			"remnant of dead head %d too small (m=%d); dissolving", dead, len(entries))
		payload, err := message.MarshalRoster(message.Roster{Head: dead})
		if err == nil {
			p.env.Eng.After(p.jitter(window/8), func() {
				p.env.MAC.Send(p.build(message.KindRoster, id, message.BroadcastID, p.round, payload))
			})
		}
		p.forgetHead(st, dead)
		p.clearClusterState(st)
		p.rejoin(id, dead)
		return
	}
	st.role = roleHead
	st.head = id
	p.forgetHead(st, dead)
	canonicalizeSeeds(entries)
	promoted := message.Roster{Head: id, Entries: entries}
	p.installRoster(id, promoted)
	p.promotions++
	p.lifecycle(id, id, trace.PhaseRepair, trace.StatePromoted,
		"deputy of dead head %d is now head (m=%d)", dead, len(entries))
	payload, err := message.MarshalRoster(promoted)
	if err != nil {
		return
	}
	// Beacon as a head so neighbours learn the new routing/join candidate,
	// then publish the promoted roster twice, jittered, like formation does.
	p.sendHello(id, helloHead, st.hops)
	jit := p.jitter(window / 8)
	send := func() {
		p.env.MAC.Send(p.build(message.KindRoster, id, message.BroadcastID, p.round, payload))
	}
	p.env.Eng.After(jit, send)
	p.env.Eng.After(jit+window/4, send)
}

// repairOrphans re-homes members whose head stayed silent and whom no
// promotion reached by mid-window: forget the dead head and join a
// neighbouring cluster (the adopting head publishes its extended roster at
// the finalize step).
func (p *Protocol) repairOrphans() {
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleMember || !st.headSilent || p.env.MAC.Disabled(id) {
			continue
		}
		dead := st.head
		st.headSilent = false
		p.forgetHead(st, dead)
		p.clearClusterState(st)
		p.rejoin(id, dead)
		if st.head >= 0 && p.env.Sink != nil {
			p.lifecycle(id, st.head, trace.PhaseRepair, trace.StateOrphaned,
				"orphaned by dead head %d; joining %d", dead, st.head)
		}
	}
}

// repairFinalize publishes the extended roster of every head that adopted
// orphans during the repair window.
func (p *Protocol) repairFinalize(window time.Duration) {
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleHead || len(st.repairJoiners) == 0 || p.env.MAC.Disabled(id) {
			continue
		}
		adopted := st.repairJoiners
		st.repairJoiners = nil
		if len(st.roster.Entries) == 0 || st.roster.Entries[0].ID != id {
			continue // no self-rooted roster to extend
		}
		roster := message.Roster{Head: id}
		roster.Entries = append(roster.Entries, st.roster.Entries...)
		for _, j := range adopted {
			if len(roster.Entries) >= message.MaxClusterSize {
				break
			}
			roster.Entries = append(roster.Entries, j)
			p.orphansRejoined++
		}
		canonicalizeSeeds(roster.Entries)
		payload, err := message.MarshalRoster(roster)
		if err != nil {
			continue
		}
		p.installRoster(id, roster)
		if p.env.Sink != nil {
			p.lifecycle(id, id, trace.PhaseRepair, trace.StateAdopted,
				"adopted %d orphans (m=%d)", len(adopted), len(roster.Entries))
		}
		jit := p.jitter(window / 16)
		send := func() {
			p.env.MAC.Send(p.build(message.KindRoster, id, message.BroadcastID, p.round, payload))
		}
		p.env.Eng.After(jit, send)
		p.env.Eng.After(jit+window/8, send)
	}
}

// forgetHead removes a dead head from a node's join/routing candidates.
func (p *Protocol) forgetHead(st *nodeState, dead topo.NodeID) {
	kept := st.heardCH[:0]
	for _, c := range st.heardCH {
		if c.id != dead {
			kept = append(kept, c)
		}
	}
	st.heardCH = kept
}

// clearClusterState detaches a node from its (dead) cluster so stale roster
// state can never drive the share phases; a fresh roster from the adopting
// head rebuilds it.
func (p *Protocol) clearClusterState(st *nodeState) {
	st.roster = message.Roster{}
	st.myIdx = -1
	st.algebra = nil
	st.recvShares = nil
	st.deputy = -1
}
