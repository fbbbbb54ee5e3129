package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
)

// scheduleAnnounces arranges every head's single up-tree transmission,
// deepest flood levels first so children report before their parents, and
// arms the members' head-silence watchdogs one slot behind each head's own.
// Before any announce event fires it runs the batch solve: every cluster
// whose full report set is already in solves here, grouped by size, so the
// per-head announce events just read their precomputed sums.
func (p *Protocol) scheduleAnnounces() {
	p.phaseMark(trace.PhaseAnnounce, "CH-tree aggregation, witnessing, failover watchdogs")
	p.preSolveClusters()
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleHead || p.env.MAC.Disabled(id) {
			continue
		}
		slot := p.cfg.MaxHops - st.hops
		if slot < 0 {
			slot = 0
		}
		at := time.Duration(slot)*p.cfg.EpochSlot + p.jitter(p.cfg.EpochSlot/2)
		p.after(at, p.on.announce, id)
	}
	p.scheduleWatchdogs()
}

// solveGroup is one batch-solve unit: every pre-solvable cluster sharing an
// algebra. Canonical rosters (heads assign position seeds {1..m}) make that
// "every cluster of size m", so a round has one group — one weights table —
// per distinct cluster size.
type solveGroup struct {
	alg   *shares.Algebra
	heads []topo.NodeID
	rhs   []field.Element // m × (G·c) packed right-hand-side columns
	sums  []field.Element // G·c solved sums, c per cluster
}

// arenaTake hands out n elements from the round's solve arena. The arena
// only grows until steady state; earlier slices stay valid across growth
// (they keep the old backing), so callers hold them for the round.
func (p *Protocol) arenaTake(n int) []field.Element {
	base := len(p.solveArena)
	if cap(p.solveArena) < base+n {
		na := make([]field.Element, base, 2*(base+n))
		copy(na, p.solveArena)
		p.solveArena = na
	}
	p.solveArena = p.solveArena[:base+n]
	return p.solveArena[base : base+n : base+n]
}

// preSolveClusters is the announce-phase batch solve. It collects every
// live, active, viable head whose report set is already complete at full
// mask — the common case by the time the announce phase opens — groups the
// clusters by algebra, and solves each group's packed right-hand sides in a
// single weights pass per group.
//
// Everything else keeps the event-time solve: deputies (their state lives
// on the deputy node, not the head), degraded clusters (they solve over a
// subset algebra), and heads whose reports are still trickling in. Reports
// delivered after the batch solve cannot desynchronise the solved sums from
// the announce's F-matrix echo: a full-mask row can only be overwritten by
// a value-identical re-report (receive masks only grow, and full is full).
func (p *Protocol) preSolveClusters() {
	c := p.nComponents()
	heads := p.solveHeads[:0]
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.role != roleHead || p.env.MAC.Disabled(id) {
			continue
		}
		if p.cfg.ActiveClusters != nil && !p.cfg.ActiveClusters[id] {
			continue
		}
		if !viableCluster(st) {
			continue
		}
		m := len(st.roster.Entries)
		full := message.FullMask(m)
		if st.fSeenMask&full != full {
			continue
		}
		complete := true
		for j := 0; j < m; j++ {
			if a := st.fSeen[j]; a.Mask != full || len(a.Fs) != c {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		heads = append(heads, id)
	}
	p.solveHeads = heads

	// Group by algebra pointer: same algebra ⇒ same size and weights.
	// Group count is the number of distinct cluster sizes, so the linear
	// scans stay cheap. Groups take their algebras in order of first
	// appearance, and then each group's heads, ascending, are carved from
	// one buffer, which stops growing once it holds a round's heads.
	groups := p.solveGroups
	ng := 0
	for _, id := range heads {
		alg := p.nodes[id].algebra
		known := false
		for g := 0; g < ng && !known; g++ {
			known = groups[g].alg == alg
		}
		if !known {
			if ng == len(groups) {
				groups = append(groups, solveGroup{})
			}
			groups[ng].alg = alg
			ng++
		}
	}
	p.solveGroups = groups
	groups = groups[:ng]
	order := growTable(p.solveOrder, len(heads))
	p.solveOrder = order
	off := 0
	for g := range groups {
		groups[g].heads = order[off:off]
		for _, id := range heads {
			if p.nodes[id].algebra == groups[g].alg {
				groups[g].heads = append(groups[g].heads, id)
			}
		}
		off += len(groups[g].heads)
	}

	p.solveArena = p.solveArena[:0]
	for g := range groups {
		m, G := groups[g].alg.Size(), len(groups[g].heads)
		groups[g].rhs = p.arenaTake(m * G * c)
		groups[g].sums = p.arenaTake(G * c)
		p.batchSolveGroup(&groups[g])
	}

	p.emitRoundEngine(groups)
}

// batchSolveGroup packs the group's full-mask reports column-contiguously —
// cluster g's component j lands in column g·c+j — and recovers every
// cluster's sums in one weights pass. Field arithmetic is exact, so the
// results are bit-identical to the per-cluster event-time solve.
func (p *Protocol) batchSolveGroup(g *solveGroup) {
	c := p.nComponents()
	m := g.alg.Size()
	cols := len(g.heads) * c
	for gidx, id := range g.heads {
		st := &p.nodes[id]
		for row := 0; row < m; row++ {
			copy(g.rhs[row*cols+gidx*c:row*cols+(gidx+1)*c], st.fSeen[row].Fs)
		}
	}
	if err := g.alg.BatchSolver().SolveInto(g.sums, g.rhs, cols); err != nil {
		return // clusters stay unsolved; announce falls back to the event-time path
	}
	for gidx, id := range g.heads {
		st := &p.nodes[id]
		st.solvedSums = g.sums[gidx*c : (gidx+1)*c : (gidx+1)*c]
		st.solved = true
	}
}

// emitRoundEngine records the per-round engine telemetry: batch-solve group
// layout and deployment-grid occupancy — what aggtrace -summary needs to
// explain where round wall-clock went.
func (p *Protocol) emitRoundEngine(groups []solveGroup) {
	if p.env.Sink == nil {
		return
	}
	type mg struct{ m, g int }
	mgs := make([]mg, len(groups))
	for i := range groups {
		mgs[i] = mg{groups[i].alg.Size(), len(groups[i].heads)}
	}
	sort.Slice(mgs, func(a, b int) bool { return mgs[a].m < mgs[b].m })
	var sb strings.Builder
	for i, e := range mgs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "m=%d×%d", e.m, e.g)
	}
	cells, occ, maxo := p.env.Net.GridStats()
	p.emit(topo.BaseStationID, trace.NoCluster, trace.PhaseAnnounce, trace.TypeRound, "batch-solve",
		"presolved=%d groups=[%s] grid: %d/%d cells occupied, max %d nodes/cell",
		len(p.solveHeads), sb.String(), occ, cells, maxo)
}

// announceTarget picks where a head sends its announce: the shallowest head
// in direct radio range that sits strictly closer to the base station
// (enabling the child-echo witness), else the base station itself when in
// range, else the head's flood parent, which relays hop by hop along the
// flood tree (reverse-path forwarding).
func (p *Protocol) announceTarget(id topo.NodeID) (to topo.NodeID, directHead bool) {
	st := &p.nodes[id]
	best := topo.NodeID(-1)
	bestHops := st.hops
	for _, c := range st.heardCH {
		if c.id == id {
			continue
		}
		if c.hops < bestHops {
			best = c.id
			bestHops = c.hops
		}
	}
	if best >= 0 {
		return best, true
	}
	if st.bsDirect {
		return topo.BaseStationID, false
	}
	return st.helloParent, false
}

// clusterContribution solves the head's own cluster, honouring the
// undersized policy and the localization active-set, and returns the
// effective participant mask the sums cover (zero for plain or failed
// clusters). A nil sums vector means the cluster contributes nothing this
// round.
func (p *Protocol) clusterContribution(id topo.NodeID) ([]field.Element, uint32, uint64) {
	st := &p.nodes[id]
	if p.cfg.ActiveClusters != nil && !p.cfg.ActiveClusters[id] {
		return nil, 0, 0
	}
	if viableCluster(st) {
		if st.solved {
			// Solved in the announce-phase batch solve: by construction a
			// complete full-mask solve, so neither resilience counter moves.
			st.effMask = message.FullMask(len(st.roster.Entries))
			return st.solvedSums, uint32(len(st.roster.Entries)), st.effMask
		}
		sums, cnt, effMask, ok := p.solveCluster(st)
		if !ok {
			p.failedClusters++
			return nil, 0, 0 // incomplete exchange: cluster fails the round
		}
		st.effMask = effMask
		if effMask != message.FullMask(len(st.roster.Entries)) {
			p.degradedClusters++
		}
		return sums, cnt, effMask
	}
	if p.cfg.Undersized == UndersizedPlain {
		// Head's own reading plus whatever members reported plainly.
		sums := p.arena.elems.alloc(p.nComponents())
		p.readingVectorInto(sums, id)
		for k := range sums {
			if k < len(st.plainSums) {
				sums[k] = sums[k].Add(st.plainSums[k])
			}
		}
		return sums, st.plainCnt + 1, 0
	}
	return nil, 0, 0
}

// announce transmits the head's Announce toward the base station (ARQ
// unicast; the cluster's witnesses and a direct parent head's children
// overhear it promiscuously).
func (p *Protocol) announce(id topo.NodeID) {
	st := &p.nodes[id]
	if p.env.MAC.Disabled(id) {
		return // crashed after scheduling: a silent head, not a failed solve
	}
	target, direct := p.announceTarget(id)
	if target < 0 {
		return // never reached by the flood
	}
	c := p.nComponents()
	sums, cnt, effMask := p.clusterContribution(id)
	// Children aliases the head's collected entries: a head appends no more
	// once it has announced (onAnnounce forwards late ones instead), and
	// both are reset together with the round.
	a := message.Announce{
		Origin:      id,
		ClusterSums: sums,
		ClusterCnt:  cnt,
		Components:  uint8(c),
		Children:    st.children,
	}
	// The announce carries the effective participant set: the full roster
	// mask after a complete exchange, the strict subset M after degraded
	// recovery, zero for plain or failed clusters. Witnesses re-solve
	// against exactly this set.
	if cnt > 0 && viableCluster(st) {
		a.Mask = effMask
	}
	// Echo the solved F matrix — rows in ascending mask-bit order — so
	// members can witness the cluster sums (skipped under NoWitness).
	if cnt > 0 && viableCluster(st) && !p.cfg.NoWitness {
		a.FMatrix = p.announceFMatrix(st, effMask)
	}
	// Pollution attack: tamper with the outgoing aggregate (component 0).
	if id == p.cfg.Polluter && p.round >= p.cfg.PolluteFromRound &&
		(p.cfg.ActiveClusters == nil || p.cfg.ActiveClusters[id]) {
		delta := field.FromInt(p.cfg.PollutionDelta)
		polluteOwn := func() {
			if a.ClusterSums == nil {
				a.ClusterSums = p.arena.elems.alloc(c)
			}
			a.ClusterSums[0] = a.ClusterSums[0].Add(delta)
		}
		switch p.cfg.Target {
		case PolluteOwnSum:
			polluteOwn()
		case PolluteChild:
			if len(a.Children) > 0 && len(a.Children[0].Totals) > 0 {
				a.Children[0].Totals[0] = a.Children[0].Totals[0].Add(delta)
			} else {
				polluteOwn()
			}
		}
	}
	st.setAnnounce(a)
	if direct {
		st.sentTo = target
	}
	if p.env.Sink != nil {
		p.lifecycle(id, id, trace.PhaseAnnounce, trace.StateAnnounced,
			"sum0=%v cnt=%d children=%d to=%d direct=%v",
			a.ClusterSumOrZero(), a.ClusterCnt, len(a.Children), target, direct)
	}
	payload, err := p.keep(message.AppendAnnounce(p.arena.payloads.spare(), a))
	if err != nil {
		return
	}
	p.env.MAC.Send(p.build(message.KindAnnounce, id, target, p.round, payload))
}

// announceFMatrix builds the echoed F matrix for an announce — one row per
// effective participant, ascending mask-bit order — from the full-exchange
// reports or, for a strict subset, the sub-exchange reports. Shared by the
// head's announce and the deputy's takeover announce.
func (p *Protocol) announceFMatrix(st *nodeState, effMask uint64) []field.Element {
	m := len(st.roster.Entries)
	full := message.FullMask(m)
	c := p.nComponents()
	rows := bits.OnesCount64(effMask)
	fm := p.arena.elems.alloc(rows * c)[:0]
	for i := 0; i < m; i++ {
		if effMask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		src := st.fSeen[i]
		if effMask != full {
			src, _ = st.fSubAt(i)
		}
		fm = append(fm, src.Fs[:c]...)
	}
	return fm
}

// onAnnounce handles every announce reception: witnessing (overheard first
// transmissions), absorption (heads and the base station), and reverse-path
// relaying (members).
func (p *Protocol) onAnnounce(at topo.NodeID, msg *message.Message) {
	if err := message.UnmarshalAnnounceInto(msg.Payload, &p.rxAnnounce); err != nil {
		return
	}
	a := p.rxAnnounce // shares the scratch's slices: copy what is kept
	st := &p.nodes[at]

	// Any copy of our head's announce — first transmission or relayed —
	// proves the head lived through this round (watchdog evidence), and
	// retracts an already-expired watchdog so cross-round repair does not
	// dismember a live cluster whose first transmission was merely lost.
	if st.role == roleMember && a.Origin == st.head {
		st.headAnnounced = true
		st.headSilent = false
		if a.ClusterCnt > 0 {
			st.headContributed = true
		}
	}

	// Witnessing applies to the origin's own transmission only (relays are
	// not re-witnessed; the relay path cannot aggregate or modify without
	// detection at the absorbing head's own witnesses).
	if msg.From == a.Origin && at != topo.BaseStationID && !p.cfg.NoWitness {
		p.witnessAnnounce(at, a)
	}

	if msg.To != at {
		return
	}
	// Structural sanity applies to every absorbed or relayed announce: a
	// failed cluster (count 0) must contribute nothing.
	if a.ClusterCnt == 0 && !p.cfg.NoWitness {
		for _, s := range a.ClusterSums {
			if s != 0 {
				p.raiseAlarm(at, a.Origin, s, 0, "nonzero-sums-from-failed-cluster")
				return
			}
		}
	}
	if at == topo.BaseStationID {
		total := a.TotalInto(p.scratchElems)
		p.scratchElems = total
		for k := 0; k < len(p.bsSums) && k < len(total); k++ {
			p.bsSums[k] = p.bsSums[k].Add(total[k])
		}
		p.bsCount += a.TotalCount()
		return
	}
	switch st.role {
	case roleHead:
		if st.myAnnounce != nil {
			// Already announced: absorbing now would silently drop the
			// contribution. Forward it along our own announce route instead
			// (hops decrease monotonically toward the base station, so
			// forwarding cannot loop). This is what delivers deputy takeover
			// announces, which by construction arrive after every head's
			// own slot.
			if target, _ := p.announceTarget(at); target >= 0 && target != msg.From {
				p.env.MAC.Send(p.build(message.KindAnnounce, at, target, msg.Round, msg.Payload))
			}
			return
		}
		st.children = append(st.children, message.ChildEntry{
			Child:  a.Origin,
			Totals: a.TotalInto(p.arena.elems.alloc(int(a.Components))),
			Count:  a.TotalCount(),
		})
	case roleMember:
		if st.helloParent >= 0 {
			p.env.MAC.Send(p.build(message.KindAnnounce, at, st.helloParent, msg.Round, msg.Payload))
		}
	}
}

// witnessAnnounce runs the two witness checks against an overheard
// first-transmission announce.
func (p *Protocol) witnessAnnounce(at topo.NodeID, a message.Announce) {
	st := &p.nodes[at]

	// Dual-announce check: an announce originated by this cluster's deputy
	// while the head also announced a CONTRIBUTION means the takeover claim
	// was forged — the head is demonstrably alive and its aggregate is
	// already in flight, so the deputy's stand-in can only double-count or
	// substitute a fabrication. Every member that observed both
	// transmissions indicts the deputy, as does the live head itself, so a
	// compromised deputy gains no forgery power from the failover path.
	// Two deliberate scopes keep honest rounds alarm-free:
	//   - deputyClaimed restricts the check to claims against THIS
	//     cluster's head: after churn repair the same node can be listed in
	//     one roster while legitimately standing in for another cluster's
	//     dead head;
	//   - a head whose announce carried count 0 (failed solve) does not
	//     indict, and neither do members who saw it — the takeover solve is
	//     the cluster's recovery path then, not a forgery.
	if a.Origin != at && st.deputy == a.Origin && st.deputyClaimed {
		if (st.role == roleMember && st.headContributed) ||
			(st.role == roleHead && st.myAnnounce != nil && st.myAnnounce.ClusterCnt > 0) {
			p.raiseAlarm(at, a.Origin, a.ClusterSumOrZero(), 0, "dual-announce")
			return
		}
	}

	// Witness check 1: members of the announcing head's cluster verify the
	// announce against the echoed F vector and the claimed participant set.
	// Four sub-checks:
	//   (a) the announce is structurally coherent: the mask fits the roster,
	//       the claimed count is exactly its popcount, and the F matrix has
	//       one row per claimed participant;
	//   (b) a claimed subset must be one this witness can solve (viable, and
	//       within the roster) — integrity holds through degradation;
	//   (c) my own F entry matches what I committed for exactly that
	//       participant set — a head forging a row, or claiming my
	//       participation in a subset round I never joined, is caught by me;
	//   (d) solving the echoed rows over the claimed set yields the
	//       announced ClusterSum — caught by every member, in or out of M.
	// A deputy's takeover announce is witnessed exactly like the head's own:
	// same roster, same algebra, same echoed F rows.
	ownCluster := st.head == a.Origin || (st.takeoverBy >= 0 && st.takeoverBy == a.Origin)
	if st.role == roleMember && ownCluster && viableCluster(st) && a.ClusterCnt > 0 {
		m := len(st.roster.Entries)
		c := p.nComponents()
		full := message.FullMask(m)
		k := bits.OnesCount64(a.Mask)
		switch {
		case int(a.Components) != c || a.Mask&^full != 0 ||
			int(a.ClusterCnt) != k || len(a.FMatrix) != k*c ||
			len(a.ClusterSums) != c:
			p.raiseAlarm(at, a.Origin, a.ClusterSumOrZero(), 0, "malformed-announce")
		default:
			solver := st.algebra
			if a.Mask != full {
				sub, err := p.subsetAlgebra(st, a.Mask)
				if err != nil {
					// Unsolvable claimed subset (e.g. below the viability
					// minimum): an honest head never announces one.
					p.raiseAlarm(at, a.Origin, a.ClusterSumOrZero(), 0, "unsolvable-claimed-subset")
					return
				}
				solver = sub
			}
			if observed, expected, forged := p.ownRowForged(st, a, full); forged {
				p.raiseAlarm(at, a.Origin, observed, expected, "own-row-forged")
				return
			}
			column := growTable(p.scratchElems, k)
			p.scratchElems = column
			for comp := 0; comp < c; comp++ {
				for i := 0; i < k; i++ {
					column[i] = a.FMatrix[i*c+comp]
				}
				sum, err := solver.RecoverSum(column)
				if err == nil && sum != a.ClusterSums[comp] {
					p.raiseAlarm(at, a.Origin, a.ClusterSums[comp], sum, "resolve-mismatch")
					return
				}
			}
		}
	}

	// Witness check 2: a head that announced directly to another head
	// verifies its echoed entry in that parent's announce. A missing entry
	// is tolerated (announce loss); a present-but-tampered entry is an
	// attack.
	if st.role == roleHead && st.sentTo == a.Origin && st.myAnnounce != nil {
		want := message.ChildEntry{
			Child:  at,
			Totals: st.myAnnounce.TotalInto(p.scratchElems),
			Count:  st.myAnnounce.TotalCount(),
		}
		p.scratchElems = want.Totals
		for _, ch := range a.Children {
			if ch.Child != at {
				continue
			}
			if !ch.Equal(want) {
				p.raiseAlarm(at, a.Origin, firstOrZero(ch.Totals), firstOrZero(want.Totals), "child-echo-tampered")
			}
			break
		}
	}
}

// ownRowForged checks the witness's own row of the echoed F matrix when the
// announce claims this member participated. For a full-mask announce the
// row must match the assembled report the member committed; for a degraded
// announce the member must actually hold a committed sub-report for exactly
// the claimed subset — a head that degrade-announces a set including a
// member that never joined that subset exchange forged the round, and that
// member is guaranteed to notice. An honest head only degrade-solves when
// it holds every claimed member's genuinely-sent sub-report with mask == M,
// so this check never fires on honest rounds.
func (p *Protocol) ownRowForged(st *nodeState, a message.Announce, full uint64) (observed, expected field.Element, forged bool) {
	myBit := uint64(1) << uint(st.myIdx)
	if a.Mask&myBit == 0 {
		return 0, 0, false // not claimed as a participant: nothing to compare
	}
	// Candidate commitments this member made for exactly the claimed
	// participant set: the full-exchange report when the mask covers the
	// whole roster, and the sub-exchange report when its mask matches.
	// Roster views can diverge across churn repair — a head that adopted
	// orphans appends them, so a mask that reads as full in a member's
	// stale pre-adoption roster is the head's degraded subset over the
	// extended one, covering the same nodes at the same indices. Either
	// commitment is a row this member genuinely sent for this set, so
	// either vouches for the echo.
	var slots [2]message.Assembled
	candidates := slots[:0]
	if a.Mask == full {
		if o, ok := st.fSeenAt(st.myIdx); ok {
			candidates = append(candidates, o)
		}
	}
	if st.subSent != nil && st.subSent.Mask == a.Mask {
		candidates = append(candidates, *st.subSent)
	}
	if len(candidates) == 0 {
		if a.Mask != full {
			return 0, 0, true // forged participation in a subset round
		}
		return 0, 0, false
	}
	c := int(a.Components)
	row := bits.OnesCount64(a.Mask & (myBit - 1))
	for _, own := range candidates {
		match := true
		for k := 0; k < c && k < len(own.Fs); k++ {
			if a.FMatrix[row*c+k] != own.Fs[k] {
				observed, expected = a.FMatrix[row*c+k], own.Fs[k]
				match = false
				break
			}
		}
		if match {
			return 0, 0, false
		}
	}
	return observed, expected, true
}

// firstOrZero returns the first component or zero.
func firstOrZero(vs []field.Element) field.Element {
	if len(vs) > 0 {
		return vs[0]
	}
	return 0
}

// raiseAlarm broadcasts a witness's integrity alarm. cause names which
// check fired — the forensic causal chain cmd/aggtrace renders.
func (p *Protocol) raiseAlarm(witness, suspect topo.NodeID, observed, expected field.Element, cause string) {
	if witness == p.cfg.Polluter || p.cfg.Colluders[witness] {
		return // the attacker and its colluders do not indict anyone
	}
	p.alarmsRaised++
	if p.env.Sink != nil {
		cluster := trace.NoCluster
		if h := p.nodes[witness].head; h >= 0 {
			cluster = h
		}
		if p.env.Sink != nil {
			p.emit(witness, cluster, trace.PhaseAnnounce, trace.TypeAlarm, cause,
				"suspect=%d observed=%v expected=%v", suspect, observed, expected)
		}
	}
	p.env.MAC.Send(p.build(
		message.KindAlarm, witness, message.BroadcastID, p.round,
		p.arena.payloads.take(message.AppendAlarm(p.arena.payloads.spare(),
			message.Alarm{Suspect: suspect, Observed: observed, Expected: expected}))))
}

// onAlarm floods alarms network-wide (every node rebroadcasts each distinct
// alarm once) and collects them at the base station. Flooding is what makes
// detection robust even when the only aggregation path passes through the
// suspect: a compromised node can drop an alarm, but it cannot stop its
// honest neighbours from relaying it around. Alarms are rare (one per
// witnessed violation), so the flood's cost is negligible and bounded by
// the per-node dedup.
func (p *Protocol) onAlarm(at topo.NodeID, msg *message.Message) {
	a, err := message.UnmarshalAlarm(msg.Payload)
	if err != nil {
		return
	}
	if at == topo.BaseStationID {
		p.bsAlarms[a] = struct{}{}
		return
	}
	st := &p.nodes[at]
	if at == p.cfg.Polluter || p.cfg.Colluders[at] {
		return // the attacker and its colluders suppress alarms
	}
	if _, seen := st.alarmed[a]; seen {
		return
	}
	if st.alarmed == nil {
		st.alarmed = make(map[message.Alarm]struct{})
	}
	st.alarmed[a] = struct{}{}
	p.env.MAC.Send(p.build(message.KindAlarm, at, message.BroadcastID, msg.Round, msg.Payload))
}
