package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
)

// witnessFixture runs a clean ideal round and returns the protocol, a
// viable head, and one of its members — the raw material for crafting
// forged announces against the witness logic directly.
func witnessFixture(t *testing.T) (*Protocol, topo.NodeID, topo.NodeID) {
	t.Helper()
	env, p := run(t, 400, 61, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	head := p.PickAttacker(false)
	if head < 0 {
		t.Skip("no viable head")
	}
	var member topo.NodeID = -1
	for i := 1; i < env.Net.Size(); i++ {
		id := topo.NodeID(i)
		if id != head && p.HeadOf(id) == head && p.nodes[id].myIdx >= 0 &&
			viableCluster(&p.nodes[id]) {
			member = id
			break
		}
	}
	if member < 0 {
		t.Skip("no viable member")
	}
	return p, head, member
}

// honestAnnounce reconstructs what the head actually announced.
func honestAnnounce(t *testing.T, p *Protocol, head topo.NodeID) message.Announce {
	t.Helper()
	st := &p.nodes[head]
	if st.myAnnounce == nil {
		t.Skip("head never announced")
	}
	// Deep-copy so tests can tamper freely.
	a := *st.myAnnounce
	a.ClusterSums = append([]field.Element(nil), st.myAnnounce.ClusterSums...)
	a.FMatrix = append([]field.Element(nil), st.myAnnounce.FMatrix...)
	a.Children = append([]message.ChildEntry(nil), st.myAnnounce.Children...)
	return a
}

func TestWitnessAcceptsHonestAnnounce(t *testing.T) {
	p, head, member := witnessFixture(t)
	a := honestAnnounce(t, p, head)
	before := p.alarmsRaised
	p.witnessAnnounce(member, a)
	if p.alarmsRaised != before {
		t.Error("honest announce raised an alarm")
	}
}

func TestWitnessCatchesTamperedSum(t *testing.T) {
	p, head, member := witnessFixture(t)
	a := honestAnnounce(t, p, head)
	if len(a.ClusterSums) == 0 {
		t.Skip("failed cluster")
	}
	a.ClusterSums[0] = a.ClusterSums[0].Add(1)
	before := p.alarmsRaised
	p.witnessAnnounce(member, a)
	if p.alarmsRaised != before+1 {
		t.Error("tampered cluster sum not witnessed")
	}
}

func TestWitnessCatchesForgedOwnEntry(t *testing.T) {
	p, head, member := witnessFixture(t)
	a := honestAnnounce(t, p, head)
	st := &p.nodes[member]
	c := int(a.Components)
	// Forge the witness's own F entry AND adjust the sum consistently — the
	// classic "make the solve look right" attack. Solving the forged vector
	// yields a different sum; announcing that sum keeps check (c) quiet, so
	// it must be check (b), the own-entry comparison, that fires.
	a.FMatrix[st.myIdx*c] = a.FMatrix[st.myIdx*c].Add(7)
	forgedSum, err := st.algebra.RecoverSum(columnOf(a, 0, len(st.roster.Entries)))
	if err != nil {
		t.Fatal(err)
	}
	a.ClusterSums[0] = forgedSum
	before := p.alarmsRaised
	p.witnessAnnounce(member, a)
	if p.alarmsRaised != before+1 {
		t.Error("forged own F entry not witnessed")
	}
}

func TestWitnessCatchesCountInflation(t *testing.T) {
	p, head, member := witnessFixture(t)
	a := honestAnnounce(t, p, head)
	a.ClusterCnt += 5
	before := p.alarmsRaised
	p.witnessAnnounce(member, a)
	if p.alarmsRaised != before+1 {
		t.Error("count inflation not witnessed")
	}
}

func TestWitnessCatchesMissingFMatrix(t *testing.T) {
	p, head, member := witnessFixture(t)
	a := honestAnnounce(t, p, head)
	a.FMatrix = nil
	before := p.alarmsRaised
	p.witnessAnnounce(member, a)
	if p.alarmsRaised != before+1 {
		t.Error("contribution without F matrix not witnessed")
	}
}

func TestWitnessIgnoresOtherClusters(t *testing.T) {
	p, head, _ := witnessFixture(t)
	a := honestAnnounce(t, p, head)
	if len(a.ClusterSums) > 0 {
		a.ClusterSums[0] = a.ClusterSums[0].Add(99)
	}
	// A member of a DIFFERENT cluster must not witness this announce.
	var outsider topo.NodeID = -1
	for i := 1; i < len(p.nodes); i++ {
		id := topo.NodeID(i)
		if p.HeadOf(id) != head && p.nodes[id].role == roleMember && viableCluster(&p.nodes[id]) {
			outsider = id
			break
		}
	}
	if outsider < 0 {
		t.Skip("no outsider member")
	}
	before := p.alarmsRaised
	p.witnessAnnounce(outsider, a)
	if p.alarmsRaised != before {
		t.Error("outsider witnessed a foreign cluster's announce")
	}
}

func TestChildWitnessCatchesEchoTamper(t *testing.T) {
	env, p := run(t, 500, 63, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	// Find a direct child-parent head pair.
	var child, parent topo.NodeID = -1, -1
	for _, c := range p.Heads() {
		if s := p.nodes[c].sentTo; s >= 0 && s != topo.BaseStationID && p.nodes[s].role == roleHead {
			child, parent = c, s
			break
		}
	}
	if child < 0 {
		t.Skip("no direct head pair")
	}
	a := honestAnnounce(t, p, parent)
	tampered := false
	for i := range a.Children {
		if a.Children[i].Child == child && len(a.Children[i].Totals) > 0 {
			a.Children[i].Totals[0] = a.Children[i].Totals[0].Add(123)
			tampered = true
		}
	}
	if !tampered {
		t.Skip("parent did not echo the child (announce ordering)")
	}
	before := p.alarmsRaised
	p.witnessAnnounce(child, a)
	if p.alarmsRaised != before+1 {
		t.Error("tampered child echo not witnessed")
	}
}

// TestWitnessCatchesForgedEffectiveMask pins the degraded-recovery attack
// surface: a head that claims a subset round which never happened. The forged
// announce is made fully self-consistent — subset mask, matching count, the
// restricted F matrix, and sums that re-solve correctly over the claimed
// subset — so every structural and algebraic check passes. Only the witness's
// own knowledge (it never committed a sub-report for this mask) exposes it.
func TestWitnessCatchesForgedEffectiveMask(t *testing.T) {
	env, p := run(t, 400, 61, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	// A subset needs >= 3 participants after dropping one, so find a viable
	// member of a cluster with at least 4 whose head announced the full mask.
	var head, member topo.NodeID = -1, -1
	for i := 1; i < env.Net.Size(); i++ {
		id := topo.NodeID(i)
		ms := &p.nodes[id]
		if ms.role != roleMember || ms.myIdx < 0 || !viableCluster(ms) ||
			len(ms.roster.Entries) < 4 {
			continue
		}
		h := ms.head
		hs := &p.nodes[h]
		if hs.myAnnounce != nil && hs.myAnnounce.Mask == message.FullMask(len(ms.roster.Entries)) &&
			len(hs.myAnnounce.FMatrix) > 0 {
			head, member = h, id
			break
		}
	}
	if member < 0 {
		t.Skip("no viable member of a >=4 cluster")
	}
	a := honestAnnounce(t, p, head)
	st := &p.nodes[member]
	m := len(st.roster.Entries)
	full := message.FullMask(m)
	drop := 0
	if drop == st.myIdx {
		drop = 1
	}
	mask := full &^ (uint64(1) << uint(drop))
	c := int(a.Components)
	k := m - 1
	rows := make([]field.Element, 0, k*c)
	for i := 0; i < m; i++ {
		if mask&(uint64(1)<<uint(i)) != 0 {
			rows = append(rows, a.FMatrix[i*c:(i+1)*c]...)
		}
	}
	var sub shares.Algebra
	if err := st.algebra.SubsetInto(&sub, mask); err != nil {
		t.Fatal(err)
	}
	a.Mask = mask
	a.ClusterCnt = uint32(k)
	a.FMatrix = rows
	col := make([]field.Element, k)
	for comp := 0; comp < c; comp++ {
		for i := 0; i < k; i++ {
			col[i] = rows[i*c+comp]
		}
		sum, err := sub.RecoverSum(col)
		if err != nil {
			t.Fatal(err)
		}
		a.ClusterSums[comp] = sum
	}
	before := p.alarmsRaised
	p.witnessAnnounce(member, a)
	if p.alarmsRaised != before+1 {
		t.Error("forged effective mask not witnessed")
	}
}

// columnOf extracts component k's assembled column from an announce.
func columnOf(a message.Announce, k, m int) []field.Element {
	c := int(a.Components)
	out := make([]field.Element, m)
	for i := 0; i < m; i++ {
		out[i] = a.FMatrix[i*c+k]
	}
	return out
}
