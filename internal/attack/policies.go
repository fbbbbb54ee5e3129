package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// basePolicy provides no-op hooks so concrete policies only implement the
// seams they use.
type basePolicy struct{}

func (basePolicy) Configure(*core.Config)                           {}
func (basePolicy) Scout(*core.Protocol, *wsn.Env, *rand.Rand) error { return nil }
func (basePolicy) Arm(*Round)                                       {}
func (basePolicy) Observe(*Round, *message.Message)                 {}
func (basePolicy) Resolve(*Round)                                   {}
func (basePolicy) Intercept(_ *Round, _ topo.NodeID, m *message.Message) *message.Message {
	return m
}

// allRounds is the activation of always-on policies.
func allRounds(total int) []uint16 {
	out := make([]uint16, total)
	for i := range out {
		out[i] = uint16(i + 1)
	}
	return out
}

// oneRound draws a single activation round uniformly.
func oneRound(total int, rng *rand.Rand) []uint16 {
	return []uint16{uint16(1 + rng.Intn(total))}
}

// ---------------------------------------------------------------------------
// Collusion: the Sen–Maitra reconstruction attack.

// pairKey identifies an ordered member pair by roster index.
type pairKey struct{ i, j int }

// shareFact is one captured share value: member i's polynomial evaluated at
// member j's seed.
type shareFact struct {
	i, j int
	y    field.Element
}

// Collusion is the passive reconstruction adversary of the lineage papers:
// Colluders cluster members pool their complete internal state with an
// eavesdropper that breaks each honest share link with probability Px (or
// TwoHopPx for head-relayed shares, which are on the air twice). Everything
// captured in a round becomes a linear system over GF(p) (shares.System);
// a breach is declared only when the system uniquely determines the victim's
// reading AND the value matches ground truth — reconstructed value vs truth
// is part of the report, not assumed.
//
// The policy is entirely passive: it never transmits, so it is undetectable
// by construction. What the campaign measures is the privacy boundary, the
// simulated twin of attack.DiscloseTrial's algebraic verdict.
type Collusion struct {
	basePolicy
	Colluders int     // colluding members (roster indices 1..Colluders)
	Px        float64 // per-link eavesdropping probability
	TwoHopPx  float64 // probability for head-relayed shares (0 = use Px)

	// Scouted.
	head topo.NodeID

	// Learned from the wire (round 1 roster broadcast).
	roster    []message.RosterEntry
	algebra   *shares.Algebra
	memberIdx map[topo.NodeID]int
	victimIdx int

	// Per-round capture.
	seen         map[pairKey]bool
	facts        []shareFact
	fRows        []field.Element // F_j by roster index, from the announce echo
	sum          field.Element
	haveAnnounce bool
}

// Name implements Policy.
func (c *Collusion) Name() string { return "collude" }

// Target returns the scouted cluster head (-1 before Scout).
func (c *Collusion) Target() topo.NodeID {
	if c.head == 0 {
		return -1
	}
	return c.head
}

// Scout locks the largest cluster that can seat the colluders and a victim.
func (c *Collusion) Scout(p *core.Protocol, env *wsn.Env, rng *rand.Rand) error {
	if c.Colluders < 1 {
		return fmt.Errorf("collusion needs at least 1 colluder, got %d", c.Colluders)
	}
	best, bestSize := topo.NodeID(-1), 0
	for _, h := range p.Heads() {
		if m := p.ClusterSize(h); m >= c.Colluders+2 && m > bestSize {
			best, bestSize = h, m
		}
	}
	if best < 0 {
		return fmt.Errorf("no cluster can seat %d colluders plus a victim", c.Colluders)
	}
	c.head = best
	c.victimIdx = c.Colluders + 1 // head is index 0, colluders 1..Colluders
	return nil
}

// Activation implements Policy: the eavesdropper listens every round.
func (c *Collusion) Activation(total int, rng *rand.Rand) []uint16 { return allRounds(total) }

// Arm resets the per-round capture (the roster and algebra persist: retained
// rounds keep the round-1 cluster structure).
func (c *Collusion) Arm(r *Round) {
	c.seen = make(map[pairKey]bool)
	c.facts = c.facts[:0]
	c.fRows = nil
	c.sum = 0
	c.haveAnnounce = false
}

// Observe captures roster broadcasts, share links (direct and relayed), and
// the head's announce echo.
func (c *Collusion) Observe(r *Round, msg *message.Message) {
	switch msg.Kind {
	case message.KindRoster:
		if msg.From != c.head || c.algebra != nil {
			return
		}
		ros, err := message.UnmarshalRoster(msg.Payload)
		if err != nil || ros.Head != c.head || len(ros.Entries) < c.victimIdx+1 {
			return
		}
		seeds := make([]field.Element, len(ros.Entries))
		idx := make(map[topo.NodeID]int, len(ros.Entries))
		for i, e := range ros.Entries {
			seeds[i] = e.Seed
			idx[e.ID] = i
		}
		alg, err := shares.NewAlgebra(seeds)
		if err != nil {
			return
		}
		c.roster, c.algebra, c.memberIdx = ros.Entries, alg, idx
	case message.KindShare:
		c.captureShare(r, msg.From, msg.To, msg.Payload, false)
	case message.KindRelay:
		rel, err := message.UnmarshalRelay(msg.Payload)
		if err != nil {
			return
		}
		inner, err := message.Unmarshal(rel.Inner)
		if err != nil || inner.Kind != message.KindShare {
			return
		}
		c.captureShare(r, inner.From, inner.To, inner.Payload, true)
	case message.KindAnnounce:
		if c.algebra == nil || msg.From != c.head {
			return
		}
		a, err := message.UnmarshalAnnounce(msg.Payload)
		if err != nil || a.Origin != c.head || a.ClusterCnt == 0 {
			return
		}
		m := len(c.roster)
		comps := int(a.Components)
		// Only a full-roster solve echoes rows positionally by roster index;
		// degraded rounds are skipped (the subset excludes someone, and the
		// reconstruction target may be gone).
		if a.Mask != message.FullMask(m) || len(a.FMatrix) != m*comps || len(a.ClusterSums) == 0 {
			return
		}
		c.fRows = make([]field.Element, m)
		for j := 0; j < m; j++ {
			c.fRows[j] = a.FMatrix[j*comps]
		}
		c.sum = a.ClusterSums[0]
		c.haveAnnounce = true
	}
}

// captureShare decides (once per ordered pair per round) whether a share
// link is exposed, and records the decrypted value when it is. Shares
// touching a colluder are always exposed; honest links fall with Px, or
// TwoHopPx when relayed through the head (on the air twice). The stateless
// env.Open mirrors an adversary holding the broken pair key; it draws no
// environment randomness, so the attacked run stays bit-identical.
func (c *Collusion) captureShare(r *Round, from, to topo.NodeID, payload []byte, relayed bool) {
	if c.algebra == nil {
		return
	}
	i, iok := c.memberIdx[from]
	j, jok := c.memberIdx[to]
	if !iok || !jok {
		return
	}
	k := pairKey{i, j}
	if c.seen[k] {
		return
	}
	c.seen[k] = true
	exposed := i <= c.Colluders && i >= 1 || j <= c.Colluders && j >= 1
	if !exposed {
		px := c.Px
		if relayed && c.TwoHopPx > 0 {
			px = c.TwoHopPx
		}
		exposed = r.Rng().Float64() < px
	}
	if !exposed {
		return
	}
	pt, err := r.Env().Open(from, to, payload)
	if err != nil {
		return
	}
	vec, err := message.UnmarshalValues(pt)
	if err != nil || len(vec) == 0 {
		return
	}
	c.facts = append(c.facts, shareFact{i: i, j: j, y: vec[0]})
}

// Resolve runs the reconstruction: assembled echoes + cluster sum + colluder
// internal state + captured links, solved for the victim's reading.
func (c *Collusion) Resolve(r *Round) {
	if c.algebra == nil || !c.haveAnnounce {
		return
	}
	sys := shares.NewSystem(c.algebra)
	for j := range c.fRows {
		sys.AddAssembled(j, c.fRows[j])
	}
	sys.AddClusterSum(c.sum)
	for idx := 1; idx <= c.Colluders; idx++ {
		sys.AddReading(idx, r.Env().ReadingElement(c.roster[idx].ID))
	}
	for _, f := range c.facts {
		sys.AddShare(f.i, f.j, f.y)
	}
	victim := c.roster[c.victimIdx].ID
	a := r.Act(c, c.roster[1].ID, c.head,
		"reconstruction: m=%d colluders=%d links=%d victim=%d",
		len(c.roster), c.Colluders, len(c.facts), victim)
	a.Victim = victim
	a.Truth = r.Env().ReadingElement(victim).Int()
	v, ok, err := sys.Solve(c.victimIdx)
	if err != nil || !ok {
		a.Moot = true // privacy held this round: excluded from detection rates
		a.Detail += " (not determined)"
		return
	}
	a.Value = v.Int()
	a.Breach = a.Value == a.Truth
}

// ---------------------------------------------------------------------------
// ShareTamper: in-cluster report forgery at the target head's radio.

// ShareTamper substitutes a member's cleartext Assembled report as the
// target head receives it: the head solves over a forged F_j and announces
// an FMatrix echo whose victim row disagrees with what the victim sent. The
// own-row-forged witness check must indict the head.
type ShareTamper struct {
	basePolicy
	Delta int64 // additive forgery; defaults to 1<<19

	head topo.NodeID

	victim    topo.NodeID
	action    *Action
	tampered  field.Element
	effective bool
}

// Name implements Policy.
func (t *ShareTamper) Name() string { return "tamper" }

// Target returns the scouted head whose inbound reports are forged.
func (t *ShareTamper) Target() topo.NodeID { return t.head }

// Scout targets a viable head on the aggregation path.
func (t *ShareTamper) Scout(p *core.Protocol, env *wsn.Env, rng *rand.Rand) error {
	t.head = p.PickAttacker(false)
	if t.head < 0 {
		return fmt.Errorf("no viable cluster head to tamper at")
	}
	if t.Delta == 0 {
		t.Delta = 1 << 19
	}
	return nil
}

// Activation implements Policy: one drawn round.
func (t *ShareTamper) Activation(total int, rng *rand.Rand) []uint16 { return oneRound(total, rng) }

// Arm implements Policy.
func (t *ShareTamper) Arm(r *Round) {
	t.victim, t.action, t.effective = -1, nil, false
}

// Intercept forges the victim's Assembled reports in the head's view only —
// every other overhearer (the witnesses) still sees the genuine frame. All
// of the victim's frames this round are tampered consistently, so a repoll
// re-report cannot undo the forgery.
func (t *ShareTamper) Intercept(r *Round, at topo.NodeID, msg *message.Message) *message.Message {
	if at != t.head || msg.To != t.head || msg.Kind != message.KindAssembled {
		return msg
	}
	if t.victim < 0 {
		t.victim = msg.From
		t.action = r.Act(t, t.head, t.head, "forging Assembled F of member %d by +%d", t.victim, t.Delta)
	}
	if msg.From != t.victim {
		return msg
	}
	a, err := message.UnmarshalAssembled(msg.Payload)
	if err != nil || len(a.Fs) == 0 {
		return msg
	}
	a.Fs[0] = a.Fs[0].Add(field.FromInt(t.Delta))
	t.tampered = a.Fs[0]
	payload, err := message.MarshalAssembled(a)
	if err != nil {
		return msg
	}
	clone := *msg
	clone.Payload = payload
	return &clone
}

// Observe watches for the forged value actually reaching the head's
// announce — the tamper only "took" if the echoed FMatrix carries it.
func (t *ShareTamper) Observe(r *Round, msg *message.Message) {
	if t.action == nil || msg.Kind != message.KindAnnounce || msg.From != t.head {
		return
	}
	a, err := message.UnmarshalAnnounce(msg.Payload)
	if err != nil || a.Origin != t.head {
		return
	}
	for _, f := range a.FMatrix {
		if f == t.tampered {
			t.effective = true
			return
		}
	}
}

// Resolve implements Policy.
func (t *ShareTamper) Resolve(r *Round) {
	if t.action == nil {
		return
	}
	if cause, ok := r.Caught(t.head, "own-row-forged", "resolve-mismatch"); ok {
		t.action.Detected, t.action.Cause = true, cause
		return
	}
	if !t.effective {
		t.action.Moot = true
		t.action.Detail += " (no effect: cluster degraded before announce)"
		return
	}
	t.action.Breach = true
}

// ---------------------------------------------------------------------------
// EchoForge: announce-echo forgery between a child head and its parent.

// EchoForge inflates a child head's announced cluster sum in the parent's
// view only: the parent absorbs and echoes a forged child entry, and the
// child — overhearing its parent's announce — must catch the mismatch via
// the child-echo-tampered witness check, indicting the parent.
type EchoForge struct {
	basePolicy
	Delta int64 // additive forgery; defaults to 1<<18

	parent, child topo.NodeID

	action    *Action
	effective bool
}

// Name implements Policy.
func (e *EchoForge) Name() string { return "echo" }

// Pair returns the scouted (parent, child) announce edge.
func (e *EchoForge) Pair() (parent, child topo.NodeID) { return e.parent, e.child }

// Scout locks a parent head with a directly-announcing child.
func (e *EchoForge) Scout(p *core.Protocol, env *wsn.Env, rng *rand.Rand) error {
	e.parent = p.PickAttacker(true)
	if e.parent < 0 {
		return fmt.Errorf("no cluster head with a directly-announcing child")
	}
	e.child = p.DirectChildOf(e.parent)
	if e.child < 0 {
		return fmt.Errorf("head %d has no directly-announcing child", e.parent)
	}
	if e.Delta == 0 {
		e.Delta = 1 << 18
	}
	return nil
}

// Activation implements Policy: one drawn round.
func (e *EchoForge) Activation(total int, rng *rand.Rand) []uint16 { return oneRound(total, rng) }

// Arm implements Policy.
func (e *EchoForge) Arm(r *Round) { e.action, e.effective = nil, false }

// Intercept forges the child's announce in the parent's view only.
func (e *EchoForge) Intercept(r *Round, at topo.NodeID, msg *message.Message) *message.Message {
	if e.action != nil || at != e.parent || msg.From != e.child ||
		msg.To != e.parent || msg.Kind != message.KindAnnounce {
		return msg
	}
	a, err := message.UnmarshalAnnounce(msg.Payload)
	if err != nil || a.Origin != e.child || a.ClusterCnt == 0 || len(a.ClusterSums) == 0 {
		return msg
	}
	a.ClusterSums[0] = a.ClusterSums[0].Add(field.FromInt(e.Delta))
	payload, err := message.MarshalAnnounce(a)
	if err != nil {
		return msg
	}
	e.action = r.Act(e, e.parent, e.parent,
		"forging child %d echo at parent %d by +%d", e.child, e.parent, e.Delta)
	clone := *msg
	clone.Payload = payload
	return &clone
}

// Observe confirms the parent actually echoed the forged child entry.
func (e *EchoForge) Observe(r *Round, msg *message.Message) {
	if e.action == nil || msg.Kind != message.KindAnnounce || msg.From != e.parent {
		return
	}
	a, err := message.UnmarshalAnnounce(msg.Payload)
	if err != nil || a.Origin != e.parent {
		return
	}
	for _, ch := range a.Children {
		if ch.Child == e.child {
			e.effective = true
			return
		}
	}
}

// Resolve implements Policy.
func (e *EchoForge) Resolve(r *Round) {
	if e.action == nil {
		return
	}
	if cause, ok := r.Caught(e.parent, "child-echo-tampered"); ok {
		e.action.Detected, e.action.Cause = true, cause
		return
	}
	if !e.effective {
		e.action.Moot = true
		e.action.Detail += " (no effect: parent never echoed the child)"
		return
	}
	e.action.Breach = true
}

// ---------------------------------------------------------------------------
// Replay: cross-round announce replay.

// Replay records a target head's announce in one round and re-injects the
// identical frame (fresh MAC sequence number, stale round stamp) in the
// next — the classic replay that would double-count a cluster at the base
// station. The protocol's stale-round check must drop it at every receiver.
type Replay struct {
	basePolicy

	head topo.NodeID

	startRound uint16
	recorded   *message.Message
	action     *Action
}

// Name implements Policy.
func (p *Replay) Name() string { return "replay" }

// Scout targets a viable announcing head.
func (p *Replay) Scout(pr *core.Protocol, env *wsn.Env, rng *rand.Rand) error {
	p.head = pr.PickAttacker(false)
	if p.head < 0 {
		return fmt.Errorf("no viable cluster head to replay")
	}
	return nil
}

// Activation spans two consecutive rounds: record, then replay.
func (p *Replay) Activation(total int, rng *rand.Rand) []uint16 {
	if total < 2 {
		p.startRound = 1
		return []uint16{1} // degenerate: nothing to replay into; stays moot
	}
	p.startRound = uint16(1 + rng.Intn(total-1))
	return []uint16{p.startRound, p.startRound + 1}
}

// Arm implements Policy.
func (p *Replay) Arm(r *Round) {
	if r.Num == p.startRound {
		p.recorded = nil
	}
	p.action = nil
}

// Observe records the target's announce in the first armed round and fires
// the replay at the start of radio activity in the second.
func (p *Replay) Observe(r *Round, msg *message.Message) {
	if r.Num == p.startRound {
		if p.recorded != nil || msg.Kind != message.KindAnnounce || msg.From != p.head {
			return
		}
		a, err := message.UnmarshalAnnounce(msg.Payload)
		if err != nil || a.Origin != p.head {
			return
		}
		clone := *msg
		clone.Payload = append([]byte(nil), msg.Payload...)
		p.recorded = &clone
		return
	}
	if p.recorded == nil || p.action != nil {
		return
	}
	p.action = r.Act(p, p.head, p.head,
		"replaying round-%d announce of head %d", p.recorded.Round, p.head)
	inj := *p.recorded
	inj.Payload = append([]byte(nil), p.recorded.Payload...)
	inj.Seq = 0x7f00 // fresh sequence: the MAC dedup must not save the day
	_ = r.Inject(p.head, &inj)
}

// Resolve implements Policy.
func (p *Replay) Resolve(r *Round) {
	if p.action == nil {
		return
	}
	if cause, ok := r.Caught(p.head, "stale-round"); ok {
		p.action.Detected, p.action.Cause = true, cause
		return
	}
	p.action.Breach = true
}

// ---------------------------------------------------------------------------
// Sybil: phantom joiners during cluster formation.

// Sybil injects forged Join frames during formation, enrolling real but
// out-of-range node identities in a target cluster's roster. The phantoms
// never hear the roster and contribute nothing; the acceptance bar is that
// the cluster degrades to its real participants without count inflation and
// without false alarms — the roster is not a trusted input.
type Sybil struct {
	basePolicy
	Count int // phantom identities to enroll; defaults to 2

	head     topo.NodeID
	attacker topo.NodeID // in-range member whose radio transmits the forgeries
	phantoms []topo.NodeID

	action *Action
}

// Name implements Policy.
func (s *Sybil) Name() string { return "sybil" }

// Phantoms returns the scouted spoofed identities.
func (s *Sybil) Phantoms() []topo.NodeID { return s.phantoms }

// Scout picks the target head, an in-range transmitter, and real node
// identities out of the head's radio range.
func (s *Sybil) Scout(p *core.Protocol, env *wsn.Env, rng *rand.Rand) error {
	if s.Count < 1 {
		s.Count = 2
	}
	s.head = p.PickAttacker(false)
	if s.head < 0 {
		return fmt.Errorf("no viable cluster head to infiltrate")
	}
	s.attacker = -1
	for id := topo.NodeID(1); int(id) < env.Cfg.Nodes; id++ {
		if id != s.head && p.HeadOf(id) == s.head {
			s.attacker = id
			break
		}
	}
	if s.attacker < 0 {
		return fmt.Errorf("head %d has no member to transmit from", s.head)
	}
	s.phantoms = s.phantoms[:0]
	for id := topo.NodeID(1); int(id) < env.Cfg.Nodes && len(s.phantoms) < s.Count; id++ {
		if id == s.attacker || p.HeadOf(id) == s.head || env.Net.InRange(id, s.head) {
			continue
		}
		s.phantoms = append(s.phantoms, id)
	}
	if len(s.phantoms) < s.Count {
		return fmt.Errorf("only %d of %d phantom identities out of range of head %d",
			len(s.phantoms), s.Count, s.head)
	}
	return nil
}

// Activation implements Policy: formation happens in round 1 only.
func (s *Sybil) Activation(total int, rng *rand.Rand) []uint16 { return []uint16{1} }

// Arm implements Policy.
func (s *Sybil) Arm(r *Round) { s.action = nil }

// Observe injects the phantom joins as soon as real joins start flowing to
// the target head, so they land inside the head's roster-collection window.
func (s *Sybil) Observe(r *Round, msg *message.Message) {
	if s.action != nil || msg.Kind != message.KindJoin || msg.To != s.head {
		return
	}
	s.action = r.Act(s, s.attacker, s.head,
		"enrolling %d phantom identities %v in cluster %d", len(s.phantoms), s.phantoms, s.head)
	for i, ph := range s.phantoms {
		join := message.MarshalJoin(message.Join{Head: s.head, Seed: shares.SeedFor(int(ph))})
		inj := message.Build(message.KindJoin, ph, s.head, r.Num, join)
		inj.Seq = 0x7e00 + uint16(i)
		_ = r.Inject(s.attacker, inj)
	}
}

// Resolve implements Policy: a breach is a round the base station accepted
// with more participants than physically reported — the phantom identities
// must never add weight. Degraded recovery quietly shedding them is the
// designed outcome, not a detection.
func (s *Sybil) Resolve(r *Round) {
	if s.action == nil {
		return
	}
	if cause, ok := r.Caught(-1, "unsolvable-claimed-subset", "malformed-announce"); ok {
		s.action.Detected, s.action.Cause = true, cause
		return
	}
	if r.Stats.Accepted && r.Stats.ReportedCnt > r.Stats.TrueCount {
		s.action.Breach = true
		return
	}
	s.action.Moot = true // contained: phantoms shed without count inflation
	s.action.Detail += " (contained: phantoms shed by degraded recovery)"
}

// ---------------------------------------------------------------------------
// TakeoverForge: forged deputy takeover of a live head.

// TakeoverForge generalises the forged-takeover test into a policy: the
// target cluster's deputy claims its live head went silent and announces a
// forged aggregate. Members that overheard both announcements must raise
// the dual-announce alarm against the deputy.
type TakeoverForge struct {
	basePolicy

	head, deputy topo.NodeID

	action    *Action
	effective bool
}

// Name implements Policy.
func (t *TakeoverForge) Name() string { return "takeover" }

// Pair returns the scouted (head, deputy) pair.
func (t *TakeoverForge) Pair() (head, deputy topo.NodeID) { return t.head, t.deputy }

// Scout locks a viable head with an elected deputy.
func (t *TakeoverForge) Scout(p *core.Protocol, env *wsn.Env, rng *rand.Rand) error {
	t.head = p.PickAttacker(false)
	if t.head < 0 {
		return fmt.Errorf("no viable cluster head to usurp")
	}
	t.deputy = p.DeputyOf(t.head)
	if t.deputy < 0 {
		return fmt.Errorf("head %d has no deputy to compromise", t.head)
	}
	return nil
}

// Configure arms the protocol-level forger: the deputy fires its takeover
// at the watchdog deadline even though the head is alive.
func (t *TakeoverForge) Configure(cfg *core.Config) { cfg.TakeoverForger = t.deputy }

// Activation implements Policy: the config-driven forger fires every round.
func (t *TakeoverForge) Activation(total int, rng *rand.Rand) []uint16 { return allRounds(total) }

// Arm implements Policy.
func (t *TakeoverForge) Arm(r *Round) { t.action, t.effective = nil, false }

// Observe records the forged takeover claim as the attacker action, and the
// fabricated stand-in announce as proof the forgery actually left the radio
// (the deputy may find no roster row or no route, in which case the claim
// alone is just rebutted noise).
func (t *TakeoverForge) Observe(r *Round, msg *message.Message) {
	switch {
	case t.action == nil && msg.Kind == message.KindTakeover && msg.From == t.deputy:
		t.action = r.Act(t, t.deputy, t.head,
			"deputy %d forging takeover of live head %d", t.deputy, t.head)
	case msg.Kind == message.KindAnnounce && msg.From == t.deputy:
		if a, err := message.UnmarshalAnnounce(msg.Payload); err == nil && a.Origin == t.deputy {
			t.effective = true
		}
	}
}

// Resolve implements Policy.
func (t *TakeoverForge) Resolve(r *Round) {
	if t.action == nil {
		return
	}
	if cause, ok := r.Caught(t.deputy, "dual-announce"); ok {
		t.action.Detected, t.action.Cause = true, cause
		return
	}
	if !t.effective {
		t.action.Moot = true
		t.action.Detail += " (no stand-in announce went out; claim rebutted)"
		return
	}
	t.action.Breach = true
}
