package core

import (
	"math/bits"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wsncrypto"
)

// sharePrep is one participant's prepared share exchange: its send delay,
// its own share vector (retained by acceptShare) and its frames to its
// co-members, in roster order. The slots are protocol-owned and reused
// every round; the vector, the frames and their payloads live in the
// round's arenas.
type sharePrep struct {
	id     topo.NodeID
	delay  time.Duration
	self   []field.Element
	frames []message.Message
}

// shareBytes bounds the payload bytes one outgoing share takes: a relay
// wrapper around a frame header around the envelope of a c-element values
// encoding. A direct share takes the envelope only.
func shareBytes(c int) int {
	return 2 + message.HeaderSize + wsncrypto.Overhead + 1 + 4*c
}

// scheduleShareExchange builds every viable participant's share frames and
// schedules their jittered send events, in two loops over the nodes in
// ascending ID:
//
//	loop 1 draws each participant's jitter and then its masking
//	       coefficients from the round RNG, and builds and seals its
//	       frames at once; sealing keys each link on first use, in roster
//	       order. An undersized cluster's plain-reading send is scheduled
//	       here too;
//	loop 2 schedules the prepared sends.
//
// Loop 2 stays a separate loop so that every plain-reading send precedes
// every prepared send in the queue: events due at the same nanosecond run
// in the order they were scheduled.
//
// Per-direction nonce streams are deterministic: direction a→b of a link
// is sealed here only by sender a, and any later sub-exchange Seal on the
// same pair runs at event time.
func (p *Protocol) scheduleShareExchange() {
	p.phaseMark(trace.PhaseExchange, "polynomial share distribution")
	window := p.cfg.AssembleAt - p.cfg.SharesAt
	c := p.nComponents()
	if p.sharePreps == nil {
		// Sized once for every node: a fresh protocol's first exchange
		// would otherwise regrow the slice a dozen times.
		p.sharePreps = make([]sharePrep, 0, p.env.Net.Size())
	}
	preps := p.sharePreps[:0]
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.myIdx < 0 {
			continue
		}
		if p.env.Sink != nil && st.role == roleHead && st.algebra != nil {
			p.lifecycle(id, id, trace.PhaseExchange, trace.StateExchanging,
				"m=%d", len(st.roster.Entries))
		}
		if st.algebra == nil {
			// Undersized cluster: the plain policy reports readings
			// link-encrypted to the head; the drop policy sits out.
			if p.cfg.Undersized == UndersizedPlain && st.role == roleMember {
				p.after(p.jitter(window/2), p.on.plainReading, id)
			}
			continue
		}
		preps = append(preps, sharePrep{id: id, delay: p.jitter(window / 2)})
		m := len(st.roster.Entries)
		p.txCoeffs = growTable(p.txCoeffs, c*(m-1))
		for k := 0; k < c; k++ {
			st.algebra.DrawCoeffs(p.env.Rng, p.txCoeffs[k*(m-1):(k+1)*(m-1)])
		}
		p.buildShareFrames(&preps[len(preps)-1])
	}
	p.sharePreps = preps
	for x := range preps {
		p.env.Eng.AfterArg(preps[x].delay, p.on.shares, x)
	}
}

// buildShareFrames evaluates the participant's masking polynomials, whose
// coefficients are in p.txCoeffs, at every co-member seed and builds the
// outgoing frames — link-encrypted direct unicast when in radio range,
// head-relayed (still end-to-end encrypted) otherwise.
func (p *Protocol) buildShareFrames(pr *sharePrep) {
	id := pr.id
	st := &p.nodes[id]
	c := p.nComponents()
	m := len(st.roster.Entries)
	p.txReading = growTable(p.txReading, c)
	p.readingVectorInto(p.txReading, id)
	p.txRows = growTable(p.txRows, c*m)
	for k := 0; k < c; k++ {
		st.algebra.SharesFromCoeffs(p.txRows[k*m:(k+1)*m], p.txCoeffs[k*(m-1):(k+1)*(m-1)], p.txReading[k])
	}
	pr.self = p.arena.elems.alloc(c)
	pr.frames = p.arena.frames.run(m - 1)
	payload := p.arena.payloads.reserve((m - 1) * shareBytes(c))
	p.txVec = growTable(p.txVec, c)
	for j, entry := range st.roster.Entries {
		target := entry.ID
		if target == id {
			for k := 0; k < c; k++ {
				pr.self[k] = p.txRows[k*m+j]
			}
			continue
		}
		if !p.env.HasLinkKey(id, target) {
			continue // keyless pair (EG scheme): share lost, cluster will fail
		}
		for k := 0; k < c; k++ {
			p.txVec[k] = p.txRows[k*m+j]
		}
		var err error
		if p.txPlain, err = message.AppendValues(p.txPlain[:0], p.txVec); err != nil {
			continue
		}
		// Payloads are appended to the participant's reservation, which is
		// sized for a relay per target, so they are filled in place.
		start := len(payload)
		if p.env.Net.InRange(id, target) {
			if payload, err = p.env.AppendSeal(payload, id, target, p.txPlain); err != nil {
				continue
			}
			pr.frames = append(pr.frames, message.Message{Kind: message.KindShare, From: id, To: target,
				Round: p.round, Payload: payload[start:len(payload):len(payload)]})
			continue
		}
		// Out of mutual range: relay via the head. The head forwards the
		// frame verbatim; it cannot read the sealed share.
		if p.txSealed, err = p.env.AppendSeal(p.txSealed[:0], id, target, p.txPlain); err != nil {
			continue
		}
		inner := message.Message{Kind: message.KindShare, From: id, To: target, Round: p.round, Payload: p.txSealed}
		if p.txInner, err = inner.AppendMarshal(p.txInner[:0]); err != nil {
			continue
		}
		if payload, err = message.AppendRelay(payload, message.Relay{Inner: p.txInner}); err != nil {
			continue
		}
		pr.frames = append(pr.frames, message.Message{Kind: message.KindRelay, From: id, To: st.head,
			Round: p.round, Payload: payload[start:len(payload):len(payload)]})
	}
}

// sendPreparedShares is the send event: keep our own share and hand the
// prepared frames to the MAC. A node that crashed since preparation still
// runs this; its disabled MAC drops the frames.
func (p *Protocol) sendPreparedShares(pr *sharePrep) {
	st := &p.nodes[pr.id]
	p.acceptShare(pr.id, st.myIdx, pr.self)
	for i := range pr.frames {
		p.env.MAC.Send(&pr.frames[i])
	}
}

// onRelay forwards (at the head) or unwraps (at the destination) a relayed
// share frame.
func (p *Protocol) onRelay(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	r, err := message.UnmarshalRelay(msg.Payload)
	if err != nil {
		return
	}
	// The inner frame is decoded into scratch whose payload aliases the
	// relay's. Round and payload are read first: a relay nested in a relay
	// re-enters here with msg pointing at that same scratch.
	round, payload := msg.Round, msg.Payload
	inner := &p.rxInner
	if err := message.UnmarshalInto(r.Inner, inner); err != nil {
		return
	}
	if inner.To == at {
		// Dispatch through receive so relayed sub-shares (and any future
		// relayed kind) reach their handler, not just first-phase shares.
		p.receive(at, inner)
		return
	}
	// Forward hop: only a head — or a deputy standing in for a dead one —
	// relays, and only for its own cluster.
	st := &p.nodes[at]
	if st.role != roleHead && !st.tookOver {
		return
	}
	p.env.MAC.Send(p.build(message.KindRelay, at, inner.To, round, payload))
}

// onShare decrypts a received share and records it by roster index.
func (p *Protocol) onShare(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return // ciphertext is useless to overhearers
	}
	st := &p.nodes[at]
	if st.algebra == nil || st.myIdx < 0 {
		return
	}
	senderIdx := -1
	for i, e := range st.roster.Entries {
		if e.ID == msg.From {
			senderIdx = i
			break
		}
	}
	if senderIdx < 0 {
		return // not a co-member
	}
	if st.recvMask&(uint64(1)<<uint(senderIdx)) != 0 {
		return // duplicate: nothing to open
	}
	vec, ok := p.openValues(msg.From, at, msg.Payload)
	if !ok {
		return
	}
	p.acceptShare(at, senderIdx, vec)
}

// openValues opens a link-encrypted values payload sent from a to b into
// the protocol's plaintext scratch and decodes it into a vector of the
// round's width from the element arena.
func (p *Protocol) openValues(a, b topo.NodeID, envelope []byte) ([]field.Element, bool) {
	pt, err := p.env.AppendOpen(p.rxPlain[:0], a, b, envelope)
	p.rxPlain = pt
	if err != nil {
		return nil, false
	}
	vec := p.arena.elems.alloc(p.nComponents())
	if message.DecodeValuesInto(vec, pt) != nil {
		return nil, false
	}
	return vec, true
}

// acceptShare stores one share vector from roster index senderIdx.
func (p *Protocol) acceptShare(at topo.NodeID, senderIdx int, vec []field.Element) {
	st := &p.nodes[at]
	bit := uint64(1) << uint(senderIdx)
	if st.recvMask&bit != 0 {
		return // duplicate
	}
	st.recvMask |= bit
	st.recvShares[senderIdx] = vec
}

// scheduleAssembledBroadcasts has every participant publish its column sum
// in the first quarter of the window, leaving the rest of the window to the
// head's resilience checkpoints: a repoll of missing reporters at 3/8, and
// the degraded-recovery decision at the half mark. The checkpoints sit in
// the window's first half deliberately — the sub-exchange they may trigger
// finishes around 2/3, and the remaining third drains the MAC queues so
// recovery traffic cannot collide with the announce phase (which costs far
// more than it saves: one congested announce relay loses a whole subtree).
func (p *Protocol) scheduleAssembledBroadcasts() {
	p.phaseMark(trace.PhaseAssembly, "column-sum reports + recovery checkpoints")
	window := p.cfg.AggAt - p.cfg.AssembleAt
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.algebra == nil || st.myIdx < 0 {
			continue
		}
		p.after(p.jitter(window/4), p.on.assembled, id)
		if st.role == roleHead {
			if p.env.Sink != nil {
				p.lifecycle(id, id, trace.PhaseAssembly, trace.StateAssembling, "")
			}
			p.after(window*3/8, p.on.repoll, id)
			if !p.cfg.NoDegrade {
				p.after(window/2, p.on.degrade, id)
			}
		}
	}
}

// broadcastAssembled sums the received shares and sends F with the
// contribution mask, in cleartext, as an ARQ unicast to the head. The head
// later echoes the full F vector inside its Announce, which is what lets
// every member act as an integrity witness without having had to overhear
// every co-member directly.
func (p *Protocol) broadcastAssembled(id topo.NodeID) {
	st := &p.nodes[id]
	// fs is retained in fSeen, which lives for the round.
	fs := p.arena.elems.alloc(p.nComponents())
	for i := 0; i < len(st.roster.Entries); i++ {
		field.AddInto(fs, st.recvShares[i])
	}
	a := message.Assembled{Fs: fs, Mask: st.recvMask}
	// Record our own F locally: it is the witness's ground truth.
	st.setFSeen(st.myIdx, a)
	if st.role == roleHead {
		return // the head's own F needs no transmission
	}
	payload, err := p.keep(message.AppendAssembled(p.arena.payloads.spare(), a))
	if err != nil {
		return
	}
	p.env.MAC.Send(p.build(message.KindAssembled, id, st.head, p.round, payload))
}

// onAssembled records a member's column sum at its head — or, during a
// takeover, a member's re-reported column sum at the deputy.
func (p *Protocol) onAssembled(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if (st.role != roleHead && !st.tookOver) || st.algebra == nil || st.myIdx < 0 {
		return
	}
	senderIdx := -1
	for i, e := range st.roster.Entries {
		if e.ID == msg.From {
			senderIdx = i
			break
		}
	}
	if senderIdx < 0 {
		return
	}
	a, ok := p.decodeAssembled(msg.Payload)
	if !ok {
		return
	}
	st.setFSeen(senderIdx, a)
}

// decodeAssembled decodes an assembled report of the round's width into a
// column vector from the element arena.
func (p *Protocol) decodeAssembled(payload []byte) (message.Assembled, bool) {
	c := p.nComponents()
	a := message.Assembled{Fs: p.arena.elems.alloc(c)}
	if message.UnmarshalAssembledInto(payload, &a) != nil || len(a.Fs) != c {
		return message.Assembled{}, false
	}
	return a, true
}

// solveCluster recovers the cluster's component sums, preferring the full
// exchange and falling back to the degraded subset when one ran. It returns
// the effective participant mask the sums cover; ok=false means the cluster
// contributes nothing this round (data loss, not attack).
func (p *Protocol) solveCluster(st *nodeState) ([]field.Element, uint32, uint64, bool) {
	m := len(st.roster.Entries)
	if st.algebra == nil || m == 0 {
		return nil, 0, 0, false
	}
	c := p.nComponents()
	full := message.FullMask(m)
	if cap(p.scratchRows) < m {
		p.scratchRows = make([][]field.Element, max(m, message.MaxClusterSize))
	}
	rows := p.scratchRows[:m]
	complete := true
	for i := 0; i < m; i++ {
		a, ok := st.fSeenAt(i)
		if !ok || a.Mask != full || len(a.Fs) != c {
			complete = false
			break
		}
		rows[i] = a.Fs
	}
	if complete {
		sums := p.arena.elems.alloc(c)
		if err := st.algebra.RecoverSumInto(sums, rows); err != nil {
			return nil, 0, 0, false
		}
		return sums, uint32(m), full, true
	}
	// Degraded fallback: the subset exchange is sound only when every member
	// of M committed a sub-report built on exactly M (the degree-|M|-1
	// polynomials need all |M| column sums).
	mask := st.subMask
	if p.cfg.NoDegrade || mask == 0 {
		return nil, 0, 0, false
	}
	sub, err := p.subsetAlgebra(st, mask)
	if err != nil {
		return nil, 0, 0, false
	}
	subRows := p.scratchRows[:0]
	for i := 0; i < m; i++ {
		if mask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		a, ok := st.fSubAt(i)
		if !ok || a.Mask != mask || len(a.Fs) != c {
			return nil, 0, 0, false
		}
		subRows = append(subRows, a.Fs)
	}
	sums := p.arena.elems.alloc(c)
	if err := sub.RecoverSumInto(sums, subRows); err != nil {
		return nil, 0, 0, false
	}
	return sums, uint32(sub.Size()), mask, true
}

// repollMissing is the bounded retry before degrading: at 3/8 of the
// assembly window the head unicasts a repoll to every member whose report
// is still missing or was assembled from an incomplete share set, so the
// member re-commits with whatever shares arrived in the meantime.
func (p *Protocol) repollMissing(id topo.NodeID) {
	st := &p.nodes[id]
	if st.role != roleHead || !viableCluster(st) {
		return
	}
	full := message.FullMask(len(st.roster.Entries))
	repolled := 0
	for i, e := range st.roster.Entries {
		if i == st.myIdx {
			continue
		}
		if a, ok := st.fSeenAt(i); ok && a.Mask == full {
			continue
		}
		repolled++
		p.env.MAC.Send(p.build(message.KindRepoll, id, e.ID, p.round, nil))
	}
	if repolled > 0 && p.env.Sink != nil {
		p.lifecycle(id, id, trace.PhaseAssembly, trace.StateRepolled,
			"%d of %d reports missing or incomplete", repolled, len(st.roster.Entries))
	}
}

// onRepoll re-broadcasts the member's assembled report, recomputed so that
// shares which arrived after the first commitment are included.
func (p *Protocol) onRepoll(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if st.role != roleMember || st.head != msg.From || st.algebra == nil || st.myIdx < 0 {
		return
	}
	window := p.cfg.AggAt - p.cfg.AssembleAt
	p.after(p.jitter(window/16), p.on.assembled, at)
}

// maybeDegrade is the head's degraded-recovery decision half-way through
// the assembly window. If the report set is still incomplete or inconsistent,
// the head computes the maximal common participant subset M — members whose
// shares every reporter received — and, when M keeps the cluster viable,
// broadcasts a Reassemble so M re-runs the exchange over degree-|M|-1
// polynomials. A smaller M means the round fails for this cluster.
func (p *Protocol) maybeDegrade(id topo.NodeID) {
	st := &p.nodes[id]
	if st.role != roleHead || !viableCluster(st) {
		return
	}
	m := len(st.roster.Entries)
	full := message.FullMask(m)
	complete := true
	common := ^uint64(0)
	var reporters uint64
	for i := 0; i < m; i++ {
		a, ok := st.fSeenAt(i)
		if !ok || a.Mask != full {
			complete = false
		}
		if !ok {
			continue
		}
		reporters |= uint64(1) << uint(i)
		common &= a.Mask
	}
	if complete {
		return // the full solve will succeed; nothing to repair
	}
	mask := common & reporters & full
	if bits.OnesCount64(mask) < shares.MinClusterSize {
		return // beyond repair: the cluster fails the round
	}
	if p.env.Sink != nil {
		p.lifecycle(id, id, trace.PhaseAssembly, trace.StateDegraded,
			"reassemble mask=%#x (%d of %d members)", mask, bits.OnesCount64(mask), m)
	}
	p.collectSub(st)
	payload := p.arena.payloads.take(message.AppendReassemble(p.arena.payloads.spare(), message.Reassemble{Mask: mask}))
	window := p.cfg.AggAt - p.cfg.AssembleAt
	// Broadcast twice, jittered, for loss resilience (a member of M that
	// misses both copies sends no sub-report, failing the degraded solve).
	p.broadcastAfter(p.jitter(window/32), message.KindReassemble, id, payload)
	p.broadcastAfter(window/32+p.jitter(window/32), message.KindReassemble, id, payload)
	p.startSubExchange(id, mask)
}

// onReassemble joins a member into its head's — or, during a takeover, its
// deputy's — degraded subset exchange.
func (p *Protocol) onReassemble(at topo.NodeID, msg *message.Message) {
	st := &p.nodes[at]
	if p.cfg.NoDegrade || st.role != roleMember || !viableCluster(st) {
		return
	}
	fromDeputy := st.takeoverBy >= 0 && msg.From == st.takeoverBy && at != st.takeoverBy
	if msg.From != st.head && !fromDeputy {
		return
	}
	r, err := message.UnmarshalReassemble(msg.Payload)
	if err != nil {
		return
	}
	if fromDeputy && st.subMask == r.Mask {
		// The dead head already drove a sub-exchange over exactly this
		// subset before going silent. The committed sub-report is built on
		// the same polynomials, so re-commit it to the deputy instead of
		// re-running the exchange. (If it is still in flight, the pending
		// sendSubAssembled targets the deputy already.)
		if st.subSent != nil {
			payload, err := p.keep(message.AppendAssembled(p.arena.payloads.spare(), *st.subSent))
			if err != nil {
				return
			}
			frame := p.build(message.KindSubAssembled, at, msg.From, p.round, payload)
			p.sendAfter(p.jitter(p.cfg.EpochSlot/8), frame)
		}
		return
	}
	if fromDeputy {
		st.subMask = 0 // supersede the dead head's half-finished exchange
	}
	p.startSubExchange(at, r.Mask)
}

// startSubExchange installs the subset state and, when this node is a
// member of M, schedules its sub-share distribution and sub-report.
func (p *Protocol) startSubExchange(id topo.NodeID, mask uint64) {
	p.startSubExchangeAfter(id, mask, 0)
}

// startSubExchangeAfter is startSubExchange with the outgoing traffic held
// back by delay. The subset state installs synchronously either way — a
// collector must accept sub-shares and sub-reports the moment co-members can
// send them — but a takeover deputy defers its own sends until its Reassemble
// broadcast has had time to install the subset at the members, or they would
// drop their would-be collector's sub-shares as unsolicited.
func (p *Protocol) startSubExchangeAfter(id topo.NodeID, mask uint64, delay time.Duration) {
	st := &p.nodes[id]
	m := len(st.roster.Entries)
	mask &= message.FullMask(m)
	if st.algebra == nil || st.myIdx < 0 || bits.OnesCount64(mask) < shares.MinClusterSize {
		return
	}
	if st.subMask == mask {
		return // duplicate Reassemble broadcast
	}
	st.subMask = mask
	st.subRecvMask = 0
	st.subShares = renew(&p.arena.rows, st.subShares, m)
	st.subSent = nil
	if mask&(uint64(1)<<uint(st.myIdx)) == 0 {
		return // not in M: the node only relays for the subset exchange
	}
	window := p.cfg.AggAt - p.cfg.AssembleAt
	p.after(delay+p.jitter(window/64), p.on.subShares, id)
	p.after(delay+window/8+p.jitter(window/32), p.on.subAssembled, id)
}

// exchangeSubShares distributes one fresh degree-|M|-1 share vector per
// query component to every co-member of the subset (direct link-encrypted
// unicast, or relayed through the head when out of mutual range). Each frame
// is scheduled with its own jitter rather than queued in one burst: |M|
// back-to-back unicasts per member would hold the neighbourhood's medium for
// the rest of the window and starve the announce phase behind it.
func (p *Protocol) exchangeSubShares(id topo.NodeID) {
	st := &p.nodes[id]
	mask := st.subMask
	if mask == 0 || st.algebra == nil {
		return
	}
	sub, err := p.subsetAlgebra(st, mask)
	if err != nil {
		return
	}
	c := p.nComponents()
	window := p.cfg.AggAt - p.cfg.AssembleAt
	reading := p.arena.elems.alloc(c)
	p.readingVectorInto(reading, id)
	if cap(p.subOuts) < c {
		// Sized for the largest subset a mask selects, so no later subset
		// grows them.
		p.subOuts = make([]shares.Shares, c)
		for k := range p.subOuts {
			p.subOuts[k] = shares.Shares{
				ForMember: make([]field.Element, 0, message.MaxClusterSize),
				Coeffs:    make([]field.Element, 0, message.MaxClusterSize),
			}
		}
	}
	outs := p.subOuts[:c]
	for k := 0; k < c; k++ {
		sub.GenerateInto(p.env.Rng, reading[k], &outs[k])
	}
	j := 0 // position within the subset's seed order
	for i, entry := range st.roster.Entries {
		if mask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		vec := p.arena.elems.alloc(c)
		for k := 0; k < c; k++ {
			vec[k] = outs[k].ForMember[j]
		}
		j++
		target := entry.ID
		if target == id {
			p.acceptSubShare(id, i, vec)
			continue
		}
		if !p.env.HasLinkKey(id, target) {
			continue
		}
		var err error
		if p.txPlain, err = message.AppendValues(p.txPlain[:0], vec); err != nil {
			continue
		}
		var frame *message.Message
		if p.env.Net.InRange(id, target) {
			sealed, err := p.keep(p.env.AppendSeal(p.arena.payloads.spare(), id, target, p.txPlain))
			if err != nil {
				continue
			}
			frame = p.build(message.KindSubShare, id, target, p.round, sealed)
		} else {
			if p.txSealed, err = p.env.AppendSeal(p.txSealed[:0], id, target, p.txPlain); err != nil {
				continue
			}
			inner := message.Message{Kind: message.KindSubShare, From: id, To: target, Round: p.round, Payload: p.txSealed}
			if p.txInner, err = inner.AppendMarshal(p.txInner[:0]); err != nil {
				continue
			}
			relayPayload, err := p.keep(message.AppendRelay(p.arena.payloads.spare(), message.Relay{Inner: p.txInner}))
			if err != nil {
				continue
			}
			// During a takeover the relay hub is the deputy (the dead head
			// forwards nothing); its collected subset only contains members
			// in its own radio range, so the hub reaches every target.
			hub := st.head
			if st.takeoverBy >= 0 && st.takeoverBy != id {
				hub = st.takeoverBy
			}
			frame = p.build(message.KindRelay, id, hub, p.round, relayPayload)
		}
		p.sendAfter(p.jitter(window/16), frame)
	}
}

// onSubShare decrypts and records a degraded-recovery share.
func (p *Protocol) onSubShare(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if st.algebra == nil || st.myIdx < 0 || st.subMask == 0 {
		return
	}
	senderIdx := -1
	for i, e := range st.roster.Entries {
		if e.ID == msg.From {
			senderIdx = i
			break
		}
	}
	if senderIdx < 0 {
		return
	}
	if bit := uint64(1) << uint(senderIdx); st.subMask&bit == 0 || st.subRecvMask&bit != 0 {
		return // outside the subset, or a duplicate: nothing to open
	}
	vec, ok := p.openValues(msg.From, at, msg.Payload)
	if !ok {
		return
	}
	p.acceptSubShare(at, senderIdx, vec)
}

// acceptSubShare stores one sub-share vector from roster index senderIdx.
func (p *Protocol) acceptSubShare(at topo.NodeID, senderIdx int, vec []field.Element) {
	st := &p.nodes[at]
	bit := uint64(1) << uint(senderIdx)
	if st.subRecvMask&bit != 0 {
		return
	}
	st.subRecvMask |= bit
	st.subShares[senderIdx] = vec
}

// sendSubAssembled commits the member's degraded column sum to its head.
// The carried mask is what the member actually received, so a head can only
// solve — and a witness only accept — subsets every member fully covers.
func (p *Protocol) sendSubAssembled(id topo.NodeID) {
	st := &p.nodes[id]
	if st.subMask == 0 {
		return
	}
	fs := p.arena.elems.alloc(p.nComponents())
	for i := range st.subShares {
		if st.subShares[i] != nil {
			field.AddInto(fs, st.subShares[i])
		}
	}
	a := message.Assembled{Fs: fs, Mask: st.subRecvMask}
	st.ownSub = a
	st.subSent = &st.ownSub
	if st.role == roleHead || st.tookOver {
		if len(st.fSub) == 0 {
			p.collectSub(st)
		}
		st.setFSub(st.myIdx, a)
		return
	}
	payload, err := p.keep(message.AppendAssembled(p.arena.payloads.spare(), a))
	if err != nil {
		return
	}
	target := st.head
	if st.takeoverBy >= 0 && st.takeoverBy != id {
		target = st.takeoverBy // the collector is the stand-in deputy
	}
	p.env.MAC.Send(p.build(message.KindSubAssembled, id, target, p.round, payload))
}

// onSubAssembled records a member's degraded column sum at its head (or at
// the stand-in deputy during a takeover).
func (p *Protocol) onSubAssembled(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if (st.role != roleHead && !st.tookOver) || st.subMask == 0 || len(st.fSub) == 0 {
		return
	}
	senderIdx := -1
	for i, e := range st.roster.Entries {
		if e.ID == msg.From {
			senderIdx = i
			break
		}
	}
	if senderIdx < 0 || st.subMask&(uint64(1)<<uint(senderIdx)) == 0 {
		return
	}
	a, ok := p.decodeAssembled(msg.Payload)
	if !ok {
		return
	}
	st.setFSub(senderIdx, a)
}

// sendPlainReading implements the UndersizedPlain fallback: the member
// reports its reading link-encrypted to the head (no slicing).
func (p *Protocol) sendPlainReading(id topo.NodeID) {
	st := &p.nodes[id]
	if st.head < 0 || !p.env.HasLinkKey(id, st.head) {
		return
	}
	reading := p.arena.elems.alloc(p.nComponents())
	p.readingVectorInto(reading, id)
	var err error
	if p.txPlain, err = message.AppendValues(p.txPlain[:0], reading); err != nil {
		return
	}
	sealed, err := p.keep(p.env.AppendSeal(p.arena.payloads.spare(), id, st.head, p.txPlain))
	if err != nil {
		return
	}
	p.env.MAC.Send(p.build(message.KindReading, id, st.head, p.round, sealed))
}

// onPlainReading accumulates undersized-cluster readings at the head.
func (p *Protocol) onPlainReading(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if st.role != roleHead || p.cfg.Undersized != UndersizedPlain {
		return
	}
	vec, ok := p.openValues(msg.From, at, msg.Payload)
	if !ok {
		return
	}
	if st.plainSums == nil {
		st.plainSums = p.arena.elems.alloc(p.nComponents())
	}
	for k := range vec {
		st.plainSums[k] = st.plainSums[k].Add(vec[k])
	}
	st.plainCnt++
}

// viableCluster reports whether a node sits in a cluster that can run the
// share protocol.
func viableCluster(st *nodeState) bool {
	return st.algebra != nil && st.myIdx >= 0 && shares.Viable(len(st.roster.Entries))
}
