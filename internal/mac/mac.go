// Package mac implements a simplified CSMA/CA medium-access layer over the
// radio medium: carrier sense before transmit, random binary-exponential
// backoff on busy, per-node FIFO transmit queues, and — as in 802.11 —
// stop-and-wait ARQ for unicast frames (immediate ACK, bounded
// retransmissions, receiver-side duplicate suppression). Broadcast frames
// are fire-and-forget; the aggregation protocols tolerate residual
// broadcast loss, matching the lineage papers' ns-2 setup.
//
// The MAC owns the medium's receive path: it installs itself as the radio
// handler, absorbs ACKs, answers unicasts, de-duplicates retransmissions,
// and hands everything else to the protocol receiver — including frames
// addressed to other nodes, because the cluster protocol's witnesses rely
// on promiscuous overhearing.
package mac

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/message"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Receiver consumes frames delivered to (or overheard by) a node after MAC
// processing.
type Receiver func(at topo.NodeID, msg *message.Message)

// Tap is the adversary seam: a single observer/interceptor sitting between
// the MAC and the protocol receivers, mirroring how internal/chaos wraps
// the serving stack's backend and transport seams. OnSend observes every
// frame a port queues (after the sequence number is assigned, so the tap
// sees the wire frame). OnDeliver runs once per (node, frame) delivery,
// after ACKing and duplicate suppression but before the protocol receiver:
// returning the message unchanged is pure observation, returning a
// different message substitutes it for this receiver only, and returning
// nil swallows the delivery. A tap must never mutate the passed message —
// the medium hands the same pointer to every node in range — and must not
// draw from any environment RNG, or deterministic replay breaks.
type Tap interface {
	OnSend(msg *message.Message)
	OnDeliver(at topo.NodeID, msg *message.Message) *message.Message
}

// Config tunes the MAC.
type Config struct {
	Slot         time.Duration // backoff slot length
	SIFS         time.Duration // gap before an ACK
	DIFS         time.Duration // carrier-sense guard for data frames (> SIFS)
	MinCW        int           // initial contention window, slots
	MaxCW        int           // cap on the contention window, slots
	MaxCSRetries int           // carrier-sense deferrals before dropping a frame
	MaxTxRetries int           // unicast retransmissions before giving up
	AckTimeout   time.Duration // wait for an ACK after the data frame ends
}

// DefaultConfig returns parameters sized for 1 Mbps and ~30-byte frames.
func DefaultConfig() Config {
	return Config{
		Slot:         100 * time.Microsecond,
		SIFS:         20 * time.Microsecond,
		DIFS:         60 * time.Microsecond,
		MinCW:        4,
		MaxCW:        256,
		MaxCSRetries: 20,
		MaxTxRetries: 6,
		AckTimeout:   600 * time.Microsecond,
	}
}

// Layer owns one MAC port per node over a shared medium.
type Layer struct {
	eng     *sim.Engine
	medium  *radio.Medium
	net     *topo.Network
	rng     *rand.Rand
	cfg     Config
	ports   []port
	drops   int // frames abandoned (CS exhaustion, ARQ exhaustion, encode errors)
	acksTx  int
	retxTx  int
	recvers []Receiver
	sink    trace.Sink // flight recorder; nil = disabled
	tap     Tap        // adversary seam; nil = disabled

	// Receive-path state lives in dense arrays, not in the ports, so an
	// overheard frame — most receptions — never loads a port record.
	dead []bool // crashed nodes: radio silent both ways
	// lastSeq[l] is one more than the last sequence number accepted over
	// directed radio link l (topo.Network.Link), i.e. by l's receiver from
	// l's sender; 0 means nothing accepted yet. One frame's receivers sit on
	// consecutive links, so its dedup checks walk one contiguous run.
	lastSeq []uint32
	// spoofSeq is the last sequence number accepted per (receiver, claimed
	// sender) pair that has no radio link: frames injected under the name
	// of a non-adjacent node or of a phantom ID outside the network.
	spoofSeq map[[2]topo.NodeID]uint16
}

// port holds one node's transmit and ARQ state. A reception loads it only
// when the frame is addressed to the node: to answer a unicast or to
// consume an ACK.
type port struct {
	pending  bool             // a send attempt or ARQ exchange is in flight
	seq      uint16           // last sequence number assigned
	awaiting *message.Message // unicast awaiting ACK

	id topo.NodeID
	// Transmit FIFO: frames queue[qhead:] wait in order. The read index
	// rewinds to 0 whenever the queue drains, so a port reuses one backing
	// array instead of re-slicing past its front and reallocating on the
	// next append.
	queue    []*message.Message
	qhead    int
	cw       int
	csTries  int
	txTries  int
	ackTimer sim.Timer // pending ACK timeout
	// ACKs owed, oldest first from acks[ackHead]; each has one ackDueFn
	// event scheduled SIFS after its frame arrived.
	acks    []ackEntry
	ackHead int

	// Timer callbacks built once at layer construction: ports schedule
	// thousands of backoff and completion events per round, and closing
	// over the port at each scheduling allocated per event.
	attemptFn    func()
	bcastDoneFn  func()
	ackTimeoutFn func()
	ackDueFn     func()
}

// ackEntry is one ACK a port owes: the acknowledged frame's sender, round
// and sequence number.
type ackEntry struct {
	to    topo.NodeID
	round uint16
	seq   uint16
}

// queued returns the number of frames waiting in the transmit queue.
func (p *port) queued() int { return len(p.queue) - p.qhead }

// pop removes the frame at the head of the transmit queue.
func (p *port) pop() {
	p.queue[p.qhead] = nil
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
	}
}

// clearQueue empties the transmit queue, keeping its backing array.
func (p *port) clearQueue() {
	clear(p.queue)
	p.queue, p.qhead = p.queue[:0], 0
}

// queueRun is the transmit-queue capacity every port starts with.
const queueRun = 8

// NewLayer builds the MAC over a medium for a network of n nodes and takes
// ownership of the medium's receive handler.
func NewLayer(eng *sim.Engine, medium *radio.Medium, n int, rng *rand.Rand, cfg Config) (*Layer, error) {
	if cfg.Slot <= 0 || cfg.SIFS < 0 || cfg.DIFS <= cfg.SIFS || cfg.MinCW < 1 ||
		cfg.MaxCW < cfg.MinCW || cfg.MaxCSRetries < 1 || cfg.MaxTxRetries < 0 ||
		cfg.AckTimeout <= 0 {
		return nil, fmt.Errorf("mac: invalid config %+v", cfg)
	}
	net := medium.Network()
	l := &Layer{
		eng:      eng,
		medium:   medium,
		net:      net,
		rng:      rng,
		cfg:      cfg,
		ports:    make([]port, n),
		recvers:  make([]Receiver, n),
		dead:     make([]bool, n),
		lastSeq:  make([]uint32, net.Links()),
		spoofSeq: make(map[[2]topo.NodeID]uint16),
	}
	medium.SetHandler(l.onReceive)
	// Every port's transmit queue starts as its own run of one slab, so a
	// port whose backlog first reaches a few frames does not grow it.
	queues := make([]*message.Message, n*queueRun)
	for i := range l.ports {
		p := &l.ports[i]
		p.id = topo.NodeID(i)
		p.queue = queues[i*queueRun : i*queueRun : (i+1)*queueRun]
		p.cw = cfg.MinCW
		p.attemptFn = func() { l.attempt(p) }
		p.bcastDoneFn = func() {
			p.pending = false
			l.kick(p)
		}
		p.ackTimeoutFn = func() { l.ackTimedOut(p) }
		p.ackDueFn = func() { l.ackDue(p) }
	}
	return l, nil
}

// Reset returns every port to its just-built state: queues emptied, ARQ and
// backoff state cleared, sequence numbers and dedup tables rewound, crashed
// nodes revived, and the layer counters zeroed. Protocol receivers are
// dropped too — each protocol run installs its own. Reset the engine first
// so outstanding ACK timers are already recycled.
func (l *Layer) Reset() {
	for i := range l.ports {
		p := &l.ports[i]
		p.clearQueue()
		p.acks, p.ackHead = p.acks[:0], 0
		p.pending = false
		p.cw = l.cfg.MinCW
		p.csTries = 0
		p.txTries = 0
		p.seq = 0
		p.awaiting = nil
		p.ackTimer.Cancel()
		p.ackTimer = sim.Timer{}
	}
	clear(l.recvers)
	clear(l.dead)
	clear(l.lastSeq)
	clear(l.spoofSeq)
	l.drops = 0
	l.acksTx = 0
	l.retxTx = 0
}

// SetSink installs (or removes) the flight-recorder sink. Like the radio,
// the MAC emits only on failure paths — abandoned frames, exhausted ARQ,
// crash injection — never per successful frame.
func (l *Layer) SetSink(s trace.Sink) { l.sink = s }

// SetTap installs (or, with nil, removes) the adversary tap. Reset leaves
// the tap untouched — the campaign harness installs and removes it
// explicitly around each attacked run.
func (l *Layer) SetTap(t Tap) { l.tap = t }

// Inject transmits a frame onto the medium as node from, bypassing the
// port queue, carrier sense, and sequence assignment entirely — the
// attacker's raw radio. The caller controls every field including Seq
// (a replayed frame that reuses its original Seq is eaten by receiver
// dedup; a fresh Seq gets through). Returns the medium's encode error,
// if any.
//
// Receivers de-duplicate by the claimed sender msg.From, not by the radio
// that sent the frame: when from ≠ msg.From, a receiver looks up the
// claimed sender's own link to it, and a claimed sender with no such link
// (out of range, or a phantom ID outside the network) is tracked in a side
// table. A spoofed frame is therefore suppressed exactly as if the claimed
// sender had transmitted it.
func (l *Layer) Inject(from topo.NodeID, msg *message.Message) error {
	_, err := l.medium.Transmit(from, msg)
	return err
}

// emitDrop records one abandoned frame and its cause.
func (l *Layer) emitDrop(id topo.NodeID, cause string, format string, args ...any) {
	if l.sink == nil {
		return
	}
	l.sink.Emit(trace.Event{At: l.eng.Now(), Node: id, Cluster: trace.NoCluster,
		Phase: trace.PhaseMAC, Type: trace.TypeDrop, Cause: cause,
		Detail: fmt.Sprintf(format, args...)})
}

// SetReceiver installs the protocol-level receive callback for a node.
func (l *Layer) SetReceiver(id topo.NodeID, r Receiver) {
	l.recvers[id] = r
}

// Disable crashes a node: it stops transmitting and receiving immediately
// (fail-stop). Queued frames are dropped. Used by the failure-injection
// experiments; Enable models a reboot at a later instant.
func (l *Layer) Disable(id topo.NodeID) {
	l.dead[id] = true
	p := &l.ports[id]
	purged := p.queued()
	l.drops += purged
	p.clearQueue()
	if p.awaiting != nil {
		p.awaiting = nil
		l.drops++
		purged++
	}
	p.ackTimer.Cancel()
	p.ackTimer = sim.Timer{}
	if purged > 0 {
		l.emitDrop(id, "crash-purge", "%d queued frames lost with the node", purged)
	}
}

// Enable reboots a crashed node (crash-and-recover injection). The port
// state Disable cleared — queue, pending ARQ, ack timer — stays empty, so
// the node resumes with a cold transceiver, exactly like a reboot.
func (l *Layer) Enable(id topo.NodeID) {
	l.dead[id] = false
}

// Disabled reports whether a node has been crashed.
func (l *Layer) Disabled(id topo.NodeID) bool { return l.dead[id] }

// Send queues a frame for transmission from msg.From. The MAC assigns the
// sequence number. Frames are sent in FIFO order per node.
func (l *Layer) Send(msg *message.Message) {
	if l.dead[msg.From] {
		l.drops++
		l.emitDrop(msg.From, "dead-port", "%s to %d queued on crashed node", msg.Kind, msg.To)
		return
	}
	p := &l.ports[msg.From]
	p.seq++
	msg.Seq = p.seq
	if l.tap != nil {
		l.tap.OnSend(msg)
	}
	p.queue = append(p.queue, msg)
	l.kick(p)
}

// QueueLen returns the number of frames waiting at a node, including a
// frame mid-ARQ.
func (l *Layer) QueueLen(id topo.NodeID) int {
	p := &l.ports[id]
	n := p.queued()
	if p.awaiting != nil {
		n++
	}
	return n
}

// Drops returns the number of frames abandoned.
func (l *Layer) Drops() int { return l.drops }

// AcksSent returns the number of ACK frames transmitted (overhead analysis).
func (l *Layer) AcksSent() int { return l.acksTx }

// Retransmissions returns the number of unicast retransmissions.
func (l *Layer) Retransmissions() int { return l.retxTx }

// kick arranges the next send attempt if none is pending.
func (l *Layer) kick(p *port) {
	if p.pending || (p.queued() == 0 && p.awaiting == nil) {
		return
	}
	p.pending = true
	l.eng.After(l.backoffDelay(p.cw), p.attemptFn)
}

// attempt performs carrier sense and either transmits or backs off.
func (l *Layer) attempt(p *port) {
	if l.dead[p.id] {
		p.pending = false
		return
	}
	msg := p.awaiting
	if msg == nil {
		if p.queued() == 0 {
			p.pending = false
			return
		}
		msg = p.queue[p.qhead]
	}
	if l.medium.BusyWithin(p.id, l.cfg.DIFS) {
		p.csTries++
		if p.csTries > l.cfg.MaxCSRetries {
			l.abandon(p)
			return
		}
		if p.cw < l.cfg.MaxCW {
			p.cw *= 2
		}
		l.eng.After(l.backoffDelay(p.cw), p.attemptFn)
		return
	}
	// Claim the frame before the air time elapses.
	if p.awaiting == nil {
		p.pop()
		if !msg.IsBroadcast() && msg.Kind != message.KindAck {
			p.awaiting = msg
		}
	}
	dur, err := l.medium.Transmit(p.id, msg)
	if err != nil {
		p.awaiting = nil
		l.drops++
		p.pending = false
		l.emitDrop(p.id, "encode-error", "%v", err)
		l.kick(p)
		return
	}
	p.csTries = 0
	p.cw = l.cfg.MinCW
	if p.awaiting == nil {
		// Broadcast: done when the frame leaves the air.
		l.eng.After(dur, p.bcastDoneFn)
		return
	}
	// Unicast: arm the ACK timeout.
	p.ackTimer = l.eng.After(dur+l.cfg.AckTimeout, p.ackTimeoutFn)
}

// abandon drops the current frame and resets the port.
func (l *Layer) abandon(p *port) {
	if p.awaiting != nil {
		p.awaiting = nil
	} else if p.queued() > 0 {
		p.pop()
	}
	l.drops++
	l.emitDrop(p.id, "cs-exhausted", "carrier sense gave up after %d deferrals", p.csTries)
	p.csTries = 0
	p.txTries = 0
	p.cw = l.cfg.MinCW
	p.pending = false
	l.kick(p)
}

// ackTimedOut retries or abandons an unacked unicast.
func (l *Layer) ackTimedOut(p *port) {
	if p.awaiting == nil {
		return
	}
	p.txTries++
	if p.txTries > l.cfg.MaxTxRetries {
		dst := p.awaiting.To
		p.awaiting = nil
		p.txTries = 0
		l.drops++
		p.pending = false
		l.emitDrop(p.id, "arq-exhausted", "unicast to %d unacked after %d retries", dst, l.cfg.MaxTxRetries)
		l.kick(p)
		return
	}
	l.retxTx++
	if p.cw < l.cfg.MaxCW {
		p.cw *= 2
	}
	l.eng.After(l.backoffDelay(p.cw), p.attemptFn)
}

// onReceive is the radio handler for every node; link is the directed link
// from the frame's transmitter to at.
func (l *Layer) onReceive(at topo.NodeID, link int, msg *message.Message) {
	if l.dead[at] {
		return
	}
	if msg.Kind == message.KindAck {
		// The medium hands an ACK only to its addressee.
		p := &l.ports[at]
		if p.awaiting != nil && msg.Seq == p.awaiting.Seq && msg.From == p.awaiting.To {
			p.awaiting = nil
			p.txTries = 0
			p.ackTimer.Cancel()
			p.ackTimer = sim.Timer{}
			p.pending = false
			l.kick(p)
		}
		return // ACKs never reach the protocol layer
	}
	if msg.To == at {
		l.sendAck(&l.ports[at], msg)
	}
	if l.duplicate(at, link, msg) { // retransmissions repeat the same seq
		return
	}
	if l.tap != nil {
		if msg = l.tap.OnDeliver(at, msg); msg == nil {
			return
		}
	}
	if r := l.recvers[at]; r != nil {
		r(at, msg)
	}
}

// duplicate reports whether at has already accepted msg.Seq as the latest
// frame from msg.From, and otherwise records it as accepted. The table is
// keyed by the directed link msg.From → at: the link the frame arrived
// over when msg.From sent it, else the claimed sender's own link to at.
func (l *Layer) duplicate(at topo.NodeID, link int, msg *message.Message) bool {
	from := msg.From
	if uint(from) >= uint(l.net.Size()) {
		link = -1 // a phantom: no link at all
	} else if uint(link-l.net.Link(from, 0)) >= uint(l.net.Degree(from)) {
		link = l.claimedLink(from, at) // spoofed: msg.From did not transmit it
	}
	if link < 0 {
		key := [2]topo.NodeID{at, from}
		if last, ok := l.spoofSeq[key]; ok && last == msg.Seq {
			return true
		}
		l.spoofSeq[key] = msg.Seq
		return false
	}
	want := uint32(msg.Seq) + 1
	if l.lastSeq[link] == want {
		return true
	}
	l.lastSeq[link] = want
	return false
}

// claimedLink returns the id of the link from → at, or -1 when from is not
// in range of at.
func (l *Layer) claimedLink(from, at topo.NodeID) int {
	for i, nb := range l.net.Neighbors(from) {
		if nb == at {
			return l.net.Link(from, i)
		}
	}
	return -1
}

// sendAck schedules an immediate ACK of msg after SIFS, bypassing the queue
// and carrier sense (ACKs have priority, as in 802.11). The ACK waits in the
// port's FIFO, not in a closure, and goes on the air as a frame the medium
// stores in its own recycled transmission record, so acknowledging a
// unicast allocates nothing.
func (l *Layer) sendAck(p *port, msg *message.Message) {
	p.acks = append(p.acks, ackEntry{to: msg.From, round: msg.Round, seq: msg.Seq})
	l.acksTx++
	l.eng.After(l.cfg.SIFS, p.ackDueFn)
}

// ackDue transmits the oldest ACK the port owes. Every ACK is scheduled
// exactly SIFS after its frame and the engine fires equal times in
// scheduling order, so the events pop the FIFO in the order it was filled.
func (l *Layer) ackDue(p *port) {
	a := p.acks[p.ackHead]
	p.ackHead++
	if p.ackHead == len(p.acks) {
		p.acks, p.ackHead = p.acks[:0], 0
	}
	// Half-duplex: if this node is mid-transmission, the ACK is lost
	// anyway; transmit regardless and let the medium decide.
	l.medium.TransmitAck(p.id, a.to, a.round, a.seq)
}

// backoffDelay draws a uniform delay in [1, cw] slots.
func (l *Layer) backoffDelay(cw int) time.Duration {
	slots := 1 + l.rng.Intn(cw)
	return time.Duration(slots) * l.cfg.Slot
}
