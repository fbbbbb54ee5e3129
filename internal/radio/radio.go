// Package radio models the shared wireless medium: broadcast propagation to
// every node in range, serialization delay at the configured bitrate,
// half-duplex radios, and receiver-side collisions (including hidden
// terminals). Delivery is promiscuous — every in-range node hears every
// frame — because the cluster protocol's integrity witnesses rely on
// overhearing; addressing is filtered above the radio. The one exception is
// the MAC acknowledgement, which is handed only to its addressee.
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Handler consumes a frame delivered to node at. link is the dense id
// (topo.Network.Link) of the directed radio link the frame arrived over,
// from its physical transmitter to at; it names the transmitter, which a
// spoofed msg.From does not. One handler serves every node, so the medium
// keeps no per-node closures.
//
// The frame is already decoded, and every receiver in range gets the same
// pointer. Handlers must not modify the message, and must not retain it,
// its payload, or anything decoded into reused scratch beyond the call
// unless they copy it: an ACK frame lives inside the medium's recycled
// transmission record, a cluster-protocol frame lives in that protocol's
// per-round arena and is reused once its next round starts (core's
// lifetime rule, frames.go), and the protocols decode overheard payloads
// into scratch the next reception overwrites.
//
// A KindAck frame is handed only to its addressee, msg.To. Every other
// receiver in range still hears it — collision, fading and loss are decided
// and recorded for it as for any frame — but only the addressee could act
// on an ACK, so bystanders are not called.
type Handler func(at topo.NodeID, link int, msg *message.Message)

// Config parameterises the medium.
type Config struct {
	// BitrateBps is the channel rate; the lineage papers use 1 Mbps.
	BitrateBps float64
	// Ideal disables collisions and half-duplex losses — an error-free
	// channel used for "perfect" reference curves and unit tests.
	Ideal bool

	// Fading enables a distance-dependent reception probability inside the
	// radio disc (the "gray zone" real radios exhibit): a frame at distance
	// d from its sender is independently lost with probability
	// EdgeLoss · (d/range)^FadingBeta, on top of collisions.
	Fading     bool
	EdgeLoss   float64 // loss probability at exactly the range edge
	FadingBeta float64 // shape exponent (higher = sharper edge)

	// LossRate injects iid per-reception frame loss (each receiver draws
	// independently), on top of collisions and fading — the controlled
	// impairment the resilience experiment sweeps. LossByKind overrides the
	// uniform rate for specific message kinds (keys are Kind.String()
	// labels), letting tests starve one phase deterministically. Loss draws
	// come from the fading/loss RNG (SetFadingSource).
	LossRate   float64
	LossByKind map[string]float64
}

// DefaultConfig matches the papers' setup: 1 Mbps, lossy disc model.
func DefaultConfig() Config {
	return Config{BitrateBps: 1e6}
}

// FadingConfig returns a gray-zone channel: 25% loss at the range edge
// with a cubic falloff toward the sender.
func FadingConfig() Config {
	return Config{BitrateBps: 1e6, Fading: true, EdgeLoss: 0.25, FadingBeta: 3}
}

type transmission struct {
	from       topo.NodeID
	msg        *message.Message
	wireSize   int
	start, end time.Duration
	cell       int    // sender's cell in Medium.grid
	slot       int    // position within Medium.cells[cell]
	fire       func() // delivery closure, built once per pooled node
	// ack holds the frame itself for transmissions from TransmitAck, with
	// msg pointing here; it is recycled together with the node.
	ack message.Message
}

// Medium is the shared channel. One Medium serves one simulated network.
//
// Carrier-sense and collision checks are spatial: a transmission can only
// matter to a node within radio range of its sender, so recent
// transmissions are bucketed by the sender's cell in the deployment grid
// (cell side = radio range) and every overlap scan touches just the 3×3
// cell block around the listener instead of the whole channel. At 100k
// nodes this is the difference between O(active) and O(local) per
// reception.
type Medium struct {
	eng         *sim.Engine
	net         *topo.Network
	rec         *metrics.Recorder
	cfg         Config
	rng         *rand.Rand        // fading draws; nil unless cfg.Fading
	handler     Handler           // receive path for every node; nil = deliver nothing
	active      []*transmission   // recent transmissions kept for overlap checks
	pool        []*transmission   // free list of pruned nodes (delivery closures kept)
	grid        geom.Grid         // deployment spatial index (cell = radio range)
	cells       [][]*transmission // active bucketed by sender cell
	cellEnd     []time.Duration   // latest end of any frame a cell's senders put on the air
	scratch     []*transmission   // per-delivery interferer candidates, reused
	nextPruneAt time.Duration     // next instant a full prune scan may run
	maxDur      time.Duration     // longest frame airtime seen; bounds retention
	sink        trace.Sink        // flight recorder; nil = disabled
}

// NewMedium wires a medium over the network. rec may be nil to skip
// accounting.
func NewMedium(eng *sim.Engine, net *topo.Network, rec *metrics.Recorder, cfg Config) (*Medium, error) {
	if cfg.BitrateBps <= 0 {
		return nil, fmt.Errorf("radio: bitrate must be positive, got %g", cfg.BitrateBps)
	}
	if cfg.Fading {
		if cfg.EdgeLoss < 0 || cfg.EdgeLoss > 1 || cfg.FadingBeta <= 0 {
			return nil, fmt.Errorf("radio: invalid fading edgeLoss=%g beta=%g", cfg.EdgeLoss, cfg.FadingBeta)
		}
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("radio: loss rate %g out of [0, 1)", cfg.LossRate)
	}
	for kind, rate := range cfg.LossByKind {
		if rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("radio: loss rate %g for kind %q out of [0, 1)", rate, kind)
		}
	}
	grid := net.Grid()
	return &Medium{
		eng:     eng,
		net:     net,
		rec:     rec,
		cfg:     cfg,
		grid:    grid,
		cells:   make([][]*transmission, grid.Cells()),
		cellEnd: make([]time.Duration, grid.Cells()),
	}, nil
}

// Reset clears the channel: in-flight and recently-finished transmissions
// are dropped and the airtime retention bound rewinds. It must accompany an
// engine reset — retained transmissions carry end-times from the old
// timeline and would otherwise jam carrier sense on the rewound clock.
func (m *Medium) Reset() {
	for i := range m.active {
		m.recycleTransmission(m.active[i])
		m.active[i] = nil
	}
	m.active = m.active[:0]
	m.nextPruneAt = 0
	for c := range m.cells {
		b := m.cells[c]
		for i := range b {
			b[i] = nil
		}
		m.cells[c] = b[:0]
	}
	clear(m.cellEnd)
	m.maxDur = 0
}

// SetFadingSource injects the RNG used for gray-zone fading and injected
// loss draws. Required when cfg.Fading, cfg.LossRate, or cfg.LossByKind is
// set; typically the deployment's seeded RNG so runs stay reproducible.
func (m *Medium) SetFadingSource(rng *rand.Rand) { m.rng = rng }

// SetSink installs (or removes) the flight-recorder sink. The medium only
// emits on drop paths — collisions, fading, injected loss — never on
// successful delivery, keeping the traced hot path proportional to failures.
func (m *Medium) SetSink(s trace.Sink) { m.sink = s }

// emitDrop records one lost reception and its cause.
func (m *Medium) emitDrop(rcv topo.NodeID, t *transmission, cause string) {
	if m.sink == nil {
		return
	}
	m.sink.Emit(trace.Event{At: m.eng.Now(), Node: rcv, Cluster: trace.NoCluster,
		Phase: trace.PhaseRadio, Type: trace.TypeDrop, Cause: cause,
		Detail: fmt.Sprintf("%s from %d (%dB)", t.msg.Kind, t.from, t.wireSize)})
}

// SetHandler installs the receive callback for every node. With none
// installed, frames go on the air but no reception is decided or recorded.
func (m *Medium) SetHandler(h Handler) { m.handler = h }

// Network returns the radio graph the medium propagates over; its link ids
// are the ones handlers receive.
func (m *Medium) Network() *topo.Network { return m.net }

// AirTime returns the serialization delay of a frame of the given on-air
// size in bytes.
func (m *Medium) AirTime(wireSize int) time.Duration {
	seconds := float64(wireSize*8) / m.cfg.BitrateBps
	return time.Duration(seconds * float64(time.Second))
}

// Busy reports whether node id can currently hear an ongoing transmission
// (its own included). This is the MAC's carrier-sense primitive.
func (m *Medium) Busy(id topo.NodeID) bool {
	return m.BusyWithin(id, 0)
}

// BusyWithin reports whether node id heard any transmission during the last
// `guard` interval (or hears one now). Data senders carrier-sense with a
// DIFS-sized guard so that SIFS-spaced ACKs win the inter-frame gap, as in
// 802.11.
func (m *Medium) BusyWithin(id topo.NodeID, guard time.Duration) bool {
	now := m.eng.Now()
	busy := false
	m.grid.VisitNeighborhood(m.net.Position(id), func(cell int) {
		if busy || m.cellEnd[cell]+guard <= now {
			return
		}
		for _, t := range m.cells[cell] {
			if t.start <= now && t.end+guard > now {
				if t.from == id || m.net.InRange(t.from, id) {
					busy = true
					return
				}
			}
		}
	})
	return busy
}

// Transmitting reports whether node id itself is mid-transmission. Only
// id's own cell can hold its transmissions.
func (m *Medium) Transmitting(id topo.NodeID) bool {
	now := m.eng.Now()
	for _, t := range m.cells[m.grid.CellIndex(m.net.Position(id))] {
		if t.from == id && t.start <= now && now < t.end {
			return true
		}
	}
	return false
}

// Transmit puts a frame on the air from node `from`, returning the
// transmission duration. Delivery outcomes are decided at end-of-frame.
func (m *Medium) Transmit(from topo.NodeID, msg *message.Message) (time.Duration, error) {
	if err := msg.Validate(); err != nil { // encodability, without the bytes
		return 0, fmt.Errorf("radio: %w", err)
	}
	t := m.allocTransmission()
	t.msg = msg
	return m.launch(t, from), nil
}

// TransmitAck puts a MAC acknowledgement from `from` to `to` on the air and
// returns its duration. The frame is stored by value in the transmission
// record, which the medium recycles after delivery, so an ACK allocates
// nothing; receivers get a pointer into that record and must not keep it.
func (m *Medium) TransmitAck(from, to topo.NodeID, round, seq uint16) time.Duration {
	t := m.allocTransmission()
	t.ack = message.Message{Kind: message.KindAck, From: from, To: to, Round: round, Seq: seq}
	t.msg = &t.ack
	return m.launch(t, from)
}

// launch starts t's frame on the air from node `from` and schedules its
// delivery at end-of-frame.
func (m *Medium) launch(t *transmission, from topo.NodeID) time.Duration {
	msg := t.msg
	size := msg.WireSize()
	dur := m.AirTime(size)
	t.from, t.wireSize = from, size
	t.start, t.end = m.eng.Now(), m.eng.Now()+dur
	if dur > m.maxDur {
		m.maxDur = dur
	}
	m.prune()
	m.active = append(m.active, t)
	t.cell = m.grid.CellIndex(m.net.Position(from))
	t.slot = len(m.cells[t.cell])
	m.cells[t.cell] = append(m.cells[t.cell], t)
	m.cellEnd[t.cell] = max(m.cellEnd[t.cell], t.end)
	if m.rec != nil {
		m.rec.OnTransmit(from, msg.Kind, size)
	}
	m.eng.At(t.end, t.fire)
	return dur
}

// allocTransmission takes a node from the free list or mints one, building
// its delivery closure exactly once: a steady-state round then puts frames
// on the air without allocating per frame. Safe to recycle after pruning
// because prune retains every transmission past its own delivery event
// (end + maxDur + pruneGuard), so no queued closure or scan can still see it.
func (m *Medium) allocTransmission() *transmission {
	if n := len(m.pool); n > 0 {
		t := m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		return t
	}
	t := &transmission{}
	t.fire = func() { m.deliver(t) }
	return t
}

// recycleTransmission drops the frame reference (the payload becomes
// collectable) and returns the node to the free list.
func (m *Medium) recycleTransmission(t *transmission) {
	t.msg = nil
	m.pool = append(m.pool, t)
}

// deliver resolves reception at every neighbour of the transmitter.
//
// Interferer candidates are gathered once per frame, not once per receiver:
// a transmission audible at some receiver of t comes from within 2×range of
// t's sender (interferer in range of a receiver in range of the sender), so
// the 5×5 cell block around the sender holds them all. Under carrier sense
// the temporal-overlap set is usually empty, which short-circuits the whole
// per-receiver corruption scan.
func (m *Medium) deliver(t *transmission) {
	if m.handler == nil {
		return
	}
	cand := m.scratch[:0]
	if !m.cfg.Ideal {
		m.grid.VisitBlock(m.net.Position(t.from), 2, func(cell int) {
			if m.cellEnd[cell] <= t.start {
				return // everything sent from this cell ended before t began
			}
			for _, o := range m.cells[cell] {
				if o != t && o.end > t.start && o.start < t.end {
					cand = append(cand, o)
				}
			}
		})
	}
	msg := t.msg
	ack := msg.Kind == message.KindAck
	link := m.net.Link(t.from, 0)
	for i, rcv := range m.net.Neighbors(t.from) {
		if !m.cfg.Ideal && len(cand) > 0 && m.corruptedAmong(cand, rcv) {
			if m.rec != nil {
				m.rec.OnCollision()
				m.rec.OnDrop()
			}
			m.emitDrop(rcv, t, "collision")
			continue
		}
		if !m.cfg.Ideal && m.faded(t.from, rcv) {
			if m.rec != nil {
				m.rec.OnDrop()
			}
			m.emitDrop(rcv, t, "fading")
			continue
		}
		if !m.cfg.Ideal && m.lost(msg) {
			if m.rec != nil {
				m.rec.OnDrop()
			}
			m.emitDrop(rcv, t, "loss")
			continue
		}
		if m.rec != nil {
			m.rec.OnReceive(rcv, t.wireSize)
		}
		if ack && rcv != msg.To {
			continue // heard and charged, but only the addressee acts on an ACK
		}
		m.handler(rcv, link+i, msg)
	}
	for i := range cand {
		cand[i] = nil
	}
	m.scratch = cand[:0]
}

// faded draws the gray-zone loss for one reception.
func (m *Medium) faded(from, rcv topo.NodeID) bool {
	if !m.cfg.Fading || m.rng == nil {
		return false
	}
	d := m.net.Position(from).Dist(m.net.Position(rcv))
	loss := m.cfg.EdgeLoss * math.Pow(d/m.net.Range(), m.cfg.FadingBeta)
	return m.rng.Float64() < loss
}

// lost draws the injected iid loss for one reception. The per-kind override
// map is consulted only when non-empty — this runs once per reception, and
// hashing the kind label of every frame on an unimpaired channel showed up
// in round profiles.
func (m *Medium) lost(msg *message.Message) bool {
	rate := m.cfg.LossRate
	if len(m.cfg.LossByKind) > 0 {
		if r, ok := m.cfg.LossByKind[msg.Kind.String()]; ok {
			rate = r
		}
	}
	if rate <= 0 || m.rng == nil {
		return false
	}
	return m.rng.Float64() < rate
}

// corruptedAmong reports whether reception at rcv failed given the frame's
// temporally-overlapping candidates: the receiver was itself transmitting
// (half-duplex), or an overlapping transmission was audible (collision).
func (m *Medium) corruptedAmong(cand []*transmission, rcv topo.NodeID) bool {
	for _, o := range cand {
		if o.from == rcv || m.net.InRange(o.from, rcv) {
			return true
		}
	}
	return false
}

// pruneGuard bounds how long BusyWithin guards can look back.
const pruneGuard = time.Millisecond

// prune drops transmissions that can no longer matter. A finished
// transmission o must survive until every frame it could have overlapped has
// been delivered (any such frame started before o.end and ends before
// o.end + maxDur) and until carrier-sense guards can no longer see it.
//
// The full scan is amortised in time: it runs at most once per quarter
// pruneGuard, so a transmit burst pays O(1) here instead of O(active) each.
// Keeping an expired transmission up to 250µs longer is harmless — every
// overlap and carrier-sense scan filters by time — it just lengthens the
// cell buckets by a bounded factor.
func (m *Medium) prune() {
	now := m.eng.Now()
	if now < m.nextPruneAt {
		return
	}
	m.nextPruneAt = now + pruneGuard/4
	kept := m.active[:0]
	for _, t := range m.active {
		if t.end+m.maxDur+pruneGuard > now {
			kept = append(kept, t)
		} else {
			m.removeFromCell(t)
			m.recycleTransmission(t)
		}
	}
	// Zero the tail so pruned transmissions can be collected.
	for i := len(kept); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = kept
}

// removeFromCell swap-removes t from its sender-cell bucket, fixing up
// the moved transmission's slot.
func (m *Medium) removeFromCell(t *transmission) {
	b := m.cells[t.cell]
	last := len(b) - 1
	moved := b[last]
	b[t.slot] = moved
	moved.slot = t.slot
	b[last] = nil
	m.cells[t.cell] = b[:last]
}
