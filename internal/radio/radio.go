// Package radio models the shared wireless medium: broadcast propagation to
// every node in range, serialization delay at the configured bitrate,
// half-duplex radios, and receiver-side collisions (including hidden
// terminals). Delivery is promiscuous — every in-range node hears every
// frame — because the cluster protocol's integrity witnesses rely on
// overhearing; addressing is filtered above the radio. The one exception is
// the MAC acknowledgement, which is handed only to its addressee.
//
// Carrier sense and collisions are decided from per-node channel state,
// updated along the sender's neighbour row as each frame goes on the air.
// No transmission is kept past its delivery: its record, an ACK's frame
// included, goes back to the medium's pool as soon as the delivery returns.
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"

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
// unless they copy it: an ACK frame lives inside the medium's transmission
// record, which is recycled as soon as the delivery returns, so the next
// frame put on the air may overwrite it; a cluster-protocol frame and its
// payload bytes live in that protocol's per-round arenas and are reused once
// its next round starts (core's lifetime rule, frames.go); and the protocols
// decode and open overheard payloads into scratch the next reception
// overwrites.
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
	from     topo.NodeID
	msg      *message.Message
	wireSize int
	fire     func() // delivery closure, built once per pooled record
	// ack holds the frame itself for transmissions from TransmitAck, with
	// msg pointing here; it is recycled together with the record.
	ack message.Message
}

// chanState is the channel as one node's radio hears it. A busy period is
// a maximal run of audible frames, in start order, in which each frame
// starts strictly before the latest end heard so far; a frame in a period
// of two or more overlaps another audible frame, and a frame alone in its
// period overlaps none.
type chanState struct {
	heardEnd  time.Duration // latest end of any frame audible here, own included
	txEnd     time.Duration // latest end of this node's own frames
	start     time.Duration // start of the current busy period
	cur, prev int32         // frames in the current and the previous busy period
}

// hear counts a frame audible at this node from now until end.
func (c *chanState) hear(now, end time.Duration) {
	if now < c.heardEnd {
		c.cur++
	} else {
		c.prev, c.cur, c.start = c.cur, 1, now
	}
	c.heardEnd = max(c.heardEnd, end)
}

// clean reports whether a frame ending now, audible here, overlapped no
// other audible frame. Its period is the current one unless a new period
// began exactly now, when it is the previous one: a frame in its period
// ends no earlier than now, so no other period can have begun since.
func (c *chanState) clean(now time.Duration) bool {
	if c.start == now {
		return c.prev == 1
	}
	return c.cur == 1
}

// Medium is the shared channel. One Medium serves one simulated network.
//
// Carrier sense and collisions are decided from per-node channel state
// (chanState), kept current as each frame goes on the air by walking the
// sender's neighbour row: Busy, BusyWithin and Transmitting are O(1), and a
// reception's collision check reads only the receiver's own state, so no
// transmission needs to be kept past its delivery.
type Medium struct {
	eng     *sim.Engine
	net     *topo.Network
	rec     *metrics.Recorder
	cfg     Config
	rng     *rand.Rand      // fading draws; nil unless cfg.Fading
	handler Handler         // receive path for every node; nil = deliver nothing
	chans   []chanState     // indexed by node id
	pool    []*transmission // free records (delivery closures kept)
	minted  []*transmission // every record ever built, for Reset
	sink    trace.Sink      // flight recorder; nil = disabled
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
	return &Medium{eng: eng, net: net, rec: rec, cfg: cfg, chans: make([]chanState, net.Size())}, nil
}

// Reset clears the channel: every node hears silence, and frames still in
// flight are dropped with their records returned to the pool. It must
// accompany an engine reset, which discards their delivery events; channel
// state from the old timeline would otherwise jam carrier sense on the
// rewound clock.
func (m *Medium) Reset() {
	clear(m.chans)
	m.pool = m.pool[:0]
	for _, t := range m.minted {
		t.msg = nil
		m.pool = append(m.pool, t)
	}
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
// size in bytes. It is at least 1 ns, even at a bitrate that would round it
// to zero: the collision rule (chanState) needs every frame to occupy the
// channel.
func (m *Medium) AirTime(wireSize int) time.Duration {
	seconds := float64(wireSize*8) / m.cfg.BitrateBps
	return max(time.Duration(seconds*float64(time.Second)), 1)
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
//
// Every frame ends after time zero, so a heardEnd of zero means the node has
// heard nothing since the last Reset.
func (m *Medium) BusyWithin(id topo.NodeID, guard time.Duration) bool {
	end := m.chans[id].heardEnd
	return end > 0 && end+guard > m.eng.Now()
}

// Transmitting reports whether node id itself is mid-transmission.
func (m *Medium) Transmitting(id topo.NodeID) bool {
	return m.chans[id].txEnd > m.eng.Now()
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
// record, which the medium recycles as soon as the delivery returns, so an
// ACK allocates nothing; receivers get a pointer into that record and must
// not keep it.
func (m *Medium) TransmitAck(from, to topo.NodeID, round, seq uint16) time.Duration {
	t := m.allocTransmission()
	t.ack = message.Message{Kind: message.KindAck, From: from, To: to, Round: round, Seq: seq}
	t.msg = &t.ack
	return m.launch(t, from)
}

// launch starts t's frame on the air from node `from`, counts it in the
// channel state of the sender and of every node that hears it, and
// schedules its delivery at end-of-frame.
func (m *Medium) launch(t *transmission, from topo.NodeID) time.Duration {
	msg := t.msg
	size := msg.WireSize()
	dur := m.AirTime(size)
	now := m.eng.Now()
	end := now + dur
	t.from, t.wireSize = from, size
	c := &m.chans[from]
	c.txEnd = max(c.txEnd, end)
	c.hear(now, end)
	for _, nb := range m.net.Neighbors(from) {
		m.chans[nb].hear(now, end)
	}
	if m.rec != nil {
		m.rec.OnTransmit(from, msg.Kind, size)
	}
	m.eng.At(end, t.fire)
	return dur
}

// allocTransmission takes a record from the free list or mints one,
// building its delivery closure exactly once: a steady-state round then
// puts frames on the air without allocating per frame.
func (m *Medium) allocTransmission() *transmission {
	if n := len(m.pool); n > 0 {
		t := m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		return t
	}
	t := &transmission{}
	t.fire = func() {
		m.deliver(t)
		t.msg = nil // the payload becomes collectable
		m.pool = append(m.pool, t)
	}
	m.minted = append(m.minted, t)
	return t
}

// deliver resolves reception at every neighbour of the transmitter, at
// end-of-frame. A reception collides when the frame overlapped another
// frame audible at the receiver, the receiver's own included (half-duplex);
// the receiver's channel state answers that without looking at any other
// transmission.
func (m *Medium) deliver(t *transmission) {
	if m.handler == nil {
		return
	}
	now := m.eng.Now()
	msg := t.msg
	ack := msg.Kind == message.KindAck
	link := m.net.Link(t.from, 0)
	for i, rcv := range m.net.Neighbors(t.from) {
		if !m.cfg.Ideal && !m.chans[rcv].clean(now) {
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
