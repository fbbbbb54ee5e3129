package core

import (
	"time"

	"repro/internal/message"
	"repro/internal/topo"
)

// Scheduled work. Every event the protocol schedules runs one of the
// handlers below, which New builds once per protocol. A per-node event
// carries its node ID as the sim argument; a deferred frame send carries
// its index in the round's outbox, and a share send its index in
// p.sharePreps. Scheduling therefore allocates nothing: no closure is built
// per event. Where an event is scheduled, and so its place among events
// due at the same time and the order of the jitter draws, is part of the
// round's determinism: move a scheduling call and the replay changes.
type handlers struct {
	// Per-node events (argument: node ID, or helloArg for hello).
	hello, join, crash, plainReading, assembled, repoll, degrade,
	subShares, subAssembled, announce, watchdog, takeoverDecide,
	takeoverAnnounce, forgedAnnounce func(int)
	// Per-round slices (argument: index into the outbox or p.sharePreps).
	send, shares func(int)
	// receive is the MAC receive callback of every node.
	receive func(topo.NodeID, *message.Message)
	// Phase events.
	rosters, finalRosters, exchange, assembly, announces, crashHeads,
	repairOrphans, repairFinalize, repairEnd func()
}

// initHandlers builds the protocol's handlers.
func (p *Protocol) initHandlers() {
	node := func(f func(topo.NodeID)) func(int) { return func(i int) { f(topo.NodeID(i)) } }
	p.on = handlers{
		hello:            p.helloDue,
		join:             node(p.join),
		crash:            node(p.crash),
		plainReading:     node(p.sendPlainReading),
		assembled:        node(p.broadcastAssembled),
		repoll:           node(p.repollMissing),
		degrade:          node(p.maybeDegrade),
		subShares:        node(p.exchangeSubShares),
		subAssembled:     node(p.sendSubAssembled),
		announce:         node(p.announce),
		watchdog:         node(p.watchdogExpire),
		takeoverDecide:   node(p.takeoverDecide),
		takeoverAnnounce: node(p.takeoverAnnounce),
		forgedAnnounce:   node(p.forgedTakeoverAnnounce),
		send:             func(i int) { p.env.MAC.Send(p.arena.outbox[i]) },
		shares:           func(i int) { p.sendPreparedShares(&p.sharePreps[i]) },
		receive:          p.receive,
		rosters:          p.broadcastRosters,
		finalRosters:     p.finalRosters,
		exchange:         p.scheduleShareExchange,
		assembly:         p.scheduleAssembledBroadcasts,
		announces:        p.scheduleAnnounces,
		crashHeads:       p.crashHeads,
		repairOrphans:    p.repairOrphans,
		repairFinalize:   p.repairFinalize,
		repairEnd:        func() { p.inRepair = false },
	}
}

// after schedules a per-node handler delay from now.
func (p *Protocol) after(delay time.Duration, fn func(int), id topo.NodeID) {
	p.env.Eng.AfterArg(delay, fn, int(id))
}

// sendAfter hands frame, which comes from the round's frame arena, to the
// MAC delay from now.
func (p *Protocol) sendAfter(delay time.Duration, frame *message.Message) {
	p.arena.outbox = append(p.arena.outbox, frame)
	p.env.Eng.AfterArg(delay, p.on.send, len(p.arena.outbox)-1)
}

// broadcastAfter broadcasts payload from id in a frame of the given kind
// delay from now.
func (p *Protocol) broadcastAfter(delay time.Duration, kind message.Kind, id topo.NodeID, payload []byte) {
	p.sendAfter(delay, p.build(kind, id, message.BroadcastID, p.round, payload))
}

// helloArg packs a hello event's node and hello role into its argument.
func helloArg(id topo.NodeID, role uint8) int { return int(id)<<2 | int(role) }

// helloDue sends the hello helloArg packed.
func (p *Protocol) helloDue(arg int) { p.sendHello(topo.NodeID(arg>>2), uint8(arg&3)) }
