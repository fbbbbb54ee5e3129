package core

import (
	"repro/internal/message"
	"repro/internal/topo"
)

// frameChunk is the number of frames in one arena chunk. Chunks are never
// resized, so a frame handed out stays where it is until the arena rewinds.
const frameChunk = 1024

// frameArena is the per-round slab every protocol frame comes from.
//
// Lifetime rule: a frame built by a protocol is valid until that protocol's
// next round starts (Run or RunRetaining rewinds the arena). That holds
// because every round drains the engine, so no MAC queue, retransmission or
// delivery event of round r is still pending when round r+1 begins
// (mac.Disable purges the queues of crashed nodes), and the one holder that
// keeps a frame across rounds, attack.Replay, records a clone.
type frameArena struct {
	chunks [][]message.Message
	used   int // frames handed out since the last rewind
}

// next hands out the arena's next zeroed frame.
func (a *frameArena) next() *message.Message {
	c, i := a.used/frameChunk, a.used%frameChunk
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]message.Message, frameChunk))
	}
	a.used++
	return &a.chunks[c][i]
}

// rewind takes every frame back. The used slots are zeroed, so the last
// round's payloads become unreachable.
func (a *frameArena) rewind() {
	for c := 0; a.used > 0; c++ {
		k := min(a.used, frameChunk)
		clear(a.chunks[c][:k])
		a.used -= k
	}
}

// build is message.Build backed by the protocol's frame arena. It runs only
// on the serial event loop; the parallel share pass builds its frames into
// its own sharePrep instead.
func (p *Protocol) build(kind message.Kind, from, to topo.NodeID, round uint16, payload []byte) *message.Message {
	m := p.frames.next()
	*m = message.Message{Kind: kind, From: from, To: to, Round: round, Payload: payload}
	return m
}
