package core

import (
	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/topo"
)

// Per-round arenas. Every frame the protocol sends, every payload byte it
// encodes, seals or opens, and every share vector it decodes comes from the
// three arenas below. Chunks are never resized, so anything handed out
// stays where it is until the arenas rewind.
//
// Lifetime rule: a frame, payload or decoded share vector built by a
// protocol is valid until that protocol's next round starts (Run or
// RunRetaining rewinds the arenas). That holds because every round drains
// the engine, so no MAC queue, retransmission or delivery event of round r
// is still pending when round r+1 begins (mac.Disable purges the queues of
// crashed nodes), the per-round node state that points at share vectors is
// reset with the round, and the one holder that keeps a frame across
// rounds, attack.Replay, records a clone.
const (
	frameChunk = 1024     // frames per frame-arena chunk
	byteChunk  = 64 << 10 // bytes per payload-arena chunk
	elemChunk  = 4096     // elements per element-arena chunk
	// minSpare is the free space spare offers a serial-loop encoder. It
	// covers every payload but an announce echoing dozens of 16-component
	// children, which then lands on the heap.
	minSpare = 4 << 10
)

// arenas is the protocol's per-round memory.
type arenas struct {
	frames   frameArena
	payloads byteArena
	elems    elemArena
}

// rewind takes back everything the last round handed out.
func (a *arenas) rewind() {
	a.frames.rewind()
	a.payloads.rewind()
	a.elems.rewind()
}

// frameArena is the chunked slab every protocol frame comes from.
type frameArena struct {
	chunks [][]message.Message
	c, i   int // cursor: chunk and slot of the next frame
}

// run hands out n consecutive zeroed frames (n <= frameChunk) as an empty
// slice of capacity n, so appending up to n frames fills them in place.
func (a *frameArena) run(n int) []message.Message {
	if a.i+n > frameChunk {
		a.c, a.i = a.c+1, 0
	}
	if a.c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]message.Message, frameChunk))
	}
	s := a.chunks[a.c][a.i : a.i : a.i+n]
	a.i += n
	return s
}

// next hands out the arena's next zeroed frame.
func (a *frameArena) next() *message.Message {
	return &a.run(1)[:1][0]
}

// rewind takes every frame back. The used slots are zeroed, so the last
// round's payloads become unreachable through them.
func (a *frameArena) rewind() {
	for c := 0; c < a.c; c++ {
		clear(a.chunks[c])
	}
	if a.c < len(a.chunks) {
		clear(a.chunks[a.c][:a.i])
	}
	a.c, a.i = 0, 0
}

// byteArena is the chunked slab payload bytes come from. It holds no
// pointers, so rewinding needs no clearing: every encoder writes all the
// bytes it appends.
type byteArena struct {
	chunks [][]byte
	c, off int // cursor: chunk and offset of the next free byte
}

// free returns the rest of the current chunk as an empty slice, starting a
// new chunk when fewer than n bytes are left.
func (a *byteArena) free(n int) []byte {
	if byteChunk-a.off < n {
		a.c, a.off = a.c+1, 0
	}
	if a.c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, byteChunk))
	}
	return a.chunks[a.c][a.off:a.off:byteChunk]
}

// spare is the space a serial-loop encoder appends into; take commits it.
func (a *byteArena) spare() []byte { return a.free(minSpare) }

// take commits b, the result of appending to the latest free or spare
// slice, and returns it capped at its length. If the append outgrew the
// chunk, b already lives on the heap and the arena keeps nothing.
func (a *byteArena) take(b []byte) []byte {
	if len(b) > 0 && &b[0] == &a.chunks[a.c][a.off] {
		a.off += len(b)
	}
	return b[:len(b):len(b)]
}

// reserve hands out n bytes as an empty slice of capacity n, so appending
// up to n bytes fills them in place.
func (a *byteArena) reserve(n int) []byte {
	if n > byteChunk {
		return make([]byte, 0, n)
	}
	return a.take(a.free(n)[:n])[:0]
}

// rewind takes every byte back.
func (a *byteArena) rewind() { a.c, a.off = 0, 0 }

// elemArena is the chunked slab decoded share vectors come from.
type elemArena struct {
	chunks [][]field.Element
	c, off int // cursor: chunk and offset of the next free element
}

// alloc hands out n zeroed elements (n <= elemChunk).
func (a *elemArena) alloc(n int) []field.Element {
	if a.off+n > elemChunk {
		a.c, a.off = a.c+1, 0
	}
	if a.c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]field.Element, elemChunk))
	}
	s := a.chunks[a.c][a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

// rewind takes every element back.
func (a *elemArena) rewind() { a.c, a.off = 0, 0 }

// build is message.Build backed by the protocol's frame arena.
func (p *Protocol) build(kind message.Kind, from, to topo.NodeID, round uint16, payload []byte) *message.Message {
	m := p.arena.frames.next()
	*m = message.Message{Kind: kind, From: from, To: to, Round: round, Payload: payload}
	return m
}

// keep commits a payload appended to p.arena.payloads.spare(), passing an
// encoder's error through.
func (p *Protocol) keep(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return p.arena.payloads.take(b), nil
}
