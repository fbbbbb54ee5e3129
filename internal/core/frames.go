package core

import (
	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/topo"
)

// Per-round arenas. Every frame the protocol sends, every payload byte it
// encodes, seals or opens, every share, column-sum, announce and
// child-total vector it builds or decodes, and every node's tables of
// received shares and collected reports come from the arenas below. Chunks
// are never resized, so anything handed out stays where it is until the
// arenas rewind.
//
// Lifetime rule: a frame, payload or vector built by a protocol is valid
// until that protocol's next round starts (Run or RunRetaining rewinds the
// arenas). That holds because every round drains the engine, so no MAC
// queue, retransmission or delivery event of round r is still pending when
// round r+1 begins (mac.Disable purges the queues of crashed nodes), the
// per-round node state that points into the arenas (received shares and
// their tables, assembled reports and sub-reports and their slots, solved
// sums, the node's own announce and its children's totals) is reset with
// the round, and the one holder that
// keeps a frame across rounds, attack.Replay, records a clone. The outbox
// of frames waiting for a deferred MAC.Send is per round too. A round hands
// every node with a cluster algebra fresh share and report tables: Run as
// its roster installs, RunRetaining when it resets the node.
//
// What outlives a round lives per node instead, in buffers that Run's reset
// keeps (truncated) and that grow only when a node meets a larger cluster
// than before: heard heads, joiners and children. Rosters outlive a round
// too, in a slab of their own (rosterSlabs). Values consumed within one
// event (decode targets, a witness's column, an announce total, a subset
// algebra) live in protocol scratch.
const (
	frameChunk = 1024     // frames per frame-arena chunk
	byteChunk  = 64 << 10 // bytes per payload-arena chunk
	slabChunk  = 4096     // values per chunk of a slab
	// minSpare is the free space spare offers a serial-loop encoder. It
	// covers every payload but an announce echoing dozens of 16-component
	// children, which then lands on the heap.
	minSpare = 4 << 10
)

// arenas is the protocol's per-round memory.
type arenas struct {
	frames   frameArena
	payloads byteArena
	elems    slab[field.Element]
	rows     slab[[]field.Element]   // share tables, by roster index
	reports  slab[message.Assembled] // assembled and sub-report slots, by roster index
	outbox   []*message.Message      // frames of pending sendAfter events, by event argument
}

// rewind takes back everything the last round handed out.
func (a *arenas) rewind() {
	a.frames.rewind()
	a.payloads.rewind()
	a.elems.rewind()
	a.rows.rewind()
	a.reports.rewind()
	a.outbox = a.outbox[:0]
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

// slab is a chunked arena of values of one type: decoded share vectors,
// share tables, report slots.
type slab[T any] struct {
	chunks [][]T
	c, off int // cursor: chunk and offset of the next free value
}

// alloc hands out n zeroed values. A run longer than a chunk comes from the
// heap.
func (a *slab[T]) alloc(n int) []T {
	if n > slabChunk {
		return make([]T, n)
	}
	if a.off+n > slabChunk {
		a.c, a.off = a.c+1, 0
	}
	if a.c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, slabChunk))
	}
	s := a.chunks[a.c][a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// rewind takes every value back, zeroing what was handed out: alloc then
// returns zeroed values, and nothing the last round stored stays reachable.
func (a *slab[T]) rewind() {
	for c := 0; c < a.c && c < len(a.chunks); c++ {
		clear(a.chunks[c])
	}
	if a.c < len(a.chunks) {
		clear(a.chunks[a.c][:a.off])
	}
	a.c, a.off = 0, 0
}

// rosterSlabs holds the nodes' rosters. Rosters outlive a round under
// RunRetaining, so they cannot come from the per-round arenas. Run rewinds
// the current slab, since it drops every roster; RunRetaining keeps it, and
// the rosters repair installs are added to it. Once the rosters nodes have
// replaced take more room than the live ones, compact moves the live ones
// to the other slab and makes it current.
type rosterSlabs struct {
	slabs [2]slab[message.RosterEntry]
	cur   int
}

// alloc hands out n zeroed entries from the current slab.
func (r *rosterSlabs) alloc(n int) []message.RosterEntry { return r.slabs[r.cur].alloc(n) }

// rewind takes every entry of the current slab back.
func (r *rosterSlabs) rewind() { r.slabs[r.cur].rewind() }

// compact moves the rosters of nodes to the other slab, which it rewinds
// first, when the current slab has handed out more than twice the entries
// they hold.
func (r *rosterSlabs) compact(nodes []nodeState) {
	live := 0
	for i := range nodes {
		live += len(nodes[i].roster.Entries)
	}
	if s := &r.slabs[r.cur]; s.c*slabChunk+s.off <= 2*live {
		return
	}
	r.cur ^= 1
	r.rewind()
	for i := range nodes {
		if st := &nodes[i]; len(st.roster.Entries) > 0 {
			kept := r.alloc(len(st.roster.Entries))
			copy(kept, st.roster.Entries)
			st.roster.Entries = kept
		}
	}
}

// renew returns s cleared, when it has room for n values, and otherwise n
// fresh values from a: a node that installs a second roster in one round
// reuses the tables of its first.
func renew[T any](a *slab[T], s []T, n int) []T {
	if cap(s) < n {
		return a.alloc(n)
	}
	s = s[:n]
	clear(s)
	return s
}

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
