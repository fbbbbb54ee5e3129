package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/topo"
)

// TestByteArenaReservationsStayPut fills reservations that straddle a chunk
// boundary to capacity and checks that none moved or overwrote another,
// that an encoder outgrowing the spare space leaves the arena untouched, and
// that a rewind hands the same memory out again.
func TestByteArenaReservationsStayPut(t *testing.T) {
	var a byteArena
	const n = 5000 // 13 per chunk: the 14th starts chunk 2
	regions := make([][]byte, 20)
	for i := range regions {
		regions[i] = a.reserve(n)
		if len(regions[i]) != 0 || cap(regions[i]) != n {
			t.Fatalf("reservation %d: len %d cap %d", i, len(regions[i]), cap(regions[i]))
		}
	}
	if len(a.chunks) != 2 {
		t.Fatalf("%d chunks, want 2", len(a.chunks))
	}
	for i := range regions {
		start := &regions[i][:1][0]
		regions[i] = append(regions[i], bytes.Repeat([]byte{byte(i)}, n)...)
		if &regions[i][0] != start {
			t.Fatalf("reservation %d moved when filled", i)
		}
	}
	for i, r := range regions {
		if !bytes.Equal(r, bytes.Repeat([]byte{byte(i)}, n)) {
			t.Fatalf("reservation %d overwritten", i)
		}
	}

	c, off := a.c, a.off
	big := a.take(append(a.spare(), make([]byte, byteChunk)...))
	if a.c != c || a.off != off || len(big) != byteChunk {
		t.Errorf("an overgrown spare moved the cursor to %d:%d (was %d:%d)", a.c, a.off, c, off)
	}
	small := a.take(append(a.spare(), 1, 2, 3))
	if cap(small) != 3 || &small[0] != &a.chunks[a.c][a.off-3] {
		t.Error("a spare that fits is not committed in place, capped at its length")
	}

	a.rewind()
	if again := a.reserve(n); &again[:1][0] != &regions[0][0] {
		t.Error("rewind did not hand the first chunk out again")
	}
}

// TestFrameArenaRuns checks that a run never straddles a chunk and that a
// rewind zeroes every frame handed out.
func TestFrameArenaRuns(t *testing.T) {
	var a frameArena
	for i := 0; i < frameChunk-10; i++ {
		a.next().Kind = message.KindHello
	}
	run := a.run(20)
	if a.c != 1 || cap(run) != 20 || &run[:1][0] != &a.chunks[1][0] {
		t.Fatalf("a run of 20 with 10 slots left: chunk %d, cap %d", a.c, cap(run))
	}
	run = append(run, message.Message{Kind: message.KindShare})
	a.rewind()
	for c, chunk := range a.chunks {
		if i := slices.IndexFunc(chunk, func(m message.Message) bool { return m.Kind != 0 }); i >= 0 {
			t.Fatalf("chunk %d slot %d survived the rewind", c, i)
		}
	}
	if a.next() != &a.chunks[0][0] {
		t.Error("rewind did not restart at the first slot")
	}
}

// TestElemArenaZeroes checks that reused elements come back zeroed.
func TestElemArenaZeroes(t *testing.T) {
	var a slab[field.Element]
	v := a.alloc(3)
	copy(v, []field.Element{7, 8, 9})
	a.rewind()
	if w := a.alloc(3); &w[0] != &v[0] || !slices.Equal(w, []field.Element{0, 0, 0}) || cap(w) != 3 {
		t.Errorf("realloc after rewind: %v (cap %d)", w, cap(w))
	}
}

// TestAlarmsSorted pins the order Alarms reports: by suspect, then observed
// and expected value.
func TestAlarmsSorted(t *testing.T) {
	want := []message.Alarm{
		{Suspect: 2, Observed: 1, Expected: 9},
		{Suspect: 2, Observed: 5, Expected: 1},
		{Suspect: 2, Observed: 5, Expected: 3},
		{Suspect: 7, Observed: 0, Expected: 0},
	}
	p := &Protocol{bsAlarms: map[message.Alarm]struct{}{}}
	for _, i := range []int{3, 1, 0, 2} {
		p.bsAlarms[want[i]] = struct{}{}
	}
	if got := p.Alarms(); !slices.Equal(got, want) {
		t.Errorf("Alarms() = %v, want %v", got, want)
	}
}

// TestRosterSlabsCompact checks that compact leaves rosters in place while
// the slab holds no more than twice their entries, and past that moves
// them, intact, to the other slab.
func TestRosterSlabsCompact(t *testing.T) {
	var r rosterSlabs
	nodes := make([]nodeState, 3)
	for i := range nodes {
		nodes[i].roster.Entries = r.alloc(2)
		copy(nodes[i].roster.Entries, []message.RosterEntry{{ID: topo.NodeID(i)}, {ID: 9}})
	}
	first := &nodes[0].roster.Entries[0]
	r.alloc(6) // replaced rosters: 12 handed out for 6 live
	r.compact(nodes)
	if &nodes[0].roster.Entries[0] != first || r.cur != 0 {
		t.Fatal("compacted at twice the live entries")
	}
	r.alloc(1)
	r.compact(nodes)
	if r.cur != 1 || &nodes[0].roster.Entries[0] == first {
		t.Fatal("did not compact past twice the live entries")
	}
	for i := range nodes {
		if e := nodes[i].roster.Entries; len(e) != 2 || e[0].ID != topo.NodeID(i) || e[1].ID != 9 {
			t.Errorf("node %d roster after compaction: %v", i, e)
		}
	}
	if s := &r.slabs[1]; s.c*slabChunk+s.off != 6 {
		t.Errorf("compacted slab holds %d entries, want 6", s.c*slabChunk+s.off)
	}
}

// TestRepeatedRosterReusesBuffers checks that the second copy of a roster
// every member hears takes no new room: after a clean formation round the
// roster slab holds exactly the live rosters.
func TestRepeatedRosterReusesBuffers(t *testing.T) {
	_, p := run(t, 200, 1, true, nil)
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	live, tables := 0, 0
	for i := range p.nodes {
		live += len(p.nodes[i].roster.Entries)
		tables += len(p.nodes[i].recvShares)
	}
	s := &p.rosters.slabs[p.rosters.cur]
	if used := s.c*slabChunk + s.off; used != live || live == 0 {
		t.Errorf("roster slab handed out %d entries for %d live", used, live)
	}
	if rows := p.arena.rows.c*slabChunk + p.arena.rows.off; rows != tables {
		t.Errorf("share-table slab handed out %d rows for %d in use", rows, tables)
	}
}

// TestRepeatedRosterIsNoOp: heads send each roster twice, and a member
// that already holds it must ignore the repeat rather than reinstall (which
// clears its share tables); a roster that differs still installs.
func TestRepeatedRosterIsNoOp(t *testing.T) {
	_, p := run(t, 200, 1, true, nil)
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	for i := range p.nodes {
		st := &p.nodes[i]
		if st.role != roleMember || st.algebra == nil || st.head != st.roster.Head {
			continue
		}
		at := topo.NodeID(i)
		deliver := func(r message.Roster) {
			payload, err := message.AppendRoster(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			p.onRoster(at, &message.Message{Kind: message.KindRoster, From: r.Head, Payload: payload})
		}
		st.fSeenMask = 1 // installRoster clears it
		deliver(st.roster)
		if st.fSeenMask != 1 {
			t.Fatalf("node %d reinstalled a repeat of its roster", at)
		}
		changed := message.Roster{Head: st.roster.Head, Entries: slices.Clone(st.roster.Entries)}
		changed.Entries[len(changed.Entries)-1].Seed += 1000 // still distinct
		deliver(changed)
		if st.fSeenMask != 0 {
			t.Fatalf("node %d ignored a changed roster", at)
		}
		return
	}
	t.Fatal("no member holds a viable roster")
}

// TestWarmRetainedEpochAllocatesNothing pins the allocation-free warm
// round on the steady-state path: once a few retained epochs have grown
// every buffer, a retained epoch on a lossy deployment allocates nothing,
// degraded clusters and repair windows included.
func TestWarmRetainedEpochAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few dozen 300-node rounds")
	}
	_, p := run(t, 300, 3, false, nil)
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	round := uint16(2)
	degraded, promotions := 0, 0
	epoch := func() {
		res, err := p.RunRetaining(round)
		if err != nil {
			t.Fatal(err)
		}
		round++
		degraded += res.DegradedClusters
		promotions += res.Promotions
	}
	for i := 0; i < 10; i++ {
		epoch()
	}
	if n := testing.AllocsPerRun(10, epoch); n != 0 {
		t.Errorf("warm retained epoch: %v allocs, want 0", n)
	}
	t.Logf("%d epochs: %d degraded clusters, %d promotions", round-2, degraded, promotions)
}
