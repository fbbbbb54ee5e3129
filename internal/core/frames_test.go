package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/message"
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
	var a elemArena
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
