package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refEngine is the engine's former event queue, kept as a reference model:
// a binary min-heap ordered by (time, scheduling sequence), with cancelled
// events compacted out once they outnumber the live ones. It has the
// Engine's clock, Run, horizon, event limit and Reset semantics, and it
// counts the cases the twin test must reach.
type refEngine struct {
	now   time.Duration
	seq   uint64
	queue []*refEvent
	dead  int
	ran   uint64
	limit uint64

	compactions  int // times the dead events were filtered out
	deadDrains   int // drained Runs whose last event taken was a cancelled one
	deadTakes    int // cancelled events taken from the queue
	maxDepth     int // most events queued at once
	maxDelayBits int // bits of the largest delay scheduled
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (e *refEngine) Now() time.Duration { return e.now }
func (e *refEngine) Processed() uint64  { return e.ran }
func (e *refEngine) Pending() int       { return len(e.queue) - e.dead }

func (e *refEngine) SetEventLimit(n uint64) { e.limit = n }

func (e *refEngine) Reset() {
	for _, ev := range e.queue {
		ev.fn = nil // stale handles must not count a dead event
	}
	e.queue = e.queue[:0]
	e.dead, e.now, e.seq, e.ran = 0, 0, 0, 0
}

func (e *refEngine) At(t time.Duration, fn func()) func() {
	if t < e.now {
		t = e.now
	}
	if d := t - e.now; d > 0 {
		e.maxDelayBits = max(e.maxDelayBits, bits.Len64(uint64(d)))
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.push(ev)
	e.maxDepth = max(e.maxDepth, len(e.queue))
	return func() {
		if ev.fn == nil { // fired, dropped by the limit, cancelled or reset
			return
		}
		ev.fn = nil
		e.dead++
		e.maybeCompact()
	}
}

func (e *refEngine) Run(horizon time.Duration) error {
	lastDead := false
	for len(e.queue) > 0 {
		if horizon > 0 && e.queue[0].at > horizon {
			e.now = max(e.now, horizon)
			return nil
		}
		ev := e.pop()
		fn := ev.fn
		ev.fn = nil
		if fn == nil {
			e.dead--
			e.deadTakes++
			lastDead = true
			continue
		}
		lastDead = false
		e.now = ev.at
		e.ran++
		if e.limit > 0 && e.ran > e.limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
		fn()
	}
	if lastDead {
		e.deadDrains++
	}
	return nil
}

func (e *refEngine) maybeCompact() {
	if e.dead <= len(e.queue)/2 || len(e.queue) < 64 {
		return
	}
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.fn != nil {
			live = append(live, ev)
		}
	}
	e.queue = live
	e.dead = 0
	e.compactions++
	for i := len(e.queue)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *refEngine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) push(ev *refEvent) {
	e.queue = append(e.queue, ev)
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

func (e *refEngine) pop() *refEvent {
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

func (e *refEngine) siftDown(i int) {
	n := len(e.queue)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			return
		}
		e.queue[i], e.queue[least] = e.queue[least], e.queue[i]
		i = least
	}
}

// twinEngine is what the twin scripts drive: the Engine or the reference.
type twinEngine interface {
	At(t time.Duration, fn func()) (cancel func())
	Run(horizon time.Duration) error
	SetEventLimit(n uint64)
	Reset()
	Now() time.Duration
	Pending() int
	Processed() uint64
}

// engineTwin hands out an Engine timer as its cancel func.
type engineTwin struct{ *Engine }

func (e engineTwin) At(t time.Duration, fn func()) func() { return e.Engine.At(t, fn).Cancel }

// twinScript drives one engine with a seeded random script. Every event
// draws its actions from a generator seeded by the script seed and its own
// id, so two engines that run events in the same order perform the same
// actions, and the first divergence shows in the log.
type twinScript struct {
	t       *testing.T
	eng     twinEngine
	seed    int64
	log     []string
	cancels []func() // by event id
	budget  int      // events that running events may still schedule
}

// delay draws a delay: zero, one of a few shared values (so events collide
// on equal times), short, or far (up to 2^27 ns).
func delay(rng *rand.Rand) time.Duration {
	switch r := rng.Intn(10); {
	case r < 2:
		return 0
	case r < 4:
		return time.Duration(1+rng.Intn(3)) * 250 * time.Microsecond
	case r < 8:
		return time.Duration(rng.Int63n(1 << 14))
	default:
		return time.Duration(rng.Int63n(1 << 27))
	}
}

// schedule queues event id at now+d (or, with abs, at the absolute time d,
// which the engine clamps to now when it is in the past).
func (s *twinScript) schedule(d time.Duration, abs bool) {
	id := len(s.cancels)
	at := d
	if !abs {
		at += s.eng.Now()
	}
	s.cancels = append(s.cancels, nil)
	s.cancels[id] = s.eng.At(at, func() { s.fire(id) })
}

func (s *twinScript) fire(id int) {
	s.log = append(s.log, fmt.Sprintf("ev %d at %v pending %d", id, s.eng.Now(), s.eng.Pending()))
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(id)))
	// Children: more while the queue is shallow, and none once the budget
	// is spent, so every Run(0) drains.
	children := rng.Intn(3)
	if s.eng.Pending() < 40 {
		children++
	}
	for range min(children, s.budget) {
		s.budget--
		s.schedule(delay(rng), false)
	}
	// Cancels of random timers: pending, already fired, or this event's own.
	for range rng.Intn(3) {
		switch rng.Intn(4) {
		case 0:
			s.cancels[id]()
		default:
			s.cancels[rng.Intn(len(s.cancels))]()
		}
	}
	// Short-lived guard timers that are almost always cancelled, like the
	// MAC's ACK timeouts: the cancelled events are taken dead at their
	// deadline, or compacted out.
	if s.budget > 0 && rng.Intn(3) == 0 {
		s.budget--
		s.schedule(delay(rng), false)
		if rng.Intn(5) != 0 {
			s.cancels[len(s.cancels)-1]()
		}
	}
}

// run runs the engine, logs its result and state, and fails the test if
// the Run moved the clock back.
func (s *twinScript) run(horizon time.Duration) {
	before := s.eng.Now()
	err := s.eng.Run(horizon)
	if now := s.eng.Now(); now < before {
		s.t.Errorf("seed %d: %T.Run(%v) moved the clock back from %v to %v", s.seed, s.eng, horizon, before, now)
	}
	msg := "<nil>"
	if err != nil {
		msg = err.Error()
	}
	s.log = append(s.log, fmt.Sprintf("run(%v) = %s now %v pending %d processed %d",
		horizon, msg, s.eng.Now(), s.eng.Pending(), s.eng.Processed()))
}

// play runs the whole script for one seed.
func (s *twinScript) play() {
	rng := rand.New(rand.NewSource(s.seed))
	burst := func(n int) {
		s.budget += 3 * n
		for range n {
			s.schedule(delay(rng), false)
		}
	}
	// A deep start, then a mass cancel from outside: compaction.
	burst(300)
	for range 220 {
		s.cancels[rng.Intn(len(s.cancels))]()
	}
	// Pause at a horizon, schedule from outside (in the past too), resume to
	// a second horizon, then to the drain.
	s.run(s.eng.Now() + 3*time.Millisecond)
	s.schedule(s.eng.Now()-time.Millisecond, true)
	burst(20)
	s.run(s.eng.Now() + 40*time.Millisecond)
	s.run(0)
	// Several drains on one engine, each ending on cancelled events due
	// after the last live one; the next Run schedules between now and them.
	for range 6 {
		burst(10 + rng.Intn(20))
		for range 3 {
			s.schedule(time.Duration(1<<26+rng.Int63n(1<<26)), false)
			s.cancels[len(s.cancels)-1]()
		}
		s.run(0)
	}
	// The event limit, then lifted.
	burst(30)
	s.eng.SetEventLimit(s.eng.Processed() + 50)
	s.run(0)
	s.eng.SetEventLimit(0)
	s.run(s.eng.Now() + 5*time.Millisecond)
	// A horizon behind the clock, which leaves the clock where it is, then
	// schedules from that clock.
	s.run(s.eng.Now() / 2)
	burst(10)
	s.run(0)
	// Reset with events queued, then a fresh run on the reset engine.
	burst(40)
	s.eng.Reset()
	s.log = append(s.log, fmt.Sprintf("reset now %v pending %d processed %d",
		s.eng.Now(), s.eng.Pending(), s.eng.Processed()))
	burst(40)
	s.run(0)
}

// TestEngineMatchesReference drives the Engine and the binary-heap reference
// with the same seeded scripts and requires the same events at the same
// times, with the same Pending count, and the same result, clock, Pending
// and Processed after every Run.
func TestEngineMatchesReference(t *testing.T) {
	var total refEngine
	events, limits := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		ref := &refEngine{}
		want := &twinScript{t: t, eng: ref, seed: seed}
		want.play()
		got := &twinScript{t: t, eng: engineTwin{NewEngine()}, seed: seed}
		got.play()
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d, step %d: engine %q, reference %q", seed, i, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: engine logged %d steps, reference %d", seed, len(got.log), len(want.log))
		}
		events += len(want.log)
		for _, line := range want.log {
			limits += strings.Count(line, "event limit")
		}
		total.compactions += ref.compactions
		total.deadDrains += ref.deadDrains
		total.deadTakes += ref.deadTakes
		total.maxDepth = max(total.maxDepth, ref.maxDepth)
		total.maxDelayBits = max(total.maxDelayBits, ref.maxDelayBits)
	}
	t.Logf("%d steps: %d compactions, %d cancelled events taken, %d drains ending on a cancelled event, %d limited Runs, depth up to %d, delays up to 2^%d ns",
		events, total.compactions, total.deadTakes, total.deadDrains, limits, total.maxDepth, total.maxDelayBits)
	if total.compactions == 0 || total.deadDrains == 0 || total.deadTakes == 0 || limits == 0 {
		t.Errorf("scripts missed a case: %d compactions, %d drains on a cancelled event, %d cancelled events taken, %d limits",
			total.compactions, total.deadDrains, total.deadTakes, limits)
	}
}
