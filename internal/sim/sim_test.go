package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(time.Second, func() {
		e.After(500*time.Millisecond, func() { at = e.Now() })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 1500*time.Millisecond {
		t.Errorf("nested event at %v, want 1.5s", at)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-time.Second, func() { fired = true })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event with negative delay should fire")
	}
	if e.Now() != 0 {
		t.Errorf("clock = %v, want 0", e.Now())
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(time.Second, func() {
		e.At(time.Millisecond, func() { at = e.Now() }) // in the past
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Errorf("past event ran at %v, want clamped to 1s", at)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(time.Second, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // double-cancel is fine
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	var zero Timer
	zero.Cancel() // the zero Timer is a valid no-op handle
}

func TestHorizonPausesAndResumes(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for i := 1; i <= 4; i++ {
		d := time.Duration(i) * time.Second
		e.At(d, func() { got = append(got, d) })
	}
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after horizon 2s: %v", got)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("clock = %v, want horizon", e.Now())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("after full run: %v", got)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var reschedule func()
	reschedule = func() { e.After(time.Millisecond, reschedule) }
	e.After(0, reschedule)
	if err := e.Run(0); err == nil {
		t.Fatal("runaway schedule should trip the event limit")
	}
	if e.Processed() != 11 {
		t.Errorf("processed = %d, want 11 (limit+1 detected)", e.Processed())
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.At(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Errorf("pending = %d", e.Pending())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Errorf("pending after run = %d", e.Pending())
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	tm := e.At(time.Second, func() {})
	e.At(2*time.Second, func() {})
	tm.Cancel()
	if e.Pending() != 1 {
		t.Errorf("pending with one cancelled = %d, want 1", e.Pending())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Errorf("pending after run = %d, want 0", e.Pending())
	}
}

func TestCancelAfterFireDoesNotTouchRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.At(time.Millisecond, func() { fired++ })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// The fired event's node is back in the pool; this schedule reuses it.
	e.At(2*time.Millisecond, func() { fired += 10 })
	tm.Cancel() // stale handle: must not cancel the recycled event
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 11 {
		t.Errorf("fired = %d, want 11 (stale cancel must be a no-op)", fired)
	}
}

func TestCancelInsideOwnEventIsNoOp(t *testing.T) {
	e := NewEngine()
	var tm Timer
	ran := false
	tm = e.At(time.Millisecond, func() {
		tm.Cancel() // cancelling the already-firing event must be harmless
		ran = true
	})
	e.At(2*time.Millisecond, func() {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event did not run")
	}
}

func TestDeadEventCompaction(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 0, 200)
	for i := 0; i < 200; i++ {
		d := time.Duration(i+1) * time.Millisecond
		timers = append(timers, e.At(d, func() {}))
	}
	for _, tm := range timers[:150] {
		tm.Cancel()
	}
	if e.Pending() != 50 {
		t.Errorf("pending = %d, want 50", e.Pending())
	}
	// Compaction must have shrunk the physical queue below the dead count.
	if e.queued > 120 {
		t.Errorf("queue not compacted: %d slots for 50 live events", e.queued)
	}
	var got int
	e.At(500*time.Millisecond, func() { got = e.Pending() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 0 || e.Pending() != 0 {
		t.Errorf("pending at end = %d/%d, want 0", got, e.Pending())
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(time.Second, func() { count++ })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	e.At(5*time.Second, func() { count += 100 }) // must vanish on reset
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
		t.Errorf("after reset: now=%v pending=%d processed=%d", e.Now(), e.Pending(), e.Processed())
	}
	e.At(time.Millisecond, func() { count += 10 })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 11 {
		t.Errorf("count = %d, want 11 (dropped event must not fire)", count)
	}
	if e.Now() != time.Millisecond {
		t.Errorf("clock = %v, want 1ms", e.Now())
	}
}

func TestRunAllocatesNoEventNodesInSteadyState(t *testing.T) {
	e := NewEngine()
	// Prime the pool with one warm-up round.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 1000 {
			e.After(time.Millisecond, tick)
		}
	}
	e.After(0, tick)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		e.After(0, tick)
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	// Pooled event nodes, value Timers, shared closure: nothing should
	// reach the heap once the pool is warm.
	if allocs > 8 {
		t.Errorf("allocs per 1000-event run = %.0f, want ~0 (pooled)", allocs)
	}
}

// BenchmarkSimEventLoop times the event queue at the depth a 10,000-node
// epoch runs it: about 5,000 queued events, about 15% of them cancelled
// timers (the MAC's ACK timeouts, armed per unicast and cancelled when the
// ACK arrives, then popped dead at their deadline). Each of 4,250 event
// chains schedules its successor a uniform [0, 2 ms) later, and every sixth
// event arms a 1 ms timeout that the next event cancels. One op is one live
// event popped and run; the dead pops it drags along are part of its cost.
// The event limit ends the timed Run after b.N events.
func BenchmarkSimEventLoop(b *testing.B) { benchEventLoop(b, 4250) }

// BenchmarkSimEventLoopShallow is BenchmarkSimEventLoop at the depth of a
// 400-node lossy query (about 215 events queued on average): 170 chains,
// about 200 queued events.
func BenchmarkSimEventLoopShallow(b *testing.B) { benchEventLoop(b, 170) }

func benchEventLoop(b *testing.B, chains int) {
	const (
		maxGap  = 2 * time.Millisecond
		timeout = time.Millisecond
	)
	rng := rand.New(rand.NewSource(1))
	gaps := make([]time.Duration, 1<<16)
	for i := range gaps {
		gaps[i] = time.Duration(rng.Int63n(int64(maxGap)))
	}
	e := NewEngine()
	noop := func() {}
	var armed Timer
	ran := 0
	var fire func()
	fire = func() {
		ran++
		armed.Cancel()
		armed = Timer{}
		if ran%6 == 0 {
			armed = e.After(timeout, noop)
		}
		e.After(gaps[ran&(len(gaps)-1)], fire)
	}
	for i := 0; i < chains; i++ {
		e.After(gaps[i], fire)
	}
	// Reach the steady state (dead timers included) before timing.
	if err := e.Run(10 * maxGap); err != nil {
		b.Fatal(err)
	}
	e.SetEventLimit(e.Processed() + uint64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(0); err == nil {
		b.Fatal("the chains drained before the event limit")
	}
	b.StopTimer()
	b.ReportMetric(float64(e.queued), "queued")
	b.ReportMetric(100*float64(e.dead)/float64(e.queued), "dead%")
}
