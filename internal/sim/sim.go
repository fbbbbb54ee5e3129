// Package sim is a deterministic discrete-event simulation engine. Events
// are closures scheduled at virtual times; the engine pops them in
// (time, sequence) order so runs with equal seeds replay identically.
//
// The engine is deliberately single-threaded: determinism is worth more to a
// protocol evaluation than parallelism inside one trial, and the experiment
// harness parallelises across trials instead.
//
// The event queue is allocation-lean: popped events return to a free-list
// pool and are recycled by later schedules, so a steady-state protocol round
// allocates no queue nodes at all. Cancelled events release their closure
// immediately (the captured state becomes collectable before the event is
// popped) and are compacted out of the queue in bulk when they outnumber
// the live ones.
package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// before the event queue drained.
var ErrStopped = errors.New("sim: stopped")

// event is a scheduled action. Events are pooled: gen increments every time
// an event is recycled so stale Timer handles cannot cancel an unrelated
// later event that happens to reuse the same node.
type event struct {
	at  time.Duration
	seq uint64
	gen uint32
	fn  func()
}

// Timer handles allow cancelling a scheduled event. Timers are small
// values (not heap handles): copying one is fine, the zero Timer is a valid
// no-op handle, and scheduling an event therefore allocates nothing once
// the engine's event pool is warm.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint32
}

// Cancel prevents the timer's event from firing and releases the event's
// closure immediately, so state captured by it is collectable without
// waiting for the queue to drain. Safe to call multiple times, on the zero
// Timer, and after the event fired (no-op).
func (t Timer) Cancel() {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.fn == nil {
		return
	}
	t.ev.fn = nil
	t.eng.dead++
	t.eng.maybeCompact()
}

// Engine owns the virtual clock and event queue.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   []*event // binary min-heap on (at, seq)
	pool    []*event // free list of recycled event nodes
	dead    int      // cancelled events still sitting in queue
	stopped bool
	ran     uint64
	limit   uint64     // safety valve against runaway schedules; 0 = unlimited
	sink    trace.Sink // flight recorder; nil = disabled
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// SetEventLimit installs a safety cap on the number of processed events.
// Run returns an error when the cap is hit. Zero disables the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetSink installs (or, with nil, removes) the flight-recorder sink. The
// engine only emits run-lifecycle events — start, drain, stop, limit — so
// the per-event hot loop stays untouched.
func (e *Engine) SetSink(s trace.Sink) { e.sink = s }

// emitRun records one run-lifecycle event. Callers check e.sink first, so
// a run with tracing disabled neither formats the detail nor boxes its
// arguments: a drained Run then allocates nothing.
func (e *Engine) emitRun(cause, format string, args ...any) {
	e.sink.Emit(trace.Event{At: e.now, Cluster: trace.NoCluster,
		Phase: trace.PhaseEngine, Type: trace.TypeEngine, Cause: cause,
		Detail: fmt.Sprintf(format, args...)})
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending returns the number of live events waiting. Cancelled events still
// occupying queue slots are excluded: a drained or fully-cancelled queue
// reports zero, so tests asserting on quiescence never over-count.
func (e *Engine) Pending() int { return len(e.queue) - e.dead }

// Reset returns the engine to its initial state — clock at zero, empty
// queue, run counters cleared — recycling every queued event. The event
// limit is retained. It is the engine half of reusing one deployment for
// many protocol rounds without rebuilding the substrate.
func (e *Engine) Reset() {
	for _, ev := range e.queue {
		e.recycle(ev)
	}
	e.queue = e.queue[:0]
	e.dead = 0
	e.now = 0
	e.seq = 0
	e.ran = 0
	e.stopped = false
}

// alloc takes an event node from the pool or mints a new one.
func (e *Engine) alloc() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return ev
	}
	return &event{}
}

// recycle invalidates outstanding Timer handles to ev, drops its closure,
// and returns the node to the pool.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.pool = append(e.pool, ev)
}

// At schedules fn at absolute virtual time t. Scheduling in the past is an
// error surfaced at Run time via panic-free behavior: the event is clamped
// to now (running it earlier than already-processed time would break
// causality).
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.push(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the queue drains, Stop is called, or the
// optional horizon (0 = none) passes. Events scheduled exactly at the
// horizon still run.
func (e *Engine) Run(horizon time.Duration) error {
	if e.sink != nil {
		e.emitRun("run", "pending=%d horizon=%v", e.Pending(), horizon)
	}
	for len(e.queue) > 0 {
		if e.stopped {
			if e.sink != nil {
				e.emitRun("stopped", "processed=%d", e.ran)
			}
			return ErrStopped
		}
		if horizon > 0 && e.queue[0].at > horizon {
			// Leave the event queued so a later Run with a larger horizon
			// resumes exactly where this one paused.
			e.now = horizon
			if e.sink != nil {
				e.emitRun("paused", "pending=%d", e.Pending())
			}
			return nil
		}
		ev := e.pop()
		if ev.fn == nil {
			e.dead--
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.ran++
		if e.limit > 0 && e.ran > e.limit {
			e.recycle(ev)
			if e.sink != nil {
				e.emitRun("limit", "limit=%d", e.limit)
			}
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
		fn := ev.fn
		// Recycle before running: a Cancel issued from inside fn (or any
		// later holder of this event's Timer) sees a bumped generation and
		// no-ops instead of touching the pooled node.
		e.recycle(ev)
		fn()
	}
	if e.sink != nil {
		e.emitRun("drained", "processed=%d", e.ran)
	}
	return nil
}

// maybeCompact rebuilds the heap without its cancelled events once they
// outnumber the live ones, bounding queue growth under heavy Cancel churn
// (e.g. per-frame ACK timers that almost always cancel).
func (e *Engine) maybeCompact() {
	if e.dead <= len(e.queue)/2 || len(e.queue) < 64 {
		return
	}
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.fn != nil {
			live = append(live, ev)
		} else {
			e.recycle(ev)
		}
	}
	// Clear the tail so the backing array drops its references.
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.dead = 0
	for i := len(e.queue)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// less orders the heap by (time, sequence) for deterministic FIFO ties.
func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event into the heap.
func (e *Engine) push(ev *event) {
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

// pop removes and returns the earliest event.
func (e *Engine) pop() *event {
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

// siftDown restores the heap property below index i.
func (e *Engine) siftDown(i int) {
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
