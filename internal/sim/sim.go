// Package sim is a deterministic discrete-event simulation engine. An event
// is a function scheduled at a virtual time: either a func() (At, After) or a
// func(int) with the int argument it is called with (AtArg, AfterArg). The
// engine runs events in time order, and events due at the same time in the
// order they were scheduled, whichever form they take, so runs with equal
// seeds replay identically.
//
// The engine is deliberately single-threaded: determinism is worth more to a
// protocol evaluation than parallelism inside one trial, and the experiment
// harness parallelises across trials instead.
//
// The event queue is a monotone radix queue keyed on event time. It fits
// because the clock only moves forward (At clamps an earlier time to now):
// scheduling is O(1), finding the earliest event is O(1), and an event moves
// between buckets at most once per bit of its delay before it runs. Events are
// pooled nodes threaded into the queue's buckets as intrusive FIFO lists, so
// a steady-state protocol round allocates nothing for its queue. The
// argument-carrying form lets a caller that schedules one action for many
// nodes or items build its func(int) once and pass the node or item as the
// argument, instead of allocating a closure per event. Cancelled events
// release their function immediately (the state it captures becomes
// collectable before the event is reached) and are filtered out of the queue
// in bulk when they outnumber the live ones.
package sim

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/trace"
)

// event is a scheduled action: fn, or fnArg called with arg. Exactly one of
// fn and fnArg is set while the event is live; a cancelled or recycled event
// has neither. Events are pooled: gen increments every time an event is
// recycled so stale Timer handles cannot cancel an unrelated later event
// that happens to reuse the same node. next links the event into its queue
// bucket, or into the free list once recycled.
type event struct {
	at    time.Duration
	next  *event
	gen   uint32
	arg   int
	fn    func()
	fnArg func(int)
}

// live reports whether the event still has an action to run.
func (ev *event) live() bool { return ev.fn != nil || ev.fnArg != nil }

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
// function immediately, so state captured by it is collectable without
// waiting for the queue to drain. Safe to call multiple times, on the zero
// Timer, and after the event fired (no-op).
func (t Timer) Cancel() {
	if t.ev == nil || t.ev.gen != t.gen || !t.ev.live() {
		return
	}
	t.ev.fn, t.ev.fnArg = nil, nil
	t.eng.dead++
	t.eng.maybeCompact()
}

// bucket is a FIFO list of queued events and the earliest time among them.
type bucket struct {
	head, tail *event
	min        time.Duration
}

// append links ev at the tail of b.
func (b *bucket) append(ev *event) {
	ev.next = nil
	if b.tail == nil {
		b.head, b.min = ev, ev.at
	} else {
		b.tail.next = ev
		b.min = min(b.min, ev.at)
	}
	b.tail = ev
}

// Engine owns the virtual clock and event queue.
//
// The queue is a radix queue relative to last, the time of the event taken
// most recently: bucket i holds the events whose time first differs from
// last at bit i-1, so bucket 0 holds the events due exactly at last, and
// every queued event is due at or after last. Events due at the same time
// always share a bucket, and each bucket keeps push order, so events due at
// the same time leave in the order they were scheduled (see DESIGN.md).
type Engine struct {
	now     time.Duration
	last    time.Duration // time of the event taken last; no queued event is earlier
	buckets [64]bucket
	full    uint64 // bit i set iff buckets[i] is non-empty
	queued  int    // events in the buckets, cancelled ones included
	dead    int    // cancelled events still sitting in the buckets
	free    *event // recycled event nodes, linked through next
	minted  int    // event nodes allocated over the engine's life
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
// engine only emits run-lifecycle events — start, pause, drain, limit — so
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
// sitting in the queue are excluded: a drained or fully-cancelled queue
// reports zero, so tests asserting on quiescence never over-count.
func (e *Engine) Pending() int { return e.queued - e.dead }

// Reset returns the engine to its initial state — clock at zero, empty
// queue, run counters cleared — recycling every queued event. The event
// limit is retained. It is the engine half of reusing one deployment for
// many protocol rounds without rebuilding the substrate.
func (e *Engine) Reset() {
	for i := range e.buckets {
		for ev := e.buckets[i].head; ev != nil; {
			next := ev.next
			e.recycle(ev)
			ev = next
		}
	}
	e.buckets = [64]bucket{}
	e.full = 0
	e.queued = 0
	e.dead = 0
	e.now = 0
	e.last = 0
	e.ran = 0
}

// alloc takes an event node from the pool, first refilling an empty pool
// with a block as large as every node minted so far (at least minBlock), so
// a queue that keeps deepening allocates a logarithmic number of times.
func (e *Engine) alloc() *event {
	if e.free == nil {
		block := make([]event, max(minBlock, e.minted))
		e.minted += len(block)
		for i := range block[:len(block)-1] {
			block[i].next = &block[i+1]
		}
		e.free = &block[0]
	}
	ev := e.free
	e.free = ev.next
	return ev
}

// minBlock is the fewest event nodes the pool mints at once.
const minBlock = 64

// recycle invalidates outstanding Timer handles to ev, drops its function,
// and returns the node to the pool.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.fnArg = nil, nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// At schedules fn at absolute virtual time t. A time before now is clamped
// to now: running the event earlier than time already processed would break
// causality.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	ev := e.alloc()
	ev.at, ev.fn = max(t, e.now), fn
	e.push(ev)
	e.queued++
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func()) Timer {
	return e.At(e.now+max(delay, 0), fn)
}

// AtArg schedules fn(arg) at absolute virtual time t, clamped to now like
// At. A caller that schedules the same action for many nodes builds fn once
// and passes the node as arg, so scheduling allocates nothing. It orders
// against At events exactly as another At would.
func (e *Engine) AtArg(t time.Duration, fn func(int), arg int) Timer {
	ev := e.alloc()
	ev.at, ev.fnArg, ev.arg = max(t, e.now), fn, arg
	e.push(ev)
	e.queued++
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// AfterArg schedules fn(arg) delay after the current virtual time.
func (e *Engine) AfterArg(delay time.Duration, fn func(int), arg int) Timer {
	return e.AtArg(e.now+max(delay, 0), fn, arg)
}

// Run processes events until the queue drains or the optional horizon
// (0 = none) passes. Events scheduled exactly at the horizon still run. A
// pause moves the clock forward to the horizon, never back: a horizon
// behind the clock leaves it where it is.
func (e *Engine) Run(horizon time.Duration) error {
	if e.sink != nil {
		e.emitRun("run", "pending=%d horizon=%v", e.Pending(), horizon)
	}
	for e.queued > 0 {
		at, i := e.earliest()
		if horizon > 0 && at > horizon {
			// Leave the event queued so a later Run with a larger horizon
			// resumes exactly where this one paused. The events this Run
			// took, cancelled ones included, were due at or before the
			// horizon, and earlier Runs left last at or before now, so
			// events scheduled from the new now are not earlier than last.
			e.now = max(e.now, horizon)
			if e.sink != nil {
				e.emitRun("paused", "pending=%d", e.Pending())
			}
			return nil
		}
		ev := e.take(at, i)
		if !ev.live() {
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
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		// Recycle before running: a Cancel issued from inside fn (or any
		// later holder of this event's Timer) sees a bumped generation and
		// no-ops instead of touching the pooled node.
		e.recycle(ev)
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
	}
	// The last events taken may have been cancelled ones due after now.
	// Rebase the empty queue on now, or the next Run's schedules between
	// now and last would land in buckets that no longer order them.
	e.last = e.now
	if e.sink != nil {
		e.emitRun("drained", "processed=%d", e.ran)
	}
	return nil
}

// push appends ev to the bucket of its time relative to last.
func (e *Engine) push(ev *event) {
	i := bits.Len64(uint64(ev.at ^ e.last))
	e.buckets[i].append(ev)
	e.full |= 1 << i
}

// earliest returns the time of the earliest queued event and the lowest
// non-empty bucket, which holds it. The queue must not be empty.
func (e *Engine) earliest() (time.Duration, int) {
	i := bits.TrailingZeros64(e.full)
	return e.buckets[i].min, i
}

// take removes and returns the first event due at, the earliest time, which
// lowest non-empty bucket i holds. When i > 0 it moves last to at and
// redistributes bucket i, in order, into the lower buckets, which are empty;
// the events due at then form bucket 0.
func (e *Engine) take(at time.Duration, i int) *event {
	if i > 0 {
		ev := e.buckets[i].head
		e.buckets[i] = bucket{}
		e.full &^= 1 << i
		e.last = at
		for ev != nil {
			next := ev.next
			e.push(ev)
			ev = next
		}
	}
	b := &e.buckets[0]
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.full &^= 1
	}
	e.queued--
	return ev
}

// maybeCompact filters the cancelled events out of every bucket once they
// outnumber the live ones, bounding queue growth under heavy Cancel churn
// (e.g. per-frame ACK timers that almost always cancel). The filter is
// stable, so the live events keep their order.
func (e *Engine) maybeCompact() {
	if e.dead <= e.queued/2 || e.queued < 64 {
		return
	}
	for full := e.full; full != 0; full &= full - 1 {
		i := bits.TrailingZeros64(full)
		b := &e.buckets[i]
		ev := b.head
		*b = bucket{}
		for ev != nil {
			next := ev.next
			if ev.live() {
				b.append(ev)
			} else {
				e.recycle(ev)
			}
			ev = next
		}
		if b.head == nil {
			e.full &^= 1 << i
		}
	}
	e.queued -= e.dead
	e.dead = 0
}
