package trace

import "sync"

// The simulation's sinks assume the single-threaded event loop; the
// serving layer emits from many goroutines (request handlers, station
// workers). Locked and Collector are the
// concurrency-safe adapters for that side of the house.

// Locked serialises emissions into a sink that is not itself safe for
// concurrent use (Tracer, JSONL).
type Locked struct {
	mu   sync.Mutex
	sink Sink
}

// NewLocked wraps a sink with a mutex. A nil inner sink returns nil so
// Fan-style composition keeps the disabled path disabled.
func NewLocked(s Sink) *Locked {
	if s == nil {
		return nil
	}
	return &Locked{sink: s}
}

// Emit forwards under the lock. Nil receivers are valid no-ops.
func (l *Locked) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink.Emit(ev)
	l.mu.Unlock()
}

// Collector is an unbounded concurrency-safe event accumulator — the
// test sink for serving components, where the bounded ring Tracer would
// silently evict the early events a request's span tree needs.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event. Nil receivers are valid no-ops.
func (c *Collector) Emit(ev Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of everything collected so far, in emission order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}
