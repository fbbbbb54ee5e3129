// Package telemetry is the serving stack's aggregated time-series layer:
// lock-striped atomic counters, gauges, a log-linear latency histogram
// with an allocation-free record path, and a registry that renders
// everything as Prometheus text exposition. It complements (does not
// replace) internal/trace: trace records typed *events* for forensics,
// telemetry maintains *aggregates* for scrapers and SLOs.
//
// The contract mirrors the flight recorder's: instruments are resolved
// once at construction time (registry getters lock; handles do not), the
// record path is a handful of atomic adds with zero allocations — gated
// by make metrics-smoke the same way the disabled-trace path is gated by
// bench-gate — and everything degrades to nothing when unused.
package telemetry

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// stripes is the counter stripe count; power of two so the index mask is
// one AND. Eight stripes cover the worker-pool parallelism this repo runs
// at without bloating Value()'s sum loop.
const stripes = 8

// pad keeps adjacent stripes on distinct cache lines so concurrent Adds
// from different goroutines do not false-share.
type stripe struct {
	n atomic.Int64
	_ [7]int64
}

// Counter is a monotonically increasing counter, lock-striped to spread
// contended Adds across cache lines. Add is wait-free and allocation-free.
type Counter struct {
	cells [stripes]stripe
}

// stripeIdx picks a stripe from the caller's stack address: distinct
// goroutines own distinct stacks, so concurrent writers spread across
// stripes without any per-goroutine state or locking. The shift discards
// the intra-frame bits that are identical for every caller.
func stripeIdx() int {
	var marker byte
	return int((uintptr(unsafe.Pointer(&marker)) >> 12) & (stripes - 1))
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.cells[stripeIdx()].n.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. The sum is not a point-in-time snapshot under
// concurrent writers, but it is always between the true values at the
// start and end of the call — monotone, which is the counter contract.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is a settable instantaneous value. Gauges are written at state
// transitions (queue depth, shard states), not on the hot path, so a
// single atomic suffices.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value loads the gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to v when v exceeds it — a high-water mark that
// several writers can share, the largest value any of them saw winning.
func (g *Gauge) SetMax(v int64) {
	for cur := g.v.Load(); v > cur; cur = g.v.Load() {
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Instrument kinds, used as the Prometheus TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set, matching the family's kind; fn-backed series read
// a live value at exposition time (queue depth, shard states).
type series struct {
	labels string // rendered `k="v",…` signature, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one metric name: its kind, help text, and labeled series.
type family struct {
	name, help, kind string
	order            []string
	series           map[string]*series
}

// Registry holds metric families and renders them as Prometheus text.
// Getter methods are get-or-create and safe for concurrent use; they are
// meant for construction time, not the record path — resolve handles once
// and Add/Observe on the handle.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup get-or-creates the (family, series) pair, enforcing that a name
// keeps one kind and one label signature space, and runs bind on the
// series under the registry lock — so a handle is created exactly once
// even when two goroutines first ask for it at the same moment, and a
// concurrent exposition never sees it half set. Misuse (kind clash, odd
// label pairs) panics: these are programmer errors at construction time,
// never data-dependent.
func (r *Registry) lookup(name, help, kind string, labels []string, bind func(*series)) {
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs: " + name)
	}
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic("telemetry: metric " + name + " registered as " + f.kind + ", requested as " + kind)
	}
	s := f.series[sig]
	if s == nil {
		s = &series{labels: sig}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	bind(s)
}

// Counter returns the counter for name+labels, creating it on first use.
// Labels are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	var c *Counter
	r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.fn != nil {
			// Surface the clash here, at construction, not as a nil-handle
			// panic at some later Inc() far from the misregistration.
			panic("telemetry: metric " + name + " already registered via CounterFunc")
		}
		if s.c == nil {
			s.c = &Counter{}
		}
		c = s.c
	})
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	var g *Gauge
	r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.fn != nil {
			panic("telemetry: metric " + name + " already registered via GaugeFunc")
		}
		if s.g == nil {
			s.g = &Gauge{}
		}
		g = s.g
	})
	return g
}

// Histogram returns the histogram for name+labels, creating it on first
// use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	var h *Histogram
	r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if s.h == nil {
			s.h = &Histogram{}
		}
		h = s.h
	})
	return h
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for counters that already live as atomics
// elsewhere (an attack campaign's tallies). fn must be safe for
// concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.c != nil {
			panic("telemetry: metric " + name + " already registered as a handle-backed counter")
		}
		s.fn = fn
	})
}

// GaugeFunc registers a gauge series computed at exposition time (queue
// depth, pool size, drain state). fn must be safe for
// concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.g != nil {
			panic("telemetry: metric " + name + " already registered as a handle-backed gauge")
		}
		s.fn = fn
	})
}
