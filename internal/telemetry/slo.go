package telemetry

import (
	"sync"
	"time"
)

// Window is a rolling-window availability instrument: request outcomes
// land in fixed-resolution time buckets and Availability reads the served
// ratio over the most recent span. It turns the chaos drill's post-hoc
// availability number into a continuously observable gauge — the fleet
// records every admission verdict, and /metricsz exposes the ratio plus
// its error-budget burn.
type Window struct {
	mu      sync.Mutex
	res     time.Duration
	buckets []windowBucket
	head    int   // ring position of the current tick
	tick    int64 // absolute tick the head bucket covers
	now     func() time.Time
}

type windowBucket struct {
	ok, total int64
}

// NewWindow returns a rolling window covering span at the given
// resolution (span/res buckets, minimum 1). The canonical serving window
// is a minute at one-second resolution.
func NewWindow(span, res time.Duration) *Window {
	if res <= 0 {
		res = time.Second
	}
	n := int(span / res)
	if n < 1 {
		n = 1
	}
	return &Window{
		res:     res,
		buckets: make([]windowBucket, n),
		tick:    -1,
		now:     time.Now,
	}
}

// advance rotates the ring up to the current tick, zeroing buckets whose
// time has passed. Called with mu held.
func (w *Window) advance() {
	t := w.now().UnixNano() / int64(w.res)
	if w.tick < 0 {
		w.tick = t
		return
	}
	for ; w.tick < t; w.tick++ {
		w.head = (w.head + 1) % len(w.buckets)
		w.buckets[w.head] = windowBucket{}
	}
}

// Record adds one outcome: ok for a served request, !ok for a refusal the
// availability objective counts against the service (shed to nowhere,
// unreachable, injected crash).
func (w *Window) Record(ok bool) {
	w.mu.Lock()
	w.advance()
	w.buckets[w.head].total++
	if ok {
		w.buckets[w.head].ok++
	}
	w.mu.Unlock()
}

// Availability returns the served ratio over the window, and 1 when the
// window holds no samples — an idle service is not an unavailable one.
func (w *Window) Availability() float64 {
	w.mu.Lock()
	w.advance()
	var ok, total int64
	for _, b := range w.buckets {
		ok += b.ok
		total += b.total
	}
	w.mu.Unlock()
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// BudgetBurn returns the error-budget burn rate against an availability
// target in (0,1): observed error rate divided by the budgeted error rate
// (1 = burning exactly at target, >1 = exceeding it, 0 = clean window).
func (w *Window) BudgetBurn(target float64) float64 {
	if target <= 0 || target >= 1 {
		return 0
	}
	return (1 - w.Availability()) / (1 - target)
}
