// Package chaos is the repository's fault injector: deterministic, seeded
// fault plans applied to the serving fleet on purpose, so the self-healing
// machinery (shard supervision, circuit breaking, degraded fan-out) is
// exercised by tests and load sweeps instead of waiting for production to
// exercise it first.
//
// A Plan is a list of fault windows — each names a shard (or all shards),
// a fault kind, and a time window relative to the controller's start:
//
//   - crash: the shard is unreachable for the window; with Kill set the
//     underlying station is really torn down, so recovery requires the
//     supervisor to rebuild it, not merely to re-admit it.
//   - latency: every touched request pays an added fixed delay.
//   - errors: a seeded fraction of requests fail with ErrInjected.
//   - queue-full: every admission is refused as if the queue were full —
//     the backpressure storm, distinct from a crash because the shard
//     still answers health probes.
//
// Determinism contract: the only randomness is a counter-indexed seeded
// hash (no wall-clock randomness, no global rand), so a plan with a given
// seed makes the same per-request decisions in the same order on every
// run. Wall-clock time only decides where inside the plan's windows "now"
// falls.
//
// The injector has two attachment seams: fleet.Config.Chaos consults a
// Controller at the coordinator's shard gate (every in-process topology,
// a single station included, runs as a fleet when chaos is armed), and
// Transport wraps the -join proxy's http.RoundTripper, where shards are
// remote processes.
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/topo"
	"repro/internal/trace"
)

// shardNode maps a shard ordinal onto the trace Node axis; AllShards maps
// to -1, matching trace.NoCluster's "unscoped" convention.
func shardNode(shard int) topo.NodeID { return topo.NodeID(shard) }

// Fault kinds a window can inject.
const (
	KindCrash     = "crash"
	KindLatency   = "latency"
	KindErrors    = "errors"
	KindQueueFull = "queue-full"
)

// AllShards selects every shard in a window.
const AllShards = -1

// Duration is a time.Duration that unmarshals from either a JSON number
// (nanoseconds) or a Go duration string ("250ms"), so plan files stay
// human-writable.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms" or a raw nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("chaos: duration wants a string like \"250ms\" or nanoseconds, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Window is one fault: a kind applied to a shard for [At, At+Dwell),
// measured from Controller.Start.
type Window struct {
	// Shard selects the target shard ordinal; AllShards (-1) hits every
	// shard — useful for latency or error storms, ruinous for crashes.
	Shard int `json:"shard"`
	// Kind is one of crash, latency, errors, queue-full.
	Kind string `json:"kind"`
	// At is the window's start, relative to the plan's activation.
	At Duration `json:"at"`
	// Dwell is the window's length. Zero means the fault never lifts —
	// a crash that stays down until the plan is discarded.
	Dwell Duration `json:"dwell,omitempty"`
	// Kill (crash only) really tears the station down at window start, so
	// the supervisor must rebuild the shard rather than just re-admit it.
	Kill bool `json:"kill,omitempty"`
	// Latency is the added per-request delay for kind=latency.
	Latency Duration `json:"latency,omitempty"`
	// Rate is the failing fraction for kind=errors (default 1 = every
	// request in the window).
	Rate float64 `json:"rate,omitempty"`
}

// active reports whether the window covers elapsed time t.
func (w Window) active(t time.Duration) bool {
	at := time.Duration(w.At)
	if t < at {
		return false
	}
	return w.Dwell == 0 || t < at+time.Duration(w.Dwell)
}

// hits reports whether the window targets the shard.
func (w Window) hits(shard int) bool {
	return w.Shard == AllShards || w.Shard == shard
}

// Plan is a seeded fault schedule — the JSON document aggd -chaos loads.
type Plan struct {
	// Seed drives every per-request random decision (error bursts). Two
	// controllers with equal plans make identical decision sequences.
	Seed   int64    `json:"seed"`
	Faults []Window `json:"faults"`
}

// Validate rejects malformed windows before they half-apply mid-run.
func (p Plan) Validate() error {
	var errs []error
	for i, w := range p.Faults {
		switch w.Kind {
		case KindCrash, KindQueueFull:
		case KindLatency:
			if w.Latency <= 0 {
				errs = append(errs, fmt.Errorf("chaos: fault %d: latency window needs a positive latency", i))
			}
		case KindErrors:
			if w.Rate < 0 || w.Rate > 1 {
				errs = append(errs, fmt.Errorf("chaos: fault %d: rate must be in [0, 1], got %v", i, w.Rate))
			}
		default:
			errs = append(errs, fmt.Errorf("chaos: fault %d: unknown kind %q", i, w.Kind))
		}
		if w.Shard < AllShards {
			errs = append(errs, fmt.Errorf("chaos: fault %d: shard must be an ordinal or -1 (all), got %d", i, w.Shard))
		}
		if w.At < 0 || w.Dwell < 0 {
			errs = append(errs, fmt.Errorf("chaos: fault %d: negative time window", i))
		}
		if w.Kill && w.Kind != KindCrash {
			errs = append(errs, fmt.Errorf("chaos: fault %d: kill only applies to crash windows", i))
		}
	}
	return errors.Join(errs...)
}

// LoadPlan reads and validates a plan file.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("chaos: %w", err)
	}
	return ParsePlan(data)
}

// ParsePlan decodes and validates plan JSON.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("chaos: bad plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// CrashOnePlan is the canonical availability drill: crash one shard (with
// a real kill) at a quarter of the run, hold it down for another quarter,
// and let the supervisor bring it back for the second half.
func CrashOnePlan(seed int64, shard int, run time.Duration) Plan {
	return Plan{
		Seed: seed,
		Faults: []Window{{
			Shard: shard,
			Kind:  KindCrash,
			At:    Duration(run / 4),
			Dwell: Duration(run / 4),
			Kill:  true,
		}},
	}
}

// ErrInjected marks a request failed by an errors window — distinguishable
// from every organic failure so smokes can assert injection worked.
var ErrInjected = errors.New("chaos: injected error")

// ErrCrashed marks a request refused by a crash window.
var ErrCrashed = errors.New("chaos: shard crashed")

// Decision is the controller's verdict for one request: exactly what the
// caller must do before (or instead of) serving it.
type Decision struct {
	Crash     bool          // refuse as down
	Err       bool          // fail with ErrInjected
	QueueFull bool          // refuse as queue-full
	Latency   time.Duration // added delay before serving
}

// Controller evaluates a plan against elapsed time. It is safe for
// concurrent use; all methods are allocation-free so the chaos-disabled
// and chaos-enabled hot paths stay cheap.
type Controller struct {
	plan  Plan
	now   func() time.Time
	start atomic.Int64 // ns since the epoch; 0 = not started

	draws atomic.Uint64 // per-request decision counter (errors windows)

	// edge state per window: 0 untouched, 1 on-edge emitted, 2 off-edge
	// emitted. Guarded by atomics; used only for trace emission.
	edges []atomic.Int32

	sink atomic.Pointer[trace.Sink]
}

// NewController builds a controller over a validated plan. The zero-value
// nil *Controller is a valid "chaos disabled" controller everywhere.
func NewController(p Plan) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		plan:  p,
		now:   time.Now,
		edges: make([]atomic.Int32, len(p.Faults)),
	}, nil
}

// SetNow overrides the wall clock (tests).
func (c *Controller) SetNow(now func() time.Time) { c.now = now }

// Trace attaches a sink for fault on/off edge events. The sink must be
// safe for concurrent use (wrap with trace.Locked if needed).
func (c *Controller) Trace(s trace.Sink) {
	if c == nil || s == nil {
		return
	}
	c.sink.Store(&s)
}

// Start arms the plan: windows are measured from this instant. Idempotent —
// the first call wins, so a shared controller across fleet and load driver
// starts once.
func (c *Controller) Start() {
	if c == nil {
		return
	}
	c.start.CompareAndSwap(0, c.now().UnixNano())
}

// Started reports whether the plan is armed.
func (c *Controller) Started() bool { return c != nil && c.start.Load() != 0 }

// Elapsed returns the time since Start (zero before Start).
func (c *Controller) Elapsed() time.Duration {
	if c == nil {
		return 0
	}
	s := c.start.Load()
	if s == 0 {
		return 0
	}
	return time.Duration(c.now().UnixNano() - s)
}

// Plan returns the controller's plan.
func (c *Controller) Plan() Plan {
	if c == nil {
		return Plan{}
	}
	return c.plan
}

// Decide evaluates every active window for the shard and returns the
// composed verdict for one request. Crash dominates; latency stacks.
func (c *Controller) Decide(shard int) Decision {
	var d Decision
	if c == nil || !c.Started() {
		return d
	}
	t := c.Elapsed()
	for i, w := range c.plan.Faults {
		// The edge is a property of the window over time, not of which
		// shard asked: a Decide for an untargeted shard must not record
		// the window as lifted while it still covers its target.
		c.edge(i, w, w.active(t))
		on := w.active(t) && w.hits(shard)
		if !on {
			continue
		}
		switch w.Kind {
		case KindCrash:
			d.Crash = true
		case KindQueueFull:
			d.QueueFull = true
		case KindLatency:
			d.Latency += time.Duration(w.Latency)
		case KindErrors:
			rate := w.Rate
			if rate == 0 {
				rate = 1
			}
			if c.draw() < rate {
				d.Err = true
			}
		}
	}
	return d
}

// CrashActive reports whether a crash window currently covers the shard,
// and whether that window demands a real kill — the supervisor's probe
// question, separated from Decide so probes don't consume error draws.
func (c *Controller) CrashActive(shard int) (active, kill bool) {
	if c == nil || !c.Started() {
		return false, false
	}
	t := c.Elapsed()
	for i, w := range c.plan.Faults {
		if w.Kind != KindCrash {
			continue
		}
		c.edge(i, w, w.active(t))
		on := w.active(t) && w.hits(shard)
		if on {
			active = true
			kill = kill || w.Kill
		}
	}
	return active, kill
}

// draw returns the next deterministic uniform in [0, 1): a splitmix64 of
// the plan seed and a global draw counter. The sequence is fixed by the
// seed; only the interleaving across goroutines varies.
func (c *Controller) draw() float64 {
	n := c.draws.Add(1)
	x := uint64(c.plan.Seed) + n*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// edge emits one trace event when a window turns on and one when it turns
// off, so forensics can anchor an outage chain on the injected cause.
func (c *Controller) edge(i int, w Window, on bool) {
	sp := c.sink.Load()
	if sp == nil {
		return
	}
	var want, from int32
	if on {
		want, from = 1, 0
	} else {
		want, from = 2, 1
	}
	if !c.edges[i].CompareAndSwap(from, want) {
		return
	}
	detail := fmt.Sprintf("window=%d at=%v dwell=%v", i, time.Duration(w.At), time.Duration(w.Dwell))
	if w.Kill {
		detail += " kill"
	}
	cause := w.Kind
	if !on {
		cause = w.Kind + "-lifted"
	}
	(*sp).Emit(trace.Event{
		At:      c.Elapsed(),
		Node:    shardNode(w.Shard),
		Cluster: trace.NoCluster,
		Phase:   trace.PhaseFleet,
		Type:    trace.TypeFault,
		Cause:   cause,
		Detail:  detail,
	})
}
