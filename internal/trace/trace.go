// Package trace is the repository's flight recorder: a structured,
// typed event log of everything the protocol stack did and why. Every
// layer of the simulation — the event engine, the radio medium, the MAC,
// and each core protocol phase — emits Events into a Sink; sinks include
// a bounded in-memory ring buffer (Tracer), a JSONL stream writer for
// offline forensics with cmd/aggtrace, and a CountSink that totals events
// into a telemetry registry for live observation on /metricsz.
//
// Tracing is optional and designed to vanish when disabled: every emit
// site guards on a nil sink before building the event, so the hot path
// pays exactly one nil check per site. A nil *Tracer is additionally a
// valid no-op receiver everywhere, preserving the pre-flight-recorder
// contract.
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/topo"
)

// NoCluster marks an event that is not scoped to any cluster.
const NoCluster = topo.NodeID(-1)

// Protocol phases an event can belong to. These mirror the round's
// schedule (core.Config's phase times) plus the cross-round repair window.
const (
	PhaseFormation = "formation" // HELLO flood, election, joins
	PhaseRoster    = "roster"    // dissolution + final roster broadcasts
	PhaseExchange  = "exchange"  // polynomial share distribution
	PhaseAssembly  = "assembly"  // assembled column-sum reports + recovery checkpoints
	PhaseAnnounce  = "announce"  // CH-tree aggregation, witnessing, alarms
	PhaseFailover  = "failover"  // watchdogs, takeover claims, stand-in announces
	PhaseRepair    = "repair"    // cross-round churn repair window
	PhaseRadio     = "radio"     // medium-level events (drops and their causes)
	PhaseMAC       = "mac"       // MAC-level events (queue drops, ARQ exhaustion)
	PhaseEngine    = "engine"    // simulation-engine events (run lifecycle)
	PhaseFleet     = "fleet"     // serving-fleet events (degraded fan-outs)
	PhaseServe     = "serve"     // request lifecycle across fleet and station
	PhaseAttack    = "attack"    // adversary campaign events (actions, breaches)
)

// Event types. Lifecycle events carry the cluster's new state in Cause;
// the remaining types mark point facts (an alarm, a frame drop, a crash).
const (
	TypePhase     = "phase"     // a protocol phase window opened
	TypeLifecycle = "lifecycle" // a cluster's state machine advanced (state in Cause)
	TypeElection  = "election"  // a node became (or refused to become) a head
	TypeJoin      = "join"      // a member picked a head
	TypeWitness   = "witness"   // a witness check ran and passed judgement
	TypeAlarm     = "alarm"     // an integrity alarm was raised (causal chain in Cause)
	TypeWatchdog  = "watchdog"  // a head-silence watchdog expired
	TypeCrash     = "crash"     // a node fail-stopped
	TypeRecover   = "recover"   // a node rebooted or a head stood down post-recovery
	TypeDrop      = "drop"      // a frame was lost (cause: collision/fading/loss/queue)
	TypeEngine    = "engine"    // engine run started/drained/hit its limit
	TypeRound     = "round"     // per-round engine telemetry (workers, batch groups, grid)
	TypeDegraded  = "degraded"  // a fan-out answered partially (missing shards in Detail)
	TypeRequest   = "request"   // a served request advanced one stage (stage in Cause)
	TypeAttack    = "attack"    // an adversary policy acted (policy in Cause, action id in Detail)
	TypeBreach    = "breach"    // an attack succeeded silently (reconstruction or accepted tamper)
)

// Request lifecycle stages carried in the Cause field of TypeRequest
// events. Detail holds space-separated k=v tokens, always starting with
// req=<request-id>; station stages add job=<job-id> so the span tree can
// group per-job work, and timing stages add their measured durations
// (queue_wait=…, ran=…, took=…).
const (
	StageFanout   = "fanout"   // fleet submitted one shard's slice of a fan-out
	StageMerge    = "merge"    // fleet merged fan-out answers
	StageAdmit    = "admit"    // station accepted the job into its queue
	StageRun      = "run"      // a worker picked the job up (queue_wait=…)
	StageDone     = "done"     // the job finished successfully (ran=…)
	StageFailed   = "failed"   // the job finished in error (ran=…)
	StageCanceled = "canceled" // the job was canceled or timed out
)

// Cluster lifecycle states carried in the Cause field of TypeLifecycle
// events. A cluster's trace, filtered to its head and ordered by time, is
// an explicit state machine: formed → exchanging → assembling →
// [repolled → degraded →] announced | silent → takeover → corroborated →
// announced, with failed/stood-down/dissolved/promoted as the exits.
const (
	StateFormed       = "formed"       // roster published; algebra installed
	StateExchanging   = "exchanging"   // share distribution started
	StateAssembling   = "assembling"   // head committed its own column sum
	StateRepolled     = "repolled"     // head re-polled missing reporters
	StateDegraded     = "degraded"     // head broadcast a subset Reassemble
	StateAnnounced    = "announced"    // cluster sum transmitted up the tree
	StateRebutted     = "rebutted"     // live head re-broadcast against a takeover claim
	StateSilent       = "silent"       // deputy observed head silence at its watchdog
	StateTakeover     = "takeover"     // deputy claimed the takeover
	StateCorroborated = "corroborated" // member majority corroborated the silence
	StateStoodDown    = "stood-down"   // deputy retracted its claim
	StateFailed       = "failed"       // cluster contributes nothing this round
	StateDissolved    = "dissolved"    // cluster dissolved (undersized or dead remnant)
	StatePromoted     = "promoted"     // deputy promoted to permanent head
	StateOrphaned     = "orphaned"     // member re-joined after its cluster died
	StateAdopted      = "adopted"      // head published an extended roster with orphans
)

// ShardHealthy is the /healthz state of a shard that is serving (the
// other state is "draining").
const ShardHealthy = "healthy"

// Event is one recorded protocol action: who did what, when (virtual
// time), in which round, phase, and cluster, and why.
type Event struct {
	At      time.Duration `json:"at"`
	Round   uint16        `json:"round"`
	Node    topo.NodeID   `json:"node"`
	Cluster topo.NodeID   `json:"cluster"` // owning cluster's head; NoCluster when unscoped
	Phase   string        `json:"phase,omitempty"`
	Type    string        `json:"type"`
	Cause   string        `json:"cause,omitempty"`  // lifecycle state or causal chain
	Detail  string        `json:"detail,omitempty"` // free-form parameters
}

// String renders one line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v r%-3d node=%-4d", e.At, e.Round, e.Node)
	if e.Cluster >= 0 {
		fmt.Fprintf(&b, " cluster=%-4d", e.Cluster)
	} else {
		b.WriteString(" cluster=-   ")
	}
	fmt.Fprintf(&b, " %-10s %-12s", e.Phase, e.Type)
	if e.Cause != "" {
		fmt.Fprintf(&b, " %s", e.Cause)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " | %s", e.Detail)
	}
	return b.String()
}

// Sink consumes flight-recorder events. Implementations must tolerate
// being called from the (single-threaded) simulation loop; sinks read
// concurrently by other goroutines synchronise internally (CountSink's
// registry series are atomic).
type Sink interface {
	Emit(Event)
}

// Tracer is a fixed-capacity ring buffer of events — the in-memory sink
// behind aggsim's -trace dump.
type Tracer struct {
	buf     []Event
	next    int
	total   int
	dropped int
}

// New returns a tracer holding up to capacity events (older ones are
// evicted). Capacity below 1 is clamped to 1.
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit appends an event, evicting the oldest at capacity. Nil tracers are
// valid no-ops (callers still should nil-check first to skip building the
// event at all).
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.next = (t.next + 1) % cap(t.buf)
		t.dropped++
	}
	t.total++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Total returns the number of events ever recorded (including evicted).
func (t *Tracer) Total() int {
	if t == nil {
		return 0
	}
	return t.total
}

// Events returns the retained events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Dump writes the retained events q matches, one per line, plus a summary
// footer when events were evicted.
func (t *Tracer) Dump(w io.Writer, q Query) error {
	if t == nil {
		return nil
	}
	var b strings.Builder
	matched := 0
	for _, e := range t.Events() {
		if !q.Match(e) {
			continue
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
		matched++
	}
	if t.dropped > 0 {
		fmt.Fprintf(&b, "-- %d earlier events evicted (capacity %d)\n", t.dropped, cap(t.buf))
	}
	fmt.Fprintf(&b, "-- %d events matched of %d retained\n", matched, len(t.buf))
	_, err := io.WriteString(w, b.String())
	return err
}

// Multi fans one event stream out to several sinks.
type Multi []Sink

// Emit forwards the event to every sink.
func (m Multi) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Fan combines sinks, flattening and dropping nils: zero live sinks
// return nil (tracing stays disabled), one returns it bare (no fan-out
// indirection on the emit path).
func Fan(sinks ...Sink) Sink {
	live := make(Multi, 0, len(sinks))
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if m, ok := s.(Multi); ok {
			live = append(live, m...)
			continue
		}
		live = append(live, s)
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
