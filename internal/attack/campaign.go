package attack

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// This file is the campaign engine: composable attacker policies injected at
// the radio/MAC seam (mac.Tap). A Campaign drives a set of
// Policies through a seeded, deterministic schedule of per-round
// activations, correlates every attacker action with the witness alarms the
// protocol raised against it, and renders the outcome as a typed Report.
//
// Determinism contract: a campaign draws only from its OWN rng — never from
// the environment's — and its taps never mutate the frames the medium hands
// it (the same pointer reaches every node in range). A scouted dry run
// therefore replays bit-identically under attack, which is what makes
// "reconstructed value vs ground truth" a meaningful comparison.

// Policy is one composable attacker behaviour. The campaign calls Scout once
// against a clean dry run (to lock targets), Configure once before the
// attacked run (for config-driven attacks like the takeover forger), and
// then, in every round the policy's Activation covers: Arm at round start,
// Observe for every frame queued anywhere in the network, Intercept for
// every frame delivery, and Resolve after the round drained.
type Policy interface {
	// Name labels the policy in reports, traces, and metrics.
	Name() string
	// Configure adjusts the attacked run's protocol config (most policies
	// leave it untouched).
	Configure(cfg *core.Config)
	// Scout inspects a clean dry run's cluster structure and locks the
	// policy's targets. The replay is bit-identical, so scouted structure
	// holds under attack.
	Scout(p *core.Protocol, env *wsn.Env, rng *rand.Rand) error
	// Activation returns the rounds (1-based) the policy acts in, drawn
	// deterministically from the campaign's rng.
	Activation(total int, rng *rand.Rand) []uint16
	// Arm resets the policy's per-round state at the start of an active
	// round.
	Arm(r *Round)
	// Observe sees every frame any node queues for transmission (the
	// attacker's network-wide passive radio). It must not retain or mutate
	// msg beyond copying what it needs.
	Observe(r *Round, msg *message.Message)
	// Intercept runs once per (node, frame) delivery, before the protocol
	// receiver: return msg unchanged to observe, a substitute to tamper
	// with this receiver's view, or nil to swallow the delivery.
	Intercept(r *Round, at topo.NodeID, msg *message.Message) *message.Message
	// Resolve closes the policy's actions for the round: decide breach vs
	// detection against the alarms the campaign collected.
	Resolve(r *Round)
}

// Action is one attacker action and its resolution — the unit the detection
// and breach counters aggregate over.
type Action struct {
	ID      int         `json:"id"`
	Round   uint16      `json:"round"`
	Policy  string      `json:"policy"`
	Node    topo.NodeID `json:"node"`    // acting (or impersonated) node
	Cluster topo.NodeID `json:"cluster"` // targeted cluster head, -1 if none
	Detail  string      `json:"detail"`

	// Resolution.
	Detected bool   `json:"detected"` // a witness alarm indicted the action
	Cause    string `json:"cause"`    // the witness check that fired
	Breach   bool   `json:"breach"`   // the attack succeeded silently
	Moot     bool   `json:"moot"`     // the action never took effect (excluded from rates)

	// Reconstruction outcome (collusion policy only).
	Victim topo.NodeID `json:"victim,omitempty"`
	Value  int64       `json:"value,omitempty"` // reconstructed reading
	Truth  int64       `json:"truth,omitempty"` // ground-truth reading
}

// Report is a campaign's typed outcome.
type Report struct {
	Rounds      int      `json:"rounds"`
	CleanRounds int      `json:"clean_rounds"` // rounds with no attacker action
	FalseAlarms int      `json:"false_alarms"` // alarms raised in clean rounds
	Actions     []Action `json:"actions"`
}

// Breaches counts actions that succeeded silently.
func (r Report) Breaches() int {
	n := 0
	for _, a := range r.Actions {
		if a.Breach {
			n++
		}
	}
	return n
}

// Detections counts actions a witness alarm indicted.
func (r Report) Detections() int {
	n := 0
	for _, a := range r.Actions {
		if a.Detected {
			n++
		}
	}
	return n
}

// Effective counts actions that took effect (non-moot).
func (r Report) Effective() int {
	n := 0
	for _, a := range r.Actions {
		if !a.Moot {
			n++
		}
	}
	return n
}

// DetectionRate is detections over effective actions (1.0 when nothing
// effective happened: no effective attack means nothing went undetected).
func (r Report) DetectionRate() float64 {
	eff := r.Effective()
	if eff == 0 {
		return 1
	}
	return float64(r.Detections()) / float64(eff)
}

// Round is the per-round context handed to policies: the round number, the
// campaign's rng and environment, the raw-radio injector, and the witness
// events collected so far.
type Round struct {
	Num  uint16
	camp *Campaign

	// Stats carries the base station's view of the round; valid from
	// Resolve onward (the campaign fills it in endRound).
	Stats RoundStats

	actions []*Action
	caught  []trace.Event // alarm + stale-round witness events this round
}

// RoundStats is the slice of the round result breach resolution needs.
type RoundStats struct {
	Accepted    bool
	ReportedCnt int64
	TrueCount   int64
}

// Rng is the campaign's private randomness source (never the environment's).
func (r *Round) Rng() *rand.Rand { return r.camp.rng }

// Env exposes the deployment for decryption (stateless Open), ground-truth
// readings, and topology queries.
func (r *Round) Env() *wsn.Env { return r.camp.env }

// Inject transmits a raw frame from a node's radio, bypassing its MAC queue
// — spoofed source identity and sequence number included.
func (r *Round) Inject(from topo.NodeID, msg *message.Message) error {
	return r.camp.env.MAC.Inject(from, msg)
}

// Act records one attacker action and emits its typed trace event — the
// culprit end of the tamper → witness → alarm chain aggtrace reconstructs.
func (r *Round) Act(pol Policy, node, cluster topo.NodeID, format string, args ...any) *Action {
	a := &Action{
		ID:      r.camp.nextAction,
		Round:   r.Num,
		Policy:  pol.Name(),
		Node:    node,
		Cluster: cluster,
		Detail:  fmt.Sprintf(format, args...),
	}
	r.camp.nextAction++
	r.camp.actionsN.Add(1)
	r.actions = append(r.actions, a)
	r.camp.env.Emit(trace.Event{Round: r.Num, Node: node, Cluster: cluster,
		Phase: trace.PhaseAttack, Type: trace.TypeAttack, Cause: a.Policy,
		Detail: fmt.Sprintf("action=%d %s", a.ID, a.Detail)})
	return a
}

// Caught reports whether a witness event with one of the given causes fired
// this round against the given suspect (-1 matches any suspect). It scans
// the alarm and stale-round-witness events the campaign's sink collected.
func (r *Round) Caught(suspect topo.NodeID, causes ...string) (string, bool) {
	for _, e := range r.caught {
		for _, c := range causes {
			if e.Cause != c {
				continue
			}
			if suspect < 0 || strings.Contains(e.Detail, fmt.Sprintf("suspect=%d ", suspect)) ||
				strings.Contains(e.Detail, fmt.Sprintf("from %d ", suspect)) {
				return c, true
			}
		}
	}
	return "", false
}

// Alarms counts the witness alarms raised so far this round.
func (r *Round) Alarms() int {
	n := 0
	for _, e := range r.caught {
		if e.Type == trace.TypeAlarm {
			n++
		}
	}
	return n
}

// Campaign schedules seeded, deterministic policy activations across rounds
// and produces the typed Report. It implements both mac.Tap (the policies'
// radio seam) and trace.Sink (the detection-correlation feed).
type Campaign struct {
	seed     int64
	rounds   int
	policies []Policy
	rng      *rand.Rand
	env      *wsn.Env

	schedule   map[int][]uint16 // policy index → active rounds
	cur        *Round
	active     []Policy // policies active in the current round
	report     Report
	nextAction int

	// Telemetry counters, atomics so /metricsz can read them mid-run.
	actionsN     atomic.Int64
	breachesN    atomic.Int64
	detectionsN  atomic.Int64
	falseAlarmsN atomic.Int64
}

// Interface checks: the campaign slots into the MAC tap seam and the trace
// fan.
var (
	_ mac.Tap    = (*Campaign)(nil)
	_ trace.Sink = (*Campaign)(nil)
)

// NewCampaign builds a campaign over the given policies. rounds is the
// number of protocol rounds the attacked run will execute.
func NewCampaign(seed int64, rounds int, policies ...Policy) (*Campaign, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("attack: campaign rounds must be positive, got %d", rounds)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("attack: campaign needs at least one policy")
	}
	return &Campaign{
		seed:     seed,
		rounds:   rounds,
		policies: policies,
		rng:      rand.New(rand.NewSource(seed ^ 0xbadc0de)),
	}, nil
}

// ScoutError reports a policy whose scout found nothing to attack on the
// deployment. Harnesses that sweep seeds skip such trials.
type ScoutError struct {
	Policy string
	Err    error
}

func (e *ScoutError) Error() string { return "attack: scout " + e.Policy + ": " + e.Err.Error() }

func (e *ScoutError) Unwrap() error { return e.Err }

// Drive runs the campaign against the cluster protocol on env. It rewinds
// env to its own seed and runs a clean round 1 with the trace sinks
// detached, so every policy can lock its targets against the real cluster
// structure. It then rewinds again, so the attacked run replays that round
// bit for bit, applies the policies' config hooks to cfg, and runs the
// campaign's rounds as epochs (core.Protocol.Epoch) with the campaign
// tapped into the MAC and the trace fan. It returns every attacked round's
// result and the campaign's report. A scout that finds no target returns a
// *ScoutError.
func (c *Campaign) Drive(env *wsn.Env, cfg core.Config) ([]metrics.RoundResult, Report, error) {
	if c.rounds > math.MaxUint16 {
		return nil, Report{}, fmt.Errorf("attack: campaign rounds %d exceed the 16-bit round counter", c.rounds)
	}
	seed := env.Cfg.Seed
	if err := env.Reset(seed); err != nil {
		return nil, Report{}, err
	}
	prevSink := env.Sink
	env.SetSink(nil)
	defer env.SetSink(prevSink)
	scout, err := core.New(env, cfg)
	if err != nil {
		return nil, Report{}, err
	}
	if _, err := scout.Run(1); err != nil {
		return nil, Report{}, fmt.Errorf("attack: scout round: %w", err)
	}
	c.env = env
	c.schedule = make(map[int][]uint16, len(c.policies))
	for i, pol := range c.policies {
		if err := pol.Scout(scout, env, c.rng); err != nil {
			return nil, Report{}, &ScoutError{Policy: pol.Name(), Err: err}
		}
		c.schedule[i] = pol.Activation(c.rounds, c.rng)
	}

	if err := env.Reset(seed); err != nil {
		return nil, Report{}, err
	}
	for _, pol := range c.policies {
		pol.Configure(&cfg)
	}
	p, err := core.New(env, cfg)
	if err != nil {
		return nil, Report{}, err
	}
	env.SetSink(trace.Fan(prevSink, c))
	env.MAC.SetTap(c)
	defer env.MAC.SetTap(nil)
	out := make([]metrics.RoundResult, 0, c.rounds)
	for r := 1; r <= c.rounds; r++ {
		c.beginRound(uint16(r))
		res, err := p.Epoch(uint16(r))
		if err != nil {
			return nil, Report{}, fmt.Errorf("attack: round %d: %w", r, err)
		}
		c.endRound(RoundStats{Accepted: res.Accepted, ReportedCnt: res.ReportedCnt, TrueCount: res.TrueCount})
		out = append(out, res)
	}
	return out, c.report, nil
}

// beginRound opens a round: the policies scheduled for it are armed, and the
// tap and sink start feeding them.
func (c *Campaign) beginRound(round uint16) {
	c.cur = &Round{Num: round, camp: c}
	c.active = c.active[:0]
	for i, pol := range c.policies {
		for _, r := range c.schedule[i] {
			if r == round {
				c.active = append(c.active, pol)
				break
			}
		}
	}
	for _, pol := range c.active {
		pol.Arm(c.cur)
	}
}

// endRound closes a round: policies resolve their actions against the
// collected witness events, breaches emit their trace events, and the
// clean-round / false-alarm accounting advances.
func (c *Campaign) endRound(stats RoundStats) {
	r := c.cur
	if r == nil {
		return
	}
	r.Stats = stats
	for _, pol := range c.active {
		pol.Resolve(r)
	}
	c.report.Rounds++
	if len(r.actions) == 0 {
		c.report.CleanRounds++
		if n := r.Alarms(); n > 0 {
			c.report.FalseAlarms += n
			c.falseAlarmsN.Add(int64(n))
		}
	}
	for _, a := range r.actions {
		if a.Detected {
			c.detectionsN.Add(1)
		}
		if a.Breach {
			c.breachesN.Add(1)
			c.env.Emit(trace.Event{Round: a.Round, Node: a.Node, Cluster: a.Cluster,
				Phase: trace.PhaseAttack, Type: trace.TypeBreach, Cause: a.Policy,
				Detail: fmt.Sprintf("action=%d victim=%d value=%d truth=%d %s",
					a.ID, a.Victim, a.Value, a.Truth, a.Detail)})
		}
		c.report.Actions = append(c.report.Actions, *a)
	}
	c.cur = nil
	c.active = c.active[:0]
}

// Report returns the campaign's accumulated outcome.
func (c *Campaign) Report() Report { return c.report }

// OnSend implements mac.Tap: every queued frame flows to the active
// policies' passive radios.
func (c *Campaign) OnSend(msg *message.Message) {
	if c.cur == nil {
		return
	}
	for _, pol := range c.active {
		pol.Observe(c.cur, msg)
	}
}

// OnDeliver implements mac.Tap: the active policies may substitute or
// swallow the delivery, chained in policy order.
func (c *Campaign) OnDeliver(at topo.NodeID, msg *message.Message) *message.Message {
	if c.cur == nil {
		return msg
	}
	for _, pol := range c.active {
		if msg = pol.Intercept(c.cur, at, msg); msg == nil {
			return nil
		}
	}
	return msg
}

// Emit implements trace.Sink: alarms and stale-round witness verdicts feed
// the detection correlation. Everything else passes through untouched (the
// campaign sits in a trace.Fan next to the real sinks).
func (c *Campaign) Emit(ev trace.Event) {
	if c.cur == nil {
		return
	}
	if ev.Type == trace.TypeAlarm || (ev.Type == trace.TypeWitness && ev.Cause == "stale-round") {
		c.cur.caught = append(c.cur.caught, ev)
	}
}

// Instrument registers the campaign's live counters on a telemetry registry
// so an attacked run's /metricsz exposes attack pressure and detections.
func (c *Campaign) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("attack_actions_total", "Attacker actions performed by campaign policies.",
		func() float64 { return float64(c.actionsN.Load()) })
	reg.CounterFunc("attack_detections_total", "Attacker actions indicted by a witness alarm.",
		func() float64 { return float64(c.detectionsN.Load()) })
	reg.CounterFunc("attack_breaches_total", "Attacker actions that succeeded silently.",
		func() float64 { return float64(c.breachesN.Load()) })
	reg.CounterFunc("attack_false_alarms_total", "Witness alarms raised in attack-free rounds.",
		func() float64 { return float64(c.falseAlarmsN.Load()) })
}

// ParseSpec parses an aggsim-style campaign spec: comma-separated policy
// atoms, e.g. "collude:3,tamper,replay". Atoms:
//
//	collude:N[:px]  N colluding members + px per-link eavesdropping
//	tamper          assembled-report tampering at the target head
//	echo            child-echo forgery at a parent head
//	replay          cross-round announce replay
//	sybil[:N]       N phantom joiners during formation
//	takeover        forged deputy takeover of a live head
func ParseSpec(spec string) ([]Policy, error) {
	var out []Policy
	for _, atom := range strings.Split(spec, ",") {
		atom = strings.TrimSpace(atom)
		if atom == "" {
			return nil, fmt.Errorf("attack: empty policy atom in spec %q", spec)
		}
		parts := strings.Split(atom, ":")
		switch parts[0] {
		case "collude":
			p := &Collusion{Colluders: 2, Px: 0.3}
			if len(parts) > 1 {
				if _, err := fmt.Sscanf(parts[1], "%d", &p.Colluders); err != nil {
					return nil, fmt.Errorf("attack: bad collude count %q", parts[1])
				}
			}
			if len(parts) > 2 {
				if _, err := fmt.Sscanf(parts[2], "%g", &p.Px); err != nil {
					return nil, fmt.Errorf("attack: bad collude px %q", parts[2])
				}
			}
			if p.Colluders < 1 || !(p.Px >= 0 && p.Px <= 1) { // NaN fails both
				return nil, fmt.Errorf("attack: collude wants count >= 1 and px in [0,1], got %d:%g", p.Colluders, p.Px)
			}
			out = append(out, p)
		case "tamper":
			out = append(out, &ShareTamper{})
		case "echo":
			out = append(out, &EchoForge{})
		case "replay":
			out = append(out, &Replay{})
		case "sybil":
			p := &Sybil{Count: 2}
			if len(parts) > 1 {
				if _, err := fmt.Sscanf(parts[1], "%d", &p.Count); err != nil {
					return nil, fmt.Errorf("attack: bad sybil count %q", parts[1])
				}
			}
			if p.Count < 1 {
				return nil, fmt.Errorf("attack: sybil wants count >= 1, got %d", p.Count)
			}
			out = append(out, p)
		case "takeover":
			out = append(out, &TakeoverForge{})
		default:
			return nil, fmt.Errorf("attack: unknown policy %q (want collude/tamper/echo/replay/sybil/takeover)", parts[0])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("attack: empty campaign spec %q", spec)
	}
	return out, nil
}
