// Package repro is a from-scratch Go reproduction of "A Cluster-Based
// Protocol to Enforce Integrity and Preserve Privacy in Data Aggregation"
// (ICDCS 2009): a complete wireless-sensor-network simulation substrate
// (discrete-event engine, shared-medium radio with collisions, CSMA/CA MAC
// with ARQ, link cryptography) carrying three aggregation protocols —
//
//   - the cluster-based privacy+integrity protocol (the paper's
//     contribution; package internal/core),
//   - TAG (Madden et al.), the no-security baseline, which with sampled
//     attestation doubles as the SDAP-class statistical comparator, and
//   - iPDA (He et al.), the disjoint-tree comparator —
//
// plus the adversary models and the experiment harness that regenerates
// every table and figure of the evaluation (see DESIGN.md and
// EXPERIMENTS.md).
//
// This package is the stable facade: deploy a network once, run any
// protocol on it, and inspect the base station's view of the round.
//
//	dep, err := repro.NewDeployment(repro.Options{Nodes: 400, Seed: 1})
//	res, err := dep.RunCluster(repro.ClusterOptions{})
//	fmt.Printf("accuracy=%.3f accepted=%v\n", res.Accuracy(), res.Accepted)
package repro

import (
	"fmt"
	"io"
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ipda"
	"repro/internal/metrics"
	"repro/internal/tag"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// Options describes a deployment. Zero values take the lineage papers'
// defaults: 400 m × 400 m field, 50 m radio range, 1 Mbps lossy channel,
// base station at the field centre, readings uniform in [10, 100].
type Options struct {
	Nodes      int     // total nodes including the base station (default 400)
	FieldSize  float64 // square field side in meters (default 400)
	Range      float64 // radio range in meters (default 50)
	Seed       int64   // deployment + protocol randomness seed
	Ideal      bool    // error-free channel (no collisions)
	CountQuery bool    // unit readings (COUNT aggregation)
	Grid       bool    // jittered-grid deployment (smart metering)
	LossRate   float64 // injected iid per-reception frame loss in [0, 1)
	NoARQ      bool    // disable MAC retransmissions (exposes raw loss)
}

// Deployment is one placed network; protocols run on top of it.
//
// Concurrency contract: a Deployment is NOT safe for concurrent use. Every
// method — including the Run* family, Reset, the trace attachments, and the
// read-only accessors (which touch shared RNG and counter state underneath)
// — must be serialized by the caller: one goroutine at a time, with
// happens-before edges between handoffs. A service that answers queries in
// parallel owns one Deployment per worker goroutine and never shares them;
// internal/station's pool is the reference implementation of that
// discipline (each worker goroutine exclusively owns its Deployment for the
// station's lifetime).
type Deployment struct {
	env *wsn.Env
	// proto is the iCPDA protocol the cluster entry points reuse from call
	// to call (see cluster); nil until the first call and after a failure.
	proto *core.Protocol
}

// Traffic is a point-in-time copy of the deployment's radio-level traffic
// counters, as accumulated since NewDeployment or the last Reset. It is a
// plain value: safe to retain, compare, and hand across goroutines.
type Traffic struct {
	TxBytes     int `json:"tx_bytes"`
	RxBytes     int `json:"rx_bytes"`
	TxMessages  int `json:"tx_messages"`
	RxMessages  int `json:"rx_messages"`
	AppMessages int `json:"app_messages"` // frames excluding MAC ACKs
	Collisions  int `json:"collisions"`
	Dropped     int `json:"dropped"`
}

// Traffic snapshots the deployment's traffic counters. Like every other
// method it must be serialized with runs; capture the snapshot between
// rounds, not during one.
func (d *Deployment) Traffic() Traffic {
	t := d.env.Rec.Traffic()
	return Traffic{
		TxBytes:     t.TxBytes,
		RxBytes:     t.RxBytes,
		TxMessages:  t.TxMessages,
		RxMessages:  t.RxMessages,
		AppMessages: t.AppMessages,
		Collisions:  t.Collisions,
		Dropped:     t.Dropped,
	}
}

// EnableTrace turns on in-memory flight recording with the given
// ring-buffer capacity and returns a dump function that writes the retained
// events to w. It composes with TraceTo and TraceCounts: each attaches an
// additional sink to the same event stream.
func (d *Deployment) EnableTrace(capacity int) func(w io.Writer) error {
	tr := trace.New(capacity)
	d.env.SetSink(trace.Fan(d.env.Sink, tr))
	return func(w io.Writer) error { return tr.Dump(w, trace.NewQuery()) }
}

// TraceTo streams every flight-recorder event to w as JSONL — the format
// cmd/aggtrace consumes. The returned function flushes (and, when w is an
// io.Closer, closes) the stream; call it after the run and check its error
// so a failed write cannot silently truncate a forensic trace.
func (d *Deployment) TraceTo(w io.Writer) func() error {
	j := trace.NewJSONL(w)
	d.env.SetSink(trace.Fan(d.env.Sink, j))
	return j.Close
}

// TraceCounts attaches a counting sink whose series — per-type and
// per-phase event counts plus round and virtual-time high-water marks —
// live in reg, so /metricsz can scrape them while a run is in flight.
// Deployments counting into one registry share its series.
func (d *Deployment) TraceCounts(reg *telemetry.Registry) {
	d.env.SetSink(trace.Fan(d.env.Sink, trace.NewCountSink(reg)))
}

// NewDeployment places the network and wires the full substrate.
func NewDeployment(o Options) (*Deployment, error) {
	if o.Nodes == 0 {
		o.Nodes = 400
	}
	cfg := wsn.DefaultConfig(o.Nodes, o.Seed)
	if o.FieldSize > 0 {
		cfg.FieldSize = o.FieldSize
	}
	if o.Range > 0 {
		cfg.Range = o.Range
	}
	cfg.Radio.Ideal = o.Ideal
	cfg.Radio.LossRate = o.LossRate
	if o.NoARQ {
		cfg.MAC.MaxTxRetries = 0
	}
	cfg.Grid = o.Grid
	if o.CountQuery {
		cfg.ReadingMin, cfg.ReadingMax = 1, 1
	}
	env, err := wsn.NewEnv(cfg)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Deployment{env: env}, nil
}

// Reset rewinds the deployment to its freshly-built state under the given
// seed while keeping the placed topology and neighbour tables: clock, radio,
// MAC, traffic counters, key material, and readings all return to what
// NewDeployment would have produced. Resetting to the deployment's own seed
// replays the original run bit-for-bit; a different seed re-draws every
// non-topology source of randomness. This is how the round benchmarks and
// multi-trial harnesses amortise deployment construction.
func (d *Deployment) Reset(seed int64) error {
	if err := d.env.Reset(seed); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// Size returns the node count including the base station.
func (d *Deployment) Size() int { return d.env.Net.Size() }

// AverageDegree returns the deployment's mean one-hop neighbour count.
func (d *Deployment) AverageDegree() float64 { return d.env.Net.AverageDegree() }

// Connected reports whether every node can reach the base station.
func (d *Deployment) Connected() bool { return d.env.Net.Connected() }

// TrueSum returns the ground-truth sum of all sensor readings.
func (d *Deployment) TrueSum() int64 { return d.env.TrueSum() }

// Result is the base station's view of one aggregation round.
type Result struct {
	Protocol     string `json:"protocol"`
	TrueSum      int64  `json:"true_sum"`
	TrueCount    int64  `json:"true_count"`
	ReportedSum  int64  `json:"reported_sum"`
	ReportedCnt  int64  `json:"reported_count"`
	Participants int    `json:"participants"`
	Covered      int    `json:"covered"`
	Accepted     bool   `json:"accepted"` // integrity verdict (always true for TAG)
	Alarms       int    `json:"alarms"`   // witness alarms that reached the base station

	// Resilience accounting (cluster protocol only).
	DegradedClusters int `json:"degraded_clusters"` // clusters recovered over a strict participant subset
	FailedClusters   int `json:"failed_clusters"`   // viable clusters that contributed nothing

	// Head-failover accounting (cluster protocol only).
	Takeovers       int `json:"takeovers"`        // deputy stand-in announces after in-round head silence
	Promotions      int `json:"promotions"`       // deputies promoted to permanent head at round start
	OrphansRejoined int `json:"orphans_rejoined"` // members of dead clusters re-adopted elsewhere

	TxBytes     int `json:"tx_bytes"` // bytes on the air, MAC ACKs included
	TxMessages  int `json:"tx_messages"`
	AppMessages int `json:"app_messages"` // frames excluding MAC ACKs
}

// Accuracy is ReportedSum / TrueSum (1.0 = lossless). An exactly-reported
// zero truth is perfect accuracy, not zero.
func (r Result) Accuracy() float64 {
	if r.TrueSum == 0 {
		if r.ReportedSum == 0 {
			return 1
		}
		return 0
	}
	return float64(r.ReportedSum) / float64(r.TrueSum)
}

// ParticipationRate is the fraction of sensors whose reading entered the
// aggregate.
func (r Result) ParticipationRate() float64 {
	if r.TrueCount == 0 {
		return 0
	}
	return float64(r.Participants) / float64(r.TrueCount)
}

func fromRound(m metrics.RoundResult) Result {
	return Result{
		Protocol:     m.Protocol,
		TrueSum:      m.TrueSum,
		TrueCount:    m.TrueCount,
		ReportedSum:  m.ReportedSum,
		ReportedCnt:  m.ReportedCnt,
		Participants: m.Participants,
		Covered:      m.Covered,
		Accepted:     m.Accepted,
		Alarms:       m.Alarms,

		DegradedClusters: m.DegradedClusters,
		FailedClusters:   m.FailedClusters,

		Takeovers:       m.Takeovers,
		Promotions:      m.Promotions,
		OrphansRejoined: m.OrphansRejoined,

		TxBytes:     m.TxBytes,
		TxMessages:  m.TxMessages,
		AppMessages: m.AppMessages,
	}
}

// ClusterOptions tunes the cluster-based protocol. Zero values take the
// reference parameters.
type ClusterOptions struct {
	Pc             float64 // head-election probability (default 0.25)
	PlainFallback  bool    // undersized clusters report without slicing
	NoMerge        bool    // disable undersized-cluster merging (ablation)
	Polluter       int     // node ID of a pollution attacker; < 0 or 0 = none
	PollutionDelta int64
	PolluteChild   bool    // tamper a child echo instead of the own sum
	PolluteFrom    int     // first round the attacker acts in (0 = always)
	Colluders      []int   // nodes that suppress witness alarms (collusive attack)
	CrashRate      float64 // fraction of nodes fail-stopping mid-round
	NoDegrade      bool    // disable degraded subset recovery (ablation)
	HeadCrashRate  float64 // per-round probability each cluster head fail-stops
	CrashRecover   bool    // crashed nodes reboot at the next round's repair window
	NoFailover     bool    // disable deputy head-failover (ablation)

	// MaxHops bounds the announce schedule's depth slotting (default 16,
	// which covers the papers' 400m reference field). Deployments deeper
	// than this clamp every far head into the same slot and collide; the
	// scale benchmarks set it to the network diameter in hops.
	MaxHops int
}

func (o ClusterOptions) config() core.Config {
	cfg := core.DefaultConfig()
	if o.Pc > 0 {
		cfg.Pc = o.Pc
	}
	if o.PlainFallback {
		cfg.Undersized = core.UndersizedPlain
	}
	cfg.NoMerge = o.NoMerge
	if o.Polluter > 0 {
		cfg.Polluter = topoID(o.Polluter)
		cfg.PollutionDelta = o.PollutionDelta
		if o.PolluteChild {
			cfg.Target = core.PolluteChild
		}
		if o.PolluteFrom > 0 {
			cfg.PolluteFromRound = uint16(o.PolluteFrom)
		}
	}
	if len(o.Colluders) > 0 {
		cfg.Colluders = make(map[topo.NodeID]bool, len(o.Colluders))
		for _, id := range o.Colluders {
			cfg.Colluders[topoID(id)] = true
		}
	}
	cfg.CrashRate = o.CrashRate
	cfg.NoDegrade = o.NoDegrade
	cfg.HeadCrashRate = o.HeadCrashRate
	cfg.CrashRecover = o.CrashRecover
	cfg.NoFailover = o.NoFailover
	if o.MaxHops > 0 {
		cfg.MaxHops = o.MaxHops
	}
	return cfg
}

// runRound builds one protocol on the deployment and runs its first round:
// the body the single-round baseline Run* methods share.
func runRound[P metrics.Protocol, C any](d *Deployment, newP func(*wsn.Env, C) (P, error), cfg C) (Result, error) {
	p, err := newP(d.env, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("repro: %w", err)
	}
	res, err := p.Run(1)
	if err != nil {
		return Result{}, fmt.Errorf("repro: %w", err)
	}
	return fromRound(res), nil
}

// cluster returns the deployment's iCPDA protocol reconfigured for o,
// building it on first use. Every caller starts with Run(1), which resets
// all node state, so a reused protocol answers exactly as a fresh one; what
// it keeps is the buffers earlier rounds sized. The protocol is detached
// while the caller runs it, and the caller re-attaches it only on success:
// after a failed round, or a panic a station worker recovers, the next call
// builds a fresh one.
func (d *Deployment) cluster(o ClusterOptions) (*core.Protocol, error) {
	p := d.proto
	d.proto = nil
	var err error
	if p == nil {
		p, err = core.New(d.env, o.config())
	} else {
		err = p.Reconfigure(o.config())
	}
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return p, nil
}

// RunCluster executes one round of the cluster-based protocol.
func (d *Deployment) RunCluster(o ClusterOptions) (Result, error) {
	p, err := d.cluster(o)
	if err != nil {
		return Result{}, err
	}
	res, err := p.Run(1)
	if err != nil {
		return Result{}, fmt.Errorf("repro: %w", err)
	}
	d.proto = p
	return fromRound(res), nil
}

// RunClusterRounds executes `rounds` consecutive measurement epochs on one
// cluster formation: the first round forms clusters, later rounds re-sample
// every sensor's reading and re-run the privacy and integrity phases on the
// retained structure — the steady-state operation mode (e.g. hourly meter
// reads).
func (d *Deployment) RunClusterRounds(rounds int, o ClusterOptions) ([]Result, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("repro: rounds must be positive, got %d", rounds)
	}
	if rounds > math.MaxUint16 {
		return nil, fmt.Errorf("repro: rounds must fit a 16-bit round counter, got %d (max %d)",
			rounds, math.MaxUint16)
	}
	p, err := d.cluster(o)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, rounds)
	for r := 1; r <= rounds; r++ {
		res, err := p.Epoch(uint16(r))
		if err != nil {
			return nil, fmt.Errorf("repro: round %d: %w", r, err)
		}
		out = append(out, fromRound(res))
	}
	d.proto = p
	return out, nil
}

// RunClusterCampaign drives an adversary campaign (package internal/attack)
// against the cluster protocol. It first scouts a clean dry run of round 1
// with tracing detached, so every policy can lock its targets against the
// real cluster structure; the deployment is then rewound to its own seed —
// the attacked run replays the dry run bit-for-bit — and the campaign is
// installed at the MAC tap seam and in the trace fan for the real rounds.
// It returns the per-round base-station results alongside the campaign's
// breach/detection report.
func (d *Deployment) RunClusterCampaign(o ClusterOptions, camp *attack.Campaign) ([]Result, attack.Report, error) {
	rounds, rep, err := camp.Drive(d.env, o.config())
	if err != nil {
		return nil, attack.Report{}, fmt.Errorf("repro: %w", err)
	}
	out := make([]Result, len(rounds))
	for i, res := range rounds {
		out[i] = fromRound(res)
	}
	return out, rep, nil
}

// LocalizationResult reports the bisection search outcome.
type LocalizationResult struct {
	Suspect int // -1 when the first full round was already clean
	Rounds  int
}

// LocalizePolluter runs the O(log N) bisection against a configured
// attacker and returns the isolated suspect.
func (d *Deployment) LocalizePolluter(o ClusterOptions) (LocalizationResult, error) {
	p, err := d.cluster(o)
	if err != nil {
		return LocalizationResult{}, err
	}
	loc, err := p.Localize()
	if err != nil {
		return LocalizationResult{}, fmt.Errorf("repro: %w", err)
	}
	d.proto = p
	return LocalizationResult{Suspect: int(loc.Suspect), Rounds: loc.Rounds}, nil
}

// RunTAG executes one TAG round (no privacy, no integrity).
func (d *Deployment) RunTAG() (Result, error) {
	return runRound(d, tag.New, tag.DefaultConfig())
}

// IPDAOptions tunes the iPDA comparator.
type IPDAOptions struct {
	Slices int // pieces per tree (default 2)
	// Th is the acceptance threshold on |S_red - S_blue|. The paper uses 5
	// for COUNT queries; the facade defaults to 300, sized for SUM queries
	// over readings in [10, 100] where one residual slice loss distorts a
	// tree by up to ~100.
	Th             int64
	Polluter       int // aggregator that pollutes its own tree; 0 = none
	PollutionDelta int64
}

// RunIPDA executes one iPDA round (disjoint red/blue trees).
func (d *Deployment) RunIPDA(o IPDAOptions) (Result, error) {
	cfg := ipda.DefaultConfig()
	cfg.Th = 300
	if o.Slices > 0 {
		cfg.L = o.Slices
	}
	if o.Th > 0 {
		cfg.Th = o.Th
	}
	if o.Polluter > 0 {
		cfg.Polluter = topoID(o.Polluter)
		cfg.PollutionDelta = o.PollutionDelta
	}
	return runRound(d, ipda.New, cfg)
}

// ExperimentIDs lists the reproduction's tables and figures.
func ExperimentIDs() []string {
	all := experiment.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// RunExperiment regenerates one table/figure and returns the rendered text
// table. quick shrinks sweeps for smoke testing.
func RunExperiment(id string, quick bool, seed int64) (string, error) {
	e, ok := experiment.Lookup(id)
	if !ok {
		return "", fmt.Errorf("repro: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	res, err := e.Run(experiment.RunConfig{Quick: quick, Seed: seed})
	if err != nil {
		return "", fmt.Errorf("repro: %w", err)
	}
	return res.Render(), nil
}

// SDAPOptions tunes the SDAP-class statistical comparator.
type SDAPOptions struct {
	// SampleFraction of aggregators the base station challenges per round
	// (default 0.2). Detection probability tracks this fraction.
	SampleFraction float64
	Polluter       int
	PollutionDelta int64
}

// RunSDAP executes one round of the SDAP-class comparator: TAG aggregation
// hardened by commit-and-attest sampling. It contrasts with RunCluster's
// witnesses: detection is probabilistic (≈ the sample fraction) and costs
// attestation traffic, and there is no privacy protection at all.
func (d *Deployment) RunSDAP(o SDAPOptions) (Result, error) {
	cfg := tag.DefaultConfig()
	cfg.SampleFraction = 0.2
	if o.SampleFraction > 0 {
		cfg.SampleFraction = o.SampleFraction
	}
	if o.Polluter > 0 {
		cfg.Polluter = topoID(o.Polluter)
		cfg.PollutionDelta = o.PollutionDelta
	}
	return runRound(d, tag.New, cfg)
}
