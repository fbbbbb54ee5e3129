// Package ipda implements the iPDA comparator (He et al., MILCOM 2008): two
// node-disjoint aggregation trees ("red" and "blue") built by probabilistic
// role election, data slicing with link-encrypted slices across both trees,
// and base-station integrity verification by comparing the two trees'
// results against a loss-tolerance threshold Th.
//
// It serves as the second baseline for the cluster-based protocol in
// internal/core: same substrate, same metrics, so overhead/accuracy/
// detection comparisons are apples-to-apples.
package ipda

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// Role colours. The base station acts as both.
const (
	roleUnknown = 0
	roleRed     = 1
	roleBlue    = 2
	roleBoth    = 3
	roleLeaf    = 4
)

// Config tunes the protocol.
type Config struct {
	L            int           // slices per tree (paper recommends 2)
	K            int           // aggregator-balance parameter (paper uses 4)
	Th           int64         // base-station acceptance threshold
	DecisionWait time.Duration // wait after hearing both colours
	SliceAt      time.Duration // slicing phase start
	AggAt        time.Duration // tree aggregation start
	EpochSlot    time.Duration // per-hop transmission window
	MaxHops      int

	// Polluter, when >= 0, makes that aggregator add PollutionDelta to the
	// aggregate it forwards on its own tree (the paper's data-pollution
	// attack).
	Polluter       topo.NodeID
	PollutionDelta int64
}

// DefaultConfig mirrors the paper's recommended parameters.
func DefaultConfig() Config {
	return Config{
		L:            2,
		K:            4,
		Th:           5,
		DecisionWait: 300 * time.Millisecond,
		SliceAt:      5 * time.Second,
		AggAt:        6500 * time.Millisecond,
		EpochSlot:    150 * time.Millisecond,
		MaxHops:      16,
		Polluter:     -1,
	}
}

type nodeState struct {
	role       int
	hops       int
	redHeard   int
	blueHeard  int
	redNbrs    []topo.NodeID // neighbouring red aggregators, first-heard order
	blueNbrs   []topo.NodeID
	decisionOn bool
	parent     topo.NodeID // same-colour parent for aggregators
	assembled  field.Element
	childSum   field.Element
	childCount uint32
	sliced     bool
}

// Protocol is one iPDA instance over an Env.
type Protocol struct {
	env   *wsn.Env
	cfg   Config
	nodes []nodeState
	round uint16

	// Base-station bookkeeping.
	colourOf map[topo.NodeID]int // roles of the BS's children, learned from HELLOs
	sumRed   field.Element
	cntRed   uint32
	sumBlue  field.Element
	cntBlue  uint32

	start metrics.Mark // traffic at round start
}

// New wires an iPDA instance onto the environment's MAC.
func New(env *wsn.Env, cfg Config) (*Protocol, error) {
	if cfg.L < 1 || cfg.K < 2 || cfg.DecisionWait <= 0 || cfg.SliceAt <= 0 ||
		cfg.AggAt <= cfg.SliceAt || cfg.EpochSlot <= 0 || cfg.MaxHops < 1 || cfg.Th < 0 {
		return nil, fmt.Errorf("ipda: invalid config %+v", cfg)
	}
	// Contention-adaptive slicing window: per-neighbourhood slice traffic
	// grows with density, so stretch beyond the reference degree.
	const referenceDegree = 18.0
	if scale := env.Net.AverageDegree() / referenceDegree; scale > 1 {
		cfg.AggAt = cfg.SliceAt + time.Duration(float64(cfg.AggAt-cfg.SliceAt)*scale)
	}
	return &Protocol{env: env, cfg: cfg}, nil
}

// Run executes one query round.
func (p *Protocol) Run(round uint16) (metrics.RoundResult, error) {
	p.round = round
	n := p.env.Net.Size()
	p.nodes = make([]nodeState, n)
	p.colourOf = make(map[topo.NodeID]int)
	p.sumRed, p.cntRed, p.sumBlue, p.cntBlue = 0, 0, 0, 0
	for i := range p.nodes {
		p.nodes[i].parent = -1
	}
	p.start = p.env.Rec.Mark()
	for i := 0; i < n; i++ {
		id := topo.NodeID(i)
		p.env.MAC.SetReceiver(id, p.receive)
	}

	bs := &p.nodes[topo.BaseStationID]
	bs.role = roleBoth
	p.env.Eng.After(0, func() { p.sendHello(topo.BaseStationID, roleBoth, 0) })
	p.env.Eng.After(p.cfg.SliceAt, func() { p.scheduleSlicing() })
	p.env.Eng.After(p.cfg.AggAt, func() { p.scheduleAggregation() })

	if err := p.env.Eng.Run(0); err != nil {
		return metrics.RoundResult{}, fmt.Errorf("ipda: %w", err)
	}

	covered, participants := 0, 0
	for i := 1; i < n; i++ {
		if p.nodes[i].role != roleUnknown {
			covered++
		}
		if p.nodes[i].sliced {
			participants++
		}
	}
	red, blue := p.sumRed.Int(), p.sumBlue.Int()
	diff := red - blue
	if diff < 0 {
		diff = -diff
	}
	res := metrics.RoundResult{
		Protocol:     "ipda",
		TrueSum:      p.env.TrueSum(),
		TrueCount:    p.env.TrueCount(),
		ReportedSum:  (red + blue) / 2,
		ReportedCnt:  int64(p.cntRed+p.cntBlue) / 2,
		Participants: participants,
		Covered:      covered,
		Accepted:     diff <= p.cfg.Th,
	}
	p.env.Rec.FillSince(p.start, &res)
	return res, nil
}

// TreeSums exposes the two trees' results for Th calibration experiments.
func (p *Protocol) TreeSums() (red, blue int64) {
	return p.sumRed.Int(), p.sumBlue.Int()
}

func (p *Protocol) sendHello(from topo.NodeID, role int, hops int) {
	p.env.MAC.Send(message.Build(
		message.KindHello, from, message.BroadcastID, p.round,
		message.MarshalHello(message.Hello{Origin: from, Role: uint8(role), Hops: uint16(hops)}),
	))
}

func (p *Protocol) receive(at topo.NodeID, msg *message.Message) {
	switch msg.Kind {
	case message.KindHello:
		p.onHello(at, msg)
	case message.KindSlice:
		p.onSlice(at, msg)
	case message.KindAggregate:
		p.onAggregate(at, msg)
	}
}

func (p *Protocol) onHello(at topo.NodeID, msg *message.Message) {
	h, err := message.UnmarshalHello(msg.Payload)
	if err != nil {
		return
	}
	st := &p.nodes[at]
	role := int(h.Role)
	red := role == roleRed || role == roleBoth
	blue := role == roleBlue || role == roleBoth
	if red {
		st.redHeard++
		st.redNbrs = appendUnique(st.redNbrs, msg.From)
	}
	if blue {
		st.blueHeard++
		st.blueNbrs = appendUnique(st.blueNbrs, msg.From)
	}
	if at == topo.BaseStationID {
		p.colourOf[msg.From] = role
		return
	}
	if st.role != roleUnknown || st.decisionOn {
		if st.role == roleRed || st.role == roleBlue {
			p.maybeAdoptParent(at, msg.From, role, int(h.Hops))
		}
		return
	}
	if st.redHeard > 0 && st.blueHeard > 0 {
		st.decisionOn = true
		// Jitter the decision: same-wave nodes otherwise decide — and
		// broadcast their role HELLOs — at the same instant and collide.
		jitter := time.Duration(p.env.Rng.Int63n(int64(p.cfg.DecisionWait)))
		p.env.Eng.After(p.cfg.DecisionWait+jitter, func() { p.decide(at) })
	}
}

// maybeAdoptParent lets an aggregator that decided before hearing a
// same-colour parent adopt one late (possible when its colour was forced by
// the balance rule).
func (p *Protocol) maybeAdoptParent(at, from topo.NodeID, senderRole, senderHops int) {
	st := &p.nodes[at]
	if st.parent >= 0 {
		return
	}
	if senderRole == st.role || senderRole == roleBoth {
		st.parent = from
		st.hops = senderHops + 1
		p.sendHello(at, st.role, st.hops)
	}
}

func (p *Protocol) decide(at topo.NodeID) {
	st := &p.nodes[at]
	if st.role != roleUnknown {
		return
	}
	total := st.redHeard + st.blueHeard
	prob := 1.0
	if total > p.cfg.K {
		prob = float64(p.cfg.K) / float64(total)
	}
	pr := prob * float64(st.blueHeard) / float64(total)
	pb := prob * float64(st.redHeard) / float64(total)
	u := p.env.Rng.Float64()
	switch {
	case u < pr:
		st.role = roleRed
	case u < pr+pb:
		st.role = roleBlue
	default:
		st.role = roleLeaf
		return
	}
	// Parent: first-heard aggregator of our colour (the base station, being
	// both colours, qualifies for either).
	var candidates []topo.NodeID
	if st.role == roleRed {
		candidates = st.redNbrs
	} else {
		candidates = st.blueNbrs
	}
	if len(candidates) == 0 {
		// No same-colour parent reachable: stay leaf-like until one appears.
		st.parent = -1
		return
	}
	st.parent = candidates[0]
	st.hops = p.nodes[st.parent].hops + 1
	p.sendHello(at, st.role, st.hops)
}

func appendUnique(ids []topo.NodeID, id topo.NodeID) []topo.NodeID {
	for _, x := range ids {
		if x == id {
			return ids
		}
	}
	return append(ids, id)
}
