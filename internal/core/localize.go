package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// RunRetaining re-runs the privacy and integrity phases (shares, assembled
// broadcasts, announces) on the cluster structure formed by a previous Run,
// without re-running formation. This models repeated queries on a stable
// deployment and is what the O(log N) localization bisects over.
//
// When the previous round left churn behind — head silence observed by
// members, or crashed nodes due a reboot under CrashRecover — a repair
// window the size of the formation roster phase is inserted before the
// shares phase: deputies of dead heads promote to permanent heads (or
// dissolve unviable remnants), orphans re-join neighbouring clusters, and
// rebooted nodes resynchronise. Clean rounds skip the window entirely, so
// the steady-state timeline (and the benchmarks riding on it) is untouched.
func (p *Protocol) RunRetaining(round uint16) (metrics.RoundResult, error) {
	if p.nodes == nil {
		return metrics.RoundResult{}, fmt.Errorf("core: RunRetaining before Run")
	}
	p.round = round
	repair := p.pendingRepair()
	for i := range p.nodes {
		st := &p.nodes[i]
		st.recvMask = 0
		for j := range st.recvShares {
			st.recvShares[j] = nil
		}
		st.fSeenMask = 0
		st.solved = false
		st.solvedSums = nil
		st.subMask, st.subRecvMask = 0, 0
		st.subShares = st.subShares[:0]
		st.subSent = nil
		st.fSub = nil
		st.effMask = 0
		st.plainSums, st.plainCnt = nil, 0
		st.children = st.children[:0]
		st.myAnnounce = nil
		st.sentTo = -1
		if st.alarmed != nil {
			clear(st.alarmed)
		}
		st.headAnnounced = false
		st.headContributed = false
		st.takeoverBy = -1
		st.deputyClaimed = false
		st.tookOver = false
		st.repairJoiners = nil
		if !repair {
			st.headSilent = false // nothing will consume the flag; drop it
		}
	}
	p.bsSums = growTable(p.bsSums, p.nComponents())
	for k := range p.bsSums {
		p.bsSums[k] = 0
	}
	p.bsCount = 0
	if p.bsAlarms == nil {
		p.bsAlarms = make(map[message.Alarm]struct{})
	} else {
		clear(p.bsAlarms)
	}
	p.alarmsRaised = 0
	p.degradedClusters = 0
	p.failedClusters = 0
	p.takeovers = 0
	p.promotions = 0
	p.orphansRejoined = 0
	p.arena.rewind()
	p.start = p.env.Rec.Mark()

	base := p.cfg.SharesAt
	var offset time.Duration
	if repair {
		offset = p.cfg.SharesAt - p.cfg.RosterAt
	}
	p.env.Eng.After(0, func() {}) // anchor the schedule at current time
	if repair {
		p.scheduleRepair(offset)
	}
	// Retained rounds draw fresh targeted head crashes too: steady-state
	// operation is exactly where cross-round failover repair matters.
	if p.cfg.HeadCrashRate > 0 {
		at := offset
		p.env.Eng.After(at, func() { p.crashHeads(p.cfg.AggAt - p.cfg.SharesAt) })
	}
	p.env.Eng.After(offset+p.cfg.SharesAt-base, func() { p.scheduleShareExchange() })
	p.env.Eng.After(offset+p.cfg.AssembleAt-base, func() { p.scheduleAssembledBroadcasts() })
	p.env.Eng.After(offset+p.cfg.AggAt-base, func() { p.scheduleAnnounces() })

	if err := p.env.Eng.Run(0); err != nil {
		return metrics.RoundResult{}, fmt.Errorf("core: %w", err)
	}
	return p.result(), nil
}

// Epoch runs one measurement epoch of steady-state operation: round 1
// forms the clusters (Run); every later round re-samples the sensors'
// readings and re-runs on the retained structure (RunRetaining).
func (p *Protocol) Epoch(round uint16) (metrics.RoundResult, error) {
	if round == 1 {
		return p.Run(round)
	}
	p.env.ResampleReadings()
	return p.RunRetaining(round)
}

// Heads returns the cluster heads elected in the last Run, in ascending ID
// order (excluding the base station).
func (p *Protocol) Heads() []topo.NodeID {
	var out []topo.NodeID
	for i := 1; i < len(p.nodes); i++ {
		if p.nodes[i].role == roleHead {
			out = append(out, topo.NodeID(i))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// HeadOf returns the cluster head a node belongs to after a Run (itself
// for heads, -1 for uncovered nodes).
func (p *Protocol) HeadOf(id topo.NodeID) topo.NodeID {
	if p.nodes == nil || int(id) >= len(p.nodes) {
		return -1
	}
	return p.nodes[id].head
}

// ClusterSize returns the roster size of the given head after a Run
// (0 when the node is not a head).
func (p *Protocol) ClusterSize(head topo.NodeID) int {
	if p.nodes == nil || int(head) >= len(p.nodes) || p.nodes[head].role != roleHead {
		return 0
	}
	return len(p.nodes[head].roster.Entries)
}

// PickAttacker deterministically selects a head suitable for a pollution
// experiment from the last Run's state: a viable cluster rooted at the base
// station, optionally requiring collected children (for the child-echo
// attack). Returns -1 when none qualifies.
func (p *Protocol) PickAttacker(needChildren bool) topo.NodeID {
	if needChildren {
		// The child-echo witness needs a child that announced DIRECTLY to
		// the attacker (children absorbed from multi-hop relays cannot
		// overhear the attacker's announce).
		for _, c := range p.Heads() {
			h := p.nodes[c].sentTo
			if h >= 0 && h != topo.BaseStationID && p.nodes[h].role == roleHead &&
				p.rootedAtBaseStation(h) {
				return h
			}
		}
		return -1
	}
	for _, h := range p.Heads() {
		st := &p.nodes[h]
		if !p.rootedAtBaseStation(h) {
			continue
		}
		if viableCluster(st) {
			return h
		}
	}
	return -1
}

// DirectChildOf returns a cluster head that announced directly to the given
// parent head in the last Run — the child whose echoed entry the
// child-echo witness check protects. Returns -1 when the parent absorbed no
// direct child.
func (p *Protocol) DirectChildOf(parent topo.NodeID) topo.NodeID {
	if p.nodes == nil || int(parent) >= len(p.nodes) {
		return -1
	}
	for _, c := range p.Heads() {
		if p.nodes[c].sentTo == parent {
			return c
		}
	}
	return -1
}

// rootedAtBaseStation walks the flood-parent chain: every node the query
// flood reached has a loss-free relay path back to the base station.
func (p *Protocol) rootedAtBaseStation(head topo.NodeID) bool {
	seen := map[topo.NodeID]bool{}
	for cur := head; cur >= 0; cur = p.nodes[cur].helloParent {
		if cur == topo.BaseStationID {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
	}
	return false
}

// LocalizationResult reports the outcome of the bisection search.
type LocalizationResult struct {
	Suspect topo.NodeID // -1 when the first full round was already clean
	Rounds  int         // total aggregation rounds spent (including round 1)
}

// Localize finds a persistently polluting cluster head in O(log #heads)
// rounds: run one full round; if rejected, repeatedly re-run with half the
// cluster heads active and keep the half that still produces rejections.
// It assumes a single non-colluding attacker, per the paper's attack model.
func (p *Protocol) Localize() (LocalizationResult, error) {
	res, err := p.Run(1)
	if err != nil {
		return LocalizationResult{}, err
	}
	rounds := 1
	if res.Accepted {
		return LocalizationResult{Suspect: -1, Rounds: rounds}, nil
	}
	candidates := p.Heads()
	round := uint16(2)
	for len(candidates) > 1 {
		half := candidates[:len(candidates)/2]
		active := make(map[topo.NodeID]bool, len(half))
		for _, id := range half {
			active[id] = true
		}
		saved := p.cfg.ActiveClusters
		p.cfg.ActiveClusters = active
		r, err := p.RunRetaining(round)
		p.cfg.ActiveClusters = saved
		if err != nil {
			return LocalizationResult{}, err
		}
		rounds++
		round++
		if !r.Accepted {
			candidates = half
		} else {
			candidates = candidates[len(candidates)/2:]
		}
	}
	return LocalizationResult{Suspect: candidates[0], Rounds: rounds}, nil
}
