// Package core implements the reproduced paper's contribution: a
// cluster-based data aggregation protocol that preserves privacy through
// CPDA-style in-cluster secret sharing and enforces integrity through
// in-cluster witnessing over the shared wireless medium.
//
// Protocol phases (see DESIGN.md for the reconstruction rationale):
//
//  1. Cluster formation — the base station floods HELLO; on first receipt a
//     node elects itself cluster head (CH) with probability Pc, otherwise it
//     joins a nearby CH. CHs form an aggregation tree rooted at the base
//     station.
//  2. Privacy-preserving in-cluster aggregation — members exchange
//     link-encrypted polynomial shares (package shares), broadcast their
//     assembled column sums in cleartext, and the CH solves the Vandermonde
//     system for the cluster sum.
//  3. Integrity-enforcing aggregation — each CH unicasts an Announce up the
//     CH tree carrying its cluster sum and an echo of every child
//     contribution. Cluster members witness the cluster-sum component
//     (they can solve for it themselves), child CHs witness their echoed
//     entries, and any mismatch raises an Alarm that honest CHs forward to
//     the base station, which then rejects the round.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// UndersizedPolicy says what a cluster smaller than shares.MinClusterSize
// does.
type UndersizedPolicy int

// Undersized cluster policies.
const (
	// UndersizedDrop excludes the cluster's readings from the round
	// (privacy preserved, data lost) — the default.
	UndersizedDrop UndersizedPolicy = iota + 1
	// UndersizedPlain reports readings link-encrypted to the CH without
	// slicing (data preserved, in-cluster privacy sacrificed) — ablation.
	UndersizedPlain
)

// PollutionTarget selects what the attacker tampers with.
type PollutionTarget int

// Pollution attack variants.
const (
	// PolluteOwnSum inflates the attacker CH's announced cluster sum.
	PolluteOwnSum PollutionTarget = iota + 1
	// PolluteChild tampers with one echoed child entry.
	PolluteChild
)

// Config tunes the protocol.
type Config struct {
	Pc         float64       // cluster-head election probability
	JoinWait   time.Duration // member wait before picking a CH
	RosterAt   time.Duration // CH roster broadcast time
	SharesAt   time.Duration // share-exchange phase start
	AssembleAt time.Duration // assembled-broadcast phase start
	AggAt      time.Duration // CH-tree aggregation start
	EpochSlot  time.Duration // per-hop transmission window
	MaxHops    int
	Undersized UndersizedPolicy
	// NoMerge disables the undersized-cluster dissolution/re-join repair
	// (ablation: exposes the raw head-election cluster-size distribution).
	NoMerge bool
	// NoWitness strips the integrity machinery (ablation: announces carry
	// no F-vector echo and nobody verifies them), isolating what integrity
	// enforcement costs on top of privacy-preserving aggregation.
	NoWitness bool
	// NoDegrade disables degraded subset recovery (ablation: a cluster
	// whose share exchange is still incomplete after the repoll fails the
	// whole round instead of re-aggregating over the maximal common
	// participant subset).
	NoDegrade bool

	// Attack configuration: Polluter < 0 disables the attack.
	Polluter       topo.NodeID
	PollutionDelta int64
	Target         PollutionTarget
	// PolluteFromRound delays the attack: the compromised head behaves
	// honestly in rounds below this number (0 = attack from the start).
	PolluteFromRound uint16
	// Colluders cooperate with the polluter: they never raise alarms and
	// silently drop alarms they would otherwise flood onward. This is the
	// paper's future-work collusive-attack model, implemented so the
	// degradation of detection can be measured (experiment F10).
	Colluders map[topo.NodeID]bool

	// CrashRate is the fraction of sensor nodes that fail-stop at a random
	// instant during the round (failure injection; experiment F12).
	CrashRate float64
	// HeadCrashRate is the fraction of elected cluster heads that fail-stop
	// at a random instant between the shares phase and the announce phase —
	// the targeted injection behind the head-failover experiment (F18). It
	// is applied per round, including retained rounds.
	HeadCrashRate float64
	// CrashAt fail-stops specific nodes at given instants (deterministic
	// crash schedule for tests; applied on top of the random injections).
	CrashAt map[topo.NodeID]time.Duration
	// CrashRecover reboots every crashed node at the next round boundary
	// (RunRetaining), exercising the crash-and-recover repair path instead
	// of pure fail-stop.
	CrashRecover bool

	// NoFailover disables deputy head-failover entirely (ablation): no
	// watchdogs, no takeovers, no cross-round promotion or orphan re-join.
	NoFailover bool
	// TakeoverForger, when >= 0 and the deputy of a viable cluster, fires a
	// takeover at the watchdog deadline even though its head announced — the
	// dual-announce attack a compromised deputy could mount. Witnesses that
	// observed both announcements must reject the round.
	TakeoverForger topo.NodeID

	// ActiveClusters, when non-nil, restricts which cluster heads
	// contribute their cluster sums (the O(log N) localization bisects
	// this set). Inactive CHs still relay children.
	ActiveClusters map[topo.NodeID]bool

	// Parallelism is ignored: the round engine runs on one goroutine.
	//
	// Deprecated: kept so that existing callers still compile; it has no
	// effect.
	Parallelism int
}

// DefaultConfig returns the reconstruction's reference parameters.
func DefaultConfig() Config {
	return Config{
		Pc:             0.25,
		JoinWait:       500 * time.Millisecond,
		RosterAt:       2500 * time.Millisecond,
		SharesAt:       3500 * time.Millisecond,
		AssembleAt:     5 * time.Second,
		AggAt:          6 * time.Second,
		EpochSlot:      150 * time.Millisecond,
		MaxHops:        16,
		Undersized:     UndersizedDrop,
		Polluter:       -1,
		Target:         PolluteOwnSum,
		TakeoverForger: -1,
	}
}

// Node roles.
const (
	roleUnassigned = 0
	roleHead       = 1
	roleMember     = 2
)

type chInfo struct {
	id   topo.NodeID
	hops int
}

type nodeState struct {
	role        int
	hops        int         // flood depth (hops from the base station)
	helloParent topo.NodeID // the node we first heard the query from
	bsDirect    bool        // heard the base station's own beacon
	heardCH     []chInfo    // head HELLOs heard (join candidates)
	joinOn      bool

	head    topo.NodeID // members/heads: own cluster head (self for heads)
	joiners []message.RosterEntry

	roster  message.Roster
	myIdx   int // index in roster, -1 if excluded
	algebra *shares.Algebra

	recvShares [][]field.Element // by roster index: component vector
	recvMask   uint64

	// fSeen holds the assembled reports by roster index; fSeenMask says
	// which slots are live. A dense slice (sized by installRoster, backing
	// array reused across rounds) instead of a map: the per-round churn of
	// map allocation dominated the old allocation profile.
	fSeen     []message.Assembled
	fSeenMask uint64

	// solved marks a head whose full-mask cluster solve already ran in the
	// announce-phase batch solve; solvedSums (arena-backed) carries the
	// result the announce event reads instead of re-solving.
	solved     bool
	solvedSums []field.Element

	// Degraded subset recovery (the resilience path). subMask is the head's
	// announced common participant subset M (0 = no degradation this round);
	// the sub* fields hold the fresh degree-|M|-1 exchange restricted to M.
	subMask     uint64
	subShares   [][]field.Element // by roster index: received sub-shares
	subRecvMask uint64
	subSent     *message.Assembled        // the sub-report this node committed
	fSub        map[int]message.Assembled // head: sub-reports by roster index
	effMask     uint64                    // head: participant set actually solved

	plainSums []field.Element // heads under UndersizedPlain: component sums
	plainCnt  uint32

	children   []message.ChildEntry // heads: collected child announces
	myAnnounce *message.Announce    // heads: what we sent (child-side witness state)
	sentTo     topo.NodeID          // heads: direct head we announced to (-1 = relayed/BS)

	alarmed map[message.Alarm]struct{} // forwarded-alarm dedup, allocated on first alarm

	// Head-failover state (failover.go). deputy is the roster-designated
	// fallback head every member computes locally; headSilent survives the
	// round boundary so the next round's repair phase can promote the deputy
	// or re-home orphans.
	deputy          topo.NodeID           // roster's deputy head (-1 = none designated)
	headAnnounced   bool                  // overheard our head's own announce this round
	headContributed bool                  // that announce carried a nonzero count
	headSilent      bool                  // watchdog expired with no announce from the head
	takeoverBy      topo.NodeID           // deputy whose takeover this member accepted (-1 = none)
	deputyClaimed   bool                  // the deputy claimed a takeover of OUR head this round
	tookOver        bool                  // deputies: stood in for the silent head this round
	repairJoiners   []message.RosterEntry // heads: orphans adopted during repair
}

// Protocol is one instance of the cluster-based protocol over an Env.
type Protocol struct {
	env   *wsn.Env
	cfg   Config
	nodes []nodeState
	round uint16

	// Base-station bookkeeping. bsSums holds one total per component.
	bsSums       []field.Element
	bsCount      uint32
	bsAlarms     map[message.Alarm]struct{}
	alarmsRaised int

	// Resilience accounting for the last round: clusters recovered over a
	// strict participant subset vs clusters that contributed nothing.
	degradedClusters int
	failedClusters   int

	// Head-failover accounting for the last round.
	takeovers       int  // deputy takeover announces transmitted
	promotions      int  // deputies promoted to permanent head at round start
	orphansRejoined int  // members re-adopted into neighbouring clusters
	inRepair        bool // the cross-round repair window is open (Join semantics)

	start metrics.Mark // traffic at round start

	// comps, when non-nil, holds the active query's additive components;
	// the round then aggregates the whole component vector at once
	// (see query.go). Nil means one component: the raw reading.
	comps []func(int64) int64

	// Round-scoped scratch reused across event-time solves (degraded and
	// takeover paths). Safe because the engine is single-threaded and the
	// buffer is consumed within one event.
	scratchRows [][]field.Element

	// Receive-path decode scratch: every overheard announce and roster, and
	// the inner frame of every relay, is decoded into these rather than into
	// fresh values. Safe for the same reason — receptions are events on the
	// serial loop — and the handlers copy whatever they keep.
	rxAnnounce message.Announce
	rxRoster   message.Roster
	rxInner    message.Message

	// Serial-loop payload scratch: the plaintext of every share opened or
	// sealed at event time, and the sealed envelope and marshalled inner
	// frame of a relayed sub-share, before their bytes are copied into the
	// frame that carries them. subOuts holds the sub-exchange's polynomials.
	rxPlain, txPlain, txSealed, txInner []byte
	subOuts                             []shares.Shares

	// arena backs every frame, payload and decoded share vector of the
	// round (frames.go).
	arena arenas

	// algebras caches one shares.Algebra per canonical cluster size m.
	// Heads re-seed every roster they publish with position seeds {1..m},
	// so all clusters of equal size share one algebra — one weights table
	// per m, which is what makes the announce-phase batch solve possible.
	algebras map[int]*shares.Algebra

	// Share-exchange state: one sharePrep per participant, and the scratch
	// a participant's frames are built in — its masking coefficients
	// (c×(m-1)), reading vector (c), share matrix (c×m, row k = component
	// k) and per-target column (c). All backing arrays are reused per round.
	sharePreps                         []sharePrep
	txCoeffs, txReading, txRows, txVec []field.Element

	// Announce-phase batch-solve state: the heads picked up by the solve,
	// their grouping by algebra, and the arena backing the packed
	// right-hand sides and solved sums.
	solveHeads  []topo.NodeID
	solveGroups []solveGroup
	solveArena  []field.Element
}

// fSeenAt reads the assembled report at roster index i, mirroring the old
// map lookup's two-value form.
func (st *nodeState) fSeenAt(i int) (message.Assembled, bool) {
	if i < 0 || i >= len(st.fSeen) || st.fSeenMask&(uint64(1)<<uint(i)) == 0 {
		return message.Assembled{}, false
	}
	return st.fSeen[i], true
}

// setFSeen records an assembled report at roster index i.
func (st *nodeState) setFSeen(i int, a message.Assembled) {
	st.fSeen[i] = a
	st.fSeenMask |= uint64(1) << uint(i)
}

// minTable is the fewest slots a reused table (heard heads, roster tables,
// scratch vectors) is allocated with, and twice that for a head's joiners.
// Most clusters are no larger, so a protocol that is reused round after
// round stops growing these tables after its first few rounds instead of
// reallocating whenever a node meets a larger cluster than before.
const minTable = 8

// growTable returns s resized to n slots, reusing the backing array when
// capacity allows and otherwise allocating at least minTable slots and
// twice the old capacity.
func growTable[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s), minTable))
	}
	return s[:n]
}

// growRows is growTable with every row nil'd: stale rows from a previous
// round must never read as received shares.
func growRows(s [][]field.Element, n int) [][]field.Element {
	s = growTable(s, n)
	clear(s)
	return s
}

// nComponents returns the active component-vector width.
func (p *Protocol) nComponents() int {
	if len(p.comps) == 0 {
		return 1
	}
	return len(p.comps)
}

// New wires a protocol instance onto the environment's MAC.
func New(env *wsn.Env, cfg Config) (*Protocol, error) {
	p := &Protocol{env: env}
	if err := p.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Reconfigure validates cfg and makes it the protocol's whole configuration,
// keeping every buffer earlier rounds sized. The next round must be a Run,
// which resets all node state; this is how one deployment answers query
// after query on a single protocol. On error the protocol is unchanged.
func (p *Protocol) Reconfigure(cfg Config) error {
	if cfg.Pc <= 0 || cfg.Pc > 1 {
		return fmt.Errorf("core: Pc %g out of (0, 1]", cfg.Pc)
	}
	if cfg.JoinWait <= 0 || cfg.RosterAt <= cfg.JoinWait || cfg.SharesAt <= cfg.RosterAt ||
		cfg.AssembleAt <= cfg.SharesAt || cfg.AggAt <= cfg.AssembleAt {
		return fmt.Errorf("core: phase times must increase: %+v", cfg)
	}
	// The in-phase schedule carves each window into up to 32 jitter slots,
	// so degenerate sub-nanosecond windows must be rejected here rather than
	// surface as a zero-range jitter draw mid-round.
	if cfg.SharesAt-cfg.RosterAt < minPhaseWindow ||
		cfg.AssembleAt-cfg.SharesAt < minPhaseWindow ||
		cfg.AggAt-cfg.AssembleAt < minPhaseWindow {
		return fmt.Errorf("core: phase windows below %v: %+v", minPhaseWindow, cfg)
	}
	if cfg.EpochSlot <= 0 || cfg.MaxHops < 1 {
		return fmt.Errorf("core: invalid schedule %+v", cfg)
	}
	if cfg.Undersized != UndersizedDrop && cfg.Undersized != UndersizedPlain {
		return fmt.Errorf("core: invalid undersized policy %d", cfg.Undersized)
	}
	if cfg.CrashRate < 0 || cfg.CrashRate >= 1 {
		return fmt.Errorf("core: crash rate %g out of [0, 1)", cfg.CrashRate)
	}
	if cfg.HeadCrashRate < 0 || cfg.HeadCrashRate >= 1 {
		return fmt.Errorf("core: head crash rate %g out of [0, 1)", cfg.HeadCrashRate)
	}
	// Contention-adaptive schedule: the share and assemble phases carry
	// O(degree) unicasts per collision domain, so their windows stretch
	// with density beyond the reference degree the defaults were sized for.
	if scale := p.env.Net.AverageDegree() / referenceDegree; scale > 1 {
		sharesWin := time.Duration(float64(cfg.AssembleAt-cfg.SharesAt) * scale)
		asmWin := time.Duration(float64(cfg.AggAt-cfg.AssembleAt) * scale)
		cfg.AssembleAt = cfg.SharesAt + sharesWin
		cfg.AggAt = cfg.AssembleAt + asmWin
	}
	p.cfg = cfg
	return nil
}

// referenceDegree is the deployment density the default schedule is sized
// for (N=400 on the papers' 400 m × 400 m, r=50 m field).
const referenceDegree = 18.0

// minPhaseWindow is the smallest usable phase window: wide enough that the
// finest jitter slice (window/32) stays positive and the repoll/degrade
// checkpoints remain distinct instants.
const minPhaseWindow = time.Millisecond

// jitter draws a uniform delay in [0, d), degenerating to 0 for empty
// windows instead of panicking like rand.Int63n would.
func (p *Protocol) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(p.env.Rng.Int63n(int64(d)))
}

// Run executes one query round and returns the base station's view.
func (p *Protocol) Run(round uint16) (metrics.RoundResult, error) {
	p.round = round
	n := p.env.Net.Size()
	// The node array and every per-node buffer survive across rounds: the
	// reset below zeroes the state in place while retaining the backing
	// arrays (heardCH, joiners, children, fSeen, share tables, alarm dedup),
	// so steady-state rounds allocate near-zero here.
	if len(p.nodes) != n {
		p.nodes = make([]nodeState, n)
	}
	for i := range p.nodes {
		st := &p.nodes[i]
		alarmed := st.alarmed
		if alarmed != nil {
			clear(alarmed)
		}
		*st = nodeState{
			heardCH:       st.heardCH[:0],
			joiners:       st.joiners[:0],
			children:      st.children[:0],
			repairJoiners: st.repairJoiners[:0],
			fSeen:         st.fSeen[:0],
			recvShares:    st.recvShares[:0],
			subShares:     st.subShares[:0],
			alarmed:       alarmed,
			helloParent:   -1,
			head:          -1,
			myIdx:         -1,
			sentTo:        -1,
			deputy:        -1,
			takeoverBy:    -1,
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

	recv := p.receive
	for i := 0; i < n; i++ {
		p.env.MAC.SetReceiver(topo.NodeID(i), recv)
	}

	// The base station roots the flood and the head tree. It is not a
	// cluster head for members; it only accepts announces.
	bs := &p.nodes[topo.BaseStationID]
	bs.role = roleHead
	bs.hops = 0
	p.phaseMark(trace.PhaseFormation, "round %d: hello flood + Pc election", round)
	p.env.Eng.After(0, func() { p.sendHello(topo.BaseStationID, helloBase, 0) })
	p.scheduleCrashes()
	// Targeted head crashes wait until heads exist: roles are only known
	// once formation has run, so the draw happens at the shares phase and
	// the fail-stops land before the announce phase — a crashed head is a
	// silent head, which is exactly what the failover watchdog detects.
	if p.cfg.HeadCrashRate > 0 {
		p.env.Eng.After(p.cfg.SharesAt, func() { p.crashHeads(p.cfg.AggAt - p.cfg.SharesAt) })
	}
	p.env.Eng.After(p.cfg.RosterAt, func() { p.broadcastRosters() })
	p.env.Eng.After(p.cfg.SharesAt, func() { p.scheduleShareExchange() })
	p.env.Eng.After(p.cfg.AssembleAt, func() { p.scheduleAssembledBroadcasts() })
	p.env.Eng.After(p.cfg.AggAt, func() { p.scheduleAnnounces() })

	if err := p.env.Eng.Run(0); err != nil {
		return metrics.RoundResult{}, fmt.Errorf("core: %w", err)
	}
	return p.result(), nil
}

func (p *Protocol) result() metrics.RoundResult {
	n := p.env.Net.Size()
	covered := 0
	for i := 1; i < n; i++ {
		st := &p.nodes[i]
		if st.myIdx >= 0 && len(st.roster.Entries) >= shares.MinClusterSize {
			covered++
		} else if st.myIdx >= 0 && p.cfg.Undersized == UndersizedPlain {
			covered++
		}
	}
	reported := p.bsSums[0].Int()
	cnt := int64(p.bsCount)
	accepted := len(p.bsAlarms) == 0 && cnt <= p.env.TrueCount()
	res := metrics.RoundResult{
		Protocol:         "icpda",
		TrueSum:          p.env.TrueSum(),
		TrueCount:        p.env.TrueCount(),
		ReportedSum:      reported,
		ReportedCnt:      cnt,
		Participants:     int(cnt),
		Covered:          covered,
		Accepted:         accepted,
		Alarms:           len(p.bsAlarms),
		DegradedClusters: p.degradedClusters,
		FailedClusters:   p.failedClusters,
		Takeovers:        p.takeovers,
		Promotions:       p.promotions,
		OrphansRejoined:  p.orphansRejoined,
	}
	p.env.Rec.FillSince(p.start, &res)
	return res
}

// scheduleCrashes fail-stops a CrashRate fraction of sensor nodes at
// uniformly random instants across the round's protocol phases, plus any
// deterministically scheduled CrashAt entries.
func (p *Protocol) scheduleCrashes() {
	if len(p.cfg.CrashAt) > 0 {
		ids := make([]topo.NodeID, 0, len(p.cfg.CrashAt))
		for id := range p.cfg.CrashAt {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			p.crashAt(id, p.cfg.CrashAt[id])
		}
	}
	if p.cfg.CrashRate <= 0 {
		return
	}
	horizon := p.cfg.AggAt + time.Duration(p.cfg.MaxHops)*p.cfg.EpochSlot
	for i := 1; i < p.env.Net.Size(); i++ {
		if p.env.Rng.Float64() >= p.cfg.CrashRate {
			continue
		}
		p.crashAt(topo.NodeID(i), p.jitter(horizon))
	}
}

// crashAt schedules one fail-stop relative to the current engine time.
func (p *Protocol) crashAt(id topo.NodeID, at time.Duration) {
	p.env.Eng.After(at, func() {
		if p.env.Sink != nil {
			cluster := trace.NoCluster
			if h := p.nodes[id].head; h >= 0 {
				cluster = h
			}
			p.emit(id, cluster, "", trace.TypeCrash, "fail-stop", "node fail-stopped")
		}
		p.env.MAC.Disable(id)
	})
}

// crashHeads fail-stops each live cluster head with probability
// HeadCrashRate at a uniform instant within the next window (called at the
// moment the window opens, so a crashed head goes silent before it would
// have announced).
func (p *Protocol) crashHeads(window time.Duration) {
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		if p.nodes[i].role != roleHead || p.env.MAC.Disabled(id) {
			continue
		}
		if p.env.Rng.Float64() >= p.cfg.HeadCrashRate {
			continue
		}
		p.crashAt(id, p.jitter(window))
	}
}

// Alarms exposes the base station's alarm set for tests and the
// localization routine, sorted by suspect, then observed and expected value.
func (p *Protocol) Alarms() []message.Alarm {
	out := make([]message.Alarm, 0, len(p.bsAlarms))
	for a := range p.bsAlarms {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b message.Alarm) int {
		return cmp.Or(cmp.Compare(a.Suspect, b.Suspect),
			cmp.Compare(a.Observed, b.Observed), cmp.Compare(a.Expected, b.Expected))
	})
	return out
}
