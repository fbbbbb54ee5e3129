package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wsn"
)

// simSpec is a workload that drives the round engine directly, the way a
// researcher runs the simulator at scale.
type simSpec struct {
	nodes    int
	topology int64 // the deployment's seed
	// retained forms clusters once during setup and then times
	// RunRetaining epochs, so formation is off the measured path.
	retained bool
}

// minOps is the fewest operations a run measures, however short its window.
const minOps = 3

// opSeed is the seed a run's i-th round resets every source of randomness
// but the topology to. Runs with different -seed values draw disjoint round
// seeds.
func opSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// fieldSide keeps the papers' reference density (400 nodes on a 400 m
// square, ~20 neighbours each) at any node count.
func fieldSide(n int) float64 { return 400 * math.Sqrt(float64(n)/400) }

// maxHops bounds the announce schedule by the field diagonal in 50 m radio
// hops plus slack, the formula of scaleHops in the root package's
// benchmarks. Without it every head deeper than the default 16 hops shares
// one announce slot and a large round times an alarm storm.
func maxHops(n int) int { return int(fieldSide(n)*math.Sqrt2/50) + 8 }

func (s simSpec) configs() (wsn.Config, core.Config) {
	wcfg := wsn.DefaultConfig(s.nodes, s.topology)
	wcfg.FieldSize = fieldSide(s.nodes)
	ccfg := core.DefaultConfig()
	ccfg.MaxHops = maxHops(s.nodes)
	return wcfg, ccfg
}

// step runs the i-th measured operation (i >= 1): a cold round — a new
// protocol instance and a full Run — or, for the retained workload, the
// next epoch on the protocol formed during setup.
func (s simSpec) step(env *wsn.Env, p *core.Protocol, ccfg core.Config, i int) (metrics.RoundResult, error) {
	if s.retained {
		return p.RunRetaining(uint16(1 + i))
	}
	q, err := core.New(env, ccfg)
	if err != nil {
		return metrics.RoundResult{}, err
	}
	return q.Run(1)
}

// prepare readies the environment for operation i outside the timed
// region: cold rounds re-seed every source of randomness but the topology,
// epochs draw the next readings.
func (s simSpec) prepare(env *wsn.Env, seed int64, i int) error {
	if s.retained {
		env.ResampleReadings()
		return nil
	}
	return env.Reset(opSeed(seed, i))
}

// newEnv builds the deployment and resets it to the run's first operation
// seed.
func newEnv(wcfg wsn.Config, seed int64) (*wsn.Env, error) {
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		return nil, err
	}
	return env, env.Reset(opSeed(seed, 0))
}

func runSim(s simSpec, o options, rec *spanRec) (*report, error) {
	rep := &report{}
	wcfg, ccfg := s.configs()

	twin, serial, err := simTwin(s, wcfg, ccfg, o.seed)
	if err != nil {
		return nil, err
	}

	// Setup: build the environment and run the first round. For cold rounds
	// that round warms the heap and the engine's pools; for epochs it is the
	// formation the epochs retain.
	var env *wsn.Env
	var p *core.Protocol
	var setups []float64
	for i := 0; i < simSetups; i++ {
		env, p = nil, nil
		runtime.GC()
		// The retained workload's formation happens only here, so its
		// last setup round is traced for the formation and roster phases.
		var clock *phaseClock
		if rec != nil && s.retained && i == simSetups-1 {
			clock = &phaseClock{}
		}
		t0 := time.Now()
		env, err = newEnv(wcfg, o.seed)
		if err != nil {
			return nil, err
		}
		if clock != nil {
			env.SetSink(clock)
		}
		t1 := time.Now()
		p, err = core.New(env, ccfg)
		if err != nil {
			return nil, err
		}
		first, err := p.Run(1)
		if err != nil {
			return nil, fmt.Errorf("setup round: %w", err)
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		if clock != nil {
			env.SetSink(nil)
			clock.flush(rec, "core.setup_round", "setup", t1, t2, 2)
		}
		if first != twin[0] {
			rep.wrongf("setup round differs from its Parallelism 1 twin:\n  got  %+v\n  want %+v", first, twin[0])
		}
		checkRound(rep, "setup round", first, wcfg)
	}
	rep.add("setup_s", median(setups), "s", len(setups))

	if rec != nil {
		return rep, simTraced(rep, s, o, env, p, ccfg, wcfg, twin, serial, rec)
	}

	var lat []float64
	var allocated uint64
	var mem runtime.MemStats
	accepted := 0
	start := time.Now()
	for i := 1; i <= minOps || time.Since(start) < o.window; i++ {
		if err := s.prepare(env, o.seed, i); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		t0 := time.Now()
		r, err := s.step(env, p, ccfg, i)
		d := time.Since(t0)
		runtime.ReadMemStats(&mem)
		allocated += mem.TotalAlloc - before
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("round %d failed: %v", i, err)
			continue
		}
		lat = append(lat, ms(d))
		if r.Accepted {
			accepted++
		}
		if s.retained && i == 1 && r != twin[1] {
			rep.wrongf("first epoch differs from its Parallelism 1 twin:\n  got  %+v\n  want %+v", r, twin[1])
		}
		checkRound(rep, fmt.Sprintf("round %d", i), r, wcfg)
	}
	addLatency(rep, lat)
	var busy float64
	for _, l := range lat {
		busy += l / 1000
	}
	rep.add("goodput_per_s", float64(accepted)/busy, "1/s", len(lat))
	rep.add("alloc_mb_per_op", float64(allocated)/float64(rep.attempted)/1e6, "MB", rep.attempted)
	rep.add("accepted_ratio", float64(accepted)/float64(rep.attempted), "ratio", rep.attempted)
	return rep, nil
}

// addLatency adds the median latency, and p90 and p99 where the sample has
// ten values beyond them.
func addLatency(rep *report, lat []float64) {
	d := newDist(lat)
	rep.add("latency_p50_ms", d.quantile(0.5), "ms", len(d))
	if d.supports(0.9) {
		rep.add("latency_p90_ms", d.quantile(0.9), "ms", len(d))
	}
	if d.supports(0.99) {
		rep.add("latency_p99_ms", d.quantile(0.99), "ms", len(d))
	}
}

// simTwin runs the workload's first round — and for the retained workload
// its first epoch too — with Parallelism 1 on a fresh environment. The
// measured runs must reproduce these results bit for bit. It also returns
// the serial operation's wall time.
func simTwin(s simSpec, wcfg wsn.Config, ccfg core.Config, seed int64) ([]metrics.RoundResult, time.Duration, error) {
	env, err := newEnv(wcfg, seed)
	if err != nil {
		return nil, 0, err
	}
	serial := ccfg
	serial.Parallelism = 1
	t := time.Now()
	p, err := core.New(env, serial)
	if err != nil {
		return nil, 0, err
	}
	r, err := p.Run(1)
	if err != nil {
		return nil, 0, fmt.Errorf("serial twin round: %w", err)
	}
	d := time.Since(t)
	out := []metrics.RoundResult{r}
	if s.retained {
		env.ResampleReadings()
		t = time.Now()
		r, err = p.RunRetaining(2)
		if err != nil {
			return nil, 0, fmt.Errorf("serial twin epoch: %w", err)
		}
		d = time.Since(t)
		out = append(out, r)
	}
	return out, d, nil
}

// checkRound flags a round whose books cannot be right: more participants
// than sensors, or an accepted sum outside what that many readings can add
// up to. A corrupted share solve lands anywhere in the field and fails the
// second test.
func checkRound(rep *report, what string, r metrics.RoundResult, wcfg wsn.Config) {
	switch {
	case r.ReportedCnt < 0 || r.ReportedCnt > r.TrueCount:
		rep.wrongf("%s: %d participants of %d sensors", what, r.ReportedCnt, r.TrueCount)
	case r.Accepted && (r.ReportedSum < r.ReportedCnt*wcfg.ReadingMin || r.ReportedSum > r.ReportedCnt*wcfg.ReadingMax):
		rep.wrongf("%s: accepted sum %d outside [%d, %d] for %d readings", what, r.ReportedSum,
			r.ReportedCnt*wcfg.ReadingMin, r.ReportedCnt*wcfg.ReadingMax, r.ReportedCnt)
	}
}

// simTraced is the traced pass of a sim workload. It alternates untraced
// and traced operations on the same inputs for about half the window, then
// serves the workload's round over HTTP through a one-worker station, then
// times the substrate's calls in isolation.
func simTraced(rep *report, s simSpec, o options, env *wsn.Env, p *core.Protocol, ccfg core.Config,
	wcfg wsn.Config, twin []metrics.RoundResult, serial time.Duration, rec *spanRec) error {
	led := &ledger{serialMs: ms(serial)}
	clock := &phaseClock{}
	// Served cold rounds must reproduce the direct round of the same seed.
	direct := map[int64]metrics.RoundResult{opSeed(o.seed, 0): twin[0]}
	start := time.Now()
	for i := 1; i <= 2*minOps || time.Since(start) < o.window*45/100; i++ {
		// Cold rounds run each seed twice, untraced then traced; epochs
		// simply alternate.
		traced, k := i%2 == 0, i
		if !s.retained {
			k = (i + 1) / 2
		}
		if err := s.prepare(env, o.seed, k); err != nil {
			return err
		}
		if traced {
			env.SetSink(clock)
		}
		before := snapshot(env)
		t0 := time.Now()
		r, err := s.step(env, p, ccfg, i)
		t1 := time.Now()
		after := snapshot(env)
		env.SetSink(nil)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("round %d failed: %v", i, err)
			continue
		}
		checkRound(rep, fmt.Sprintf("round %d", i), r, wcfg)
		if s.retained && i == 1 && r != twin[1] {
			rep.wrongf("first epoch differs from its Parallelism 1 twin")
		}
		if traced {
			clock.flush(rec, "core.round", fmt.Sprintf("round-%d", i), t0, t1, 0)
			led.traced = append(led.traced, ms(t1.Sub(t0)))
		} else {
			led.plain = append(led.plain, ms(t1.Sub(t0)))
			led.count(after.sub(before), r)
		}
		if !s.retained {
			seed := opSeed(o.seed, k)
			if prev, ok := direct[seed]; ok && prev != r {
				rep.wrongf("round %d: traced and untraced rounds of seed %d differ", i, seed)
			}
			direct[seed] = r
		}
	}
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := env.Reset(opSeed(o.seed, 0)); err != nil {
			return err
		}
		led.resets = append(led.resets, ms(time.Since(t)))
	}
	led.rows(rep, rec, !s.retained)

	// The served segment builds its own deployment; drop this one first.
	env, p = nil, nil
	runtime.GC()
	seeds := make([]int64, 0, len(direct))
	for seed := range direct {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	spec := serveSpec{
		deploy:  repro.Options{Nodes: s.nodes, FieldSize: fieldSide(s.nodes), Seed: s.topology},
		cluster: repro.ClusterOptions{MaxHops: maxHops(s.nodes)},
		workers: 1,
		kinds:   []repro.QueryKind{repro.QuerySum},
		seeds:   seeds,
		rate:    simServeRate,
		warm:    1,
	}
	check := func(a arrival, ans repro.QueryAnswer) error {
		want := direct[a.Seed]
		got := ans.Round
		if ans.Accepted != want.Accepted || ans.Value != float64(want.ReportedSum) ||
			got.ReportedCnt != want.ReportedCnt || got.Alarms != want.Alarms ||
			got.TxBytes != want.TxBytes || got.TxMessages != want.TxMessages {
			return fmt.Errorf("served sum of seed %d: %+v, direct round %+v", a.Seed, ans.Round, want)
		}
		return nil
	}
	if err := serveTraced(rep, spec, o.seed, o.window*35/100, check, rec); err != nil {
		return err
	}
	return microRows(rep, o.seed, o.window*20/100)
}

// simServeRate is the open-loop rate of a sim workload's served segment:
// about 45% of one worker serving ~1 s rounds.
const simServeRate = 0.45

// counters is a snapshot of the substrate's cumulative counters.
type counters struct {
	events                                uint64
	frames, bytes, app, collisions, drops int
	sealed, retx, acks, macDrops          int
}

func snapshot(env *wsn.Env) counters {
	rec := env.Rec
	return counters{
		events:     env.Eng.Processed(),
		frames:     rec.TotalTxMessages(),
		bytes:      rec.TotalTxBytes(),
		app:        rec.AppMessages(),
		collisions: rec.Collisions(),
		drops:      rec.Dropped(),
		sealed:     rec.TxMessagesOfKind("share") + rec.TxMessagesOfKind("sub-share") + rec.TxMessagesOfKind("relay"),
		retx:       env.MAC.Retransmissions(),
		acks:       env.MAC.AcksSent(),
		macDrops:   env.MAC.Drops(),
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		events: a.events - b.events, frames: a.frames - b.frames, bytes: a.bytes - b.bytes,
		app: a.app - b.app, collisions: a.collisions - b.collisions, drops: a.drops - b.drops,
		sealed: a.sealed - b.sealed, retx: a.retx - b.retx, acks: a.acks - b.acks,
		macDrops: a.macDrops - b.macDrops,
	}
}

// ledger accumulates the traced pass's per-round numbers: counters and
// outcomes of the untraced rounds, the wall times of both kinds, resets.
type ledger struct {
	n                                          int
	sum                                        counters
	participation, alarms, takeovers, degraded float64
	plain, traced, resets                      []float64
	serialMs                                   float64
}

func (l *ledger) count(d counters, r metrics.RoundResult) {
	l.n++
	s := &l.sum
	s.events += d.events
	s.frames += d.frames
	s.bytes += d.bytes
	s.app += d.app
	s.collisions += d.collisions
	s.drops += d.drops
	s.sealed += d.sealed
	s.retx += d.retx
	s.acks += d.acks
	s.macDrops += d.macDrops
	l.participation += float64(r.Participants) / float64(r.TrueCount)
	l.alarms += float64(r.Alarms)
	l.takeovers += float64(r.Takeovers)
	l.degraded += float64(r.DegradedClusters)
}

// rows adds the core, wsn, sim, radio, mac and wsncrypto metrics. cold says
// whether the traced rounds include formation.
func (l *ledger) rows(rep *report, rec *spanRec, cold bool) {
	self := rec.selfMs()
	phases := []string{"formation", "roster", "exchange", "assembly", "announce"}
	var phaseSum float64
	for _, ph := range phases {
		v := self["core."+ph]
		m := 0.0
		if len(v) > 0 {
			m = newDist(v).quantile(0.5)
		}
		rep.add("core."+ph+"_ms", m, "ms", len(v))
		if cold || (ph != "formation" && ph != "roster") {
			phaseSum += m
		}
	}
	if v := self["core.repair"]; len(v) > 0 {
		rep.add("core.repair_ms", newDist(v).quantile(0.5), "ms", len(v))
		phaseSum += newDist(v).quantile(0.5)
	}
	traced, plain := median(l.traced), median(l.plain)
	rep.add("core.round_traced_ms", traced, "ms", len(l.traced))
	rep.add("core.round_ms", plain, "ms", len(l.plain))
	rep.notef("phase self times sum to %.1f ms, %.1f%% of the traced round", phaseSum, 100*phaseSum/traced)
	rep.add("core.trace_overhead_pct", 100*(traced/plain-1), "%", len(l.traced))
	rep.add("core.serial_round_ms", l.serialMs, "ms", 1)
	rep.add("wsn.reset_ms", median(l.resets), "ms", len(l.resets))

	n := float64(l.n)
	s := l.sum
	rep.add("core.participation", l.participation/n, "ratio", l.n)
	rep.add("core.alarms_per_round", l.alarms/n, "count", l.n)
	rep.add("core.takeovers_per_round", l.takeovers/n, "count", l.n)
	rep.add("core.degraded_per_round", l.degraded/n, "count", l.n)
	rep.add("sim.events_per_round", float64(s.events)/n, "count", l.n)
	rep.add("radio.frames_per_round", float64(s.frames)/n, "count", l.n)
	rep.add("radio.kb_per_round", float64(s.bytes)/n/1000, "KB", l.n)
	rep.add("radio.collisions_per_round", float64(s.collisions)/n, "count", l.n)
	rep.add("radio.drops_per_round", float64(s.drops)/n, "count", l.n)
	rep.add("mac.retx_per_round", float64(s.retx)/n, "count", l.n)
	rep.add("mac.acks_per_round", float64(s.acks)/n, "count", l.n)
	rep.add("mac.drops_per_round", float64(s.macDrops)/n, "count", l.n)
	rep.add("mac.useful_ratio", float64(s.app)/float64(s.app+s.retx), "ratio", l.n)
	rep.add("wsncrypto.sealed_frames_per_round", float64(s.sealed)/n, "count", l.n)
}
