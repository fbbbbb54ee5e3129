package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/wsn"
)

func run(t *testing.T, nodes int, seed int64, ideal bool, mut func(*Config)) (*wsn.Env, *Protocol) {
	t.Helper()
	wcfg := wsn.DefaultConfig(nodes, seed)
	wcfg.Radio.Ideal = ideal
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

func TestNewValidation(t *testing.T) {
	env, _ := run(t, 50, 1, true, nil)
	muts := []func(*Config){
		func(c *Config) { c.Pc = 0 },
		func(c *Config) { c.Pc = 1.5 },
		func(c *Config) { c.JoinWait = 0 },
		func(c *Config) { c.RosterAt = c.JoinWait },
		func(c *Config) { c.SharesAt = c.RosterAt },
		func(c *Config) { c.AssembleAt = c.SharesAt },
		func(c *Config) { c.AggAt = c.AssembleAt },
		func(c *Config) { c.EpochSlot = 0 },
		func(c *Config) { c.MaxHops = 0 },
		func(c *Config) { c.Undersized = 0 },
		// Phase windows too narrow for the in-phase jitter schedule.
		func(c *Config) { c.AssembleAt = c.SharesAt + minPhaseWindow/2 },
		func(c *Config) { c.AggAt = c.AssembleAt + minPhaseWindow/2 },
		func(c *Config) { c.SharesAt = c.RosterAt + minPhaseWindow/2 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(env, cfg); err == nil {
			t.Errorf("mutation %d should be rejected", i)
		}
	}
}

func TestIdealDenseAccurateAndAccepted(t *testing.T) {
	env, p := run(t, 500, 3, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Errorf("clean round rejected: %d alarms", res.Alarms)
	}
	if res.Alarms != 0 {
		t.Errorf("alarms = %d on a clean ideal round", res.Alarms)
	}
	// Clusters that formed with >= 3 members contribute exactly; accuracy
	// reflects only the undersized-drop and uncovered losses.
	if acc := res.Accuracy(); acc < 0.6 || acc > 1.0 {
		t.Errorf("accuracy = %.3f outside sane band", acc)
	}
	if res.CoverageRate() == 0 {
		t.Error("no coverage at all")
	}
	t.Logf("coverage=%.3f participation=%.3f accuracy=%.3f",
		res.CoverageRate(), res.ParticipationRate(), res.Accuracy())
}

func TestParticipantsSumExactOnIdealChannel(t *testing.T) {
	// On an ideal channel, the reported sum must equal exactly the sum of
	// readings of nodes in viable clusters that completed the exchange —
	// i.e. ReportedCnt nodes contributed and no value was distorted.
	env, p := run(t, 400, 5, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute ground truth from protocol state: sum over viable clusters
	// whose announce reached the BS. Identify via per-node membership.
	var wantSum int64
	var wantCnt int64
	for i := 1; i < env.Net.Size(); i++ {
		st := &p.nodes[i]
		if !viableCluster(st) {
			continue
		}
		// Viable member: counted iff its head's announce chain reached BS.
		// On an ideal channel every announce reaches its parent, so every
		// viable cluster with a rooted head contributes.
		head := st.head
		if head < 0 {
			continue
		}
		if p.rootedAtBS(head) {
			wantSum += env.Readings[i]
			wantCnt++
		}
	}
	if res.ReportedSum != wantSum {
		t.Errorf("sum = %d, want %d", res.ReportedSum, wantSum)
	}
	if res.ReportedCnt != wantCnt {
		t.Errorf("count = %d, want %d", res.ReportedCnt, wantCnt)
	}
}

func TestLossyDenseStillAccepted(t *testing.T) {
	env, p := run(t, 500, 7, false, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Errorf("clean lossy round rejected with %d alarms", res.Alarms)
	}
	if acc := res.Accuracy(); acc < 0.5 {
		t.Errorf("accuracy = %.3f collapsed under losses", acc)
	}
	t.Logf("lossy: acc=%.3f part=%.3f alarms=%d", res.Accuracy(), res.ParticipationRate(), res.Alarms)
}

func TestPollutionOwnSumDetected(t *testing.T) {
	env, p := run(t, 500, 9, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	// Dry run to find a head with a viable cluster.
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	var polluter topo.NodeID = -1
	for _, h := range p.Heads() {
		if viableCluster(&p.nodes[h]) && p.rootedAtBS(h) {
			polluter = h
			break
		}
	}
	if polluter < 0 {
		t.Fatal("no viable head found")
	}
	_, p2 := run(t, 500, 9, true, func(c *Config) {
		c.Polluter = polluter
		c.PollutionDelta = 10000
		c.Target = PolluteOwnSum
	})
	res, err := p2.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("own-sum pollution went undetected")
	}
	if res.Alarms == 0 {
		t.Error("no alarms reached the base station")
	}
	// The alarms should indict the actual polluter.
	found := false
	for _, a := range p2.Alarms() {
		if a.Suspect == polluter {
			found = true
		}
	}
	if !found {
		t.Errorf("alarms %v do not name polluter %d", p2.Alarms(), polluter)
	}
}

func TestPollutionChildEntryDetected(t *testing.T) {
	env, p := run(t, 500, 11, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	// Find a head with a direct child (the child-echo witness requires the
	// child to have announced straight to the attacker).
	polluter := p.PickAttacker(true)
	if polluter < 0 {
		t.Skip("no head with direct children in this topology")
	}
	_, p2 := run(t, 500, 11, true, func(c *Config) {
		c.Polluter = polluter
		c.PollutionDelta = 7777
		c.Target = PolluteChild
	})
	res, err := p2.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("child-entry pollution went undetected")
	}
}

func TestUndersizedPlainRaisesParticipation(t *testing.T) {
	// With merging disabled, undersized clusters survive to the shares
	// phase; the plain policy then recovers their readings.
	_, pDrop := run(t, 400, 13, true, func(c *Config) { c.NoMerge = true })
	rDrop, err := pDrop.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	_, pPlain := run(t, 400, 13, true, func(c *Config) {
		c.NoMerge = true
		c.Undersized = UndersizedPlain
	})
	rPlain, err := pPlain.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rPlain.Participants <= rDrop.Participants {
		t.Errorf("plain policy participants %d should exceed drop policy %d",
			rPlain.Participants, rDrop.Participants)
	}
}

func TestMergeRepairImprovesParticipation(t *testing.T) {
	_, pNoMerge := run(t, 400, 29, true, func(c *Config) { c.NoMerge = true })
	rNo, err := pNoMerge.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	_, pMerge := run(t, 400, 29, true, nil)
	rYes, err := pMerge.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rYes.Participants <= rNo.Participants {
		t.Errorf("merge repair participants %d should exceed no-merge %d",
			rYes.Participants, rNo.Participants)
	}
}

func TestClusterSizesRespectCap(t *testing.T) {
	_, p := run(t, 600, 15, true, func(c *Config) { c.Pc = 0.05 })
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, h := range p.Heads() {
		if m := len(p.nodes[h].roster.Entries); m > shares.MinClusterSize && m > message.MaxClusterSize {
			t.Errorf("head %d has %d members, cap is %d", h, m, message.MaxClusterSize)
		}
	}
}

func TestDeterministic(t *testing.T) {
	_, p1 := run(t, 300, 17, false, nil)
	r1, err := p1.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	_, p2 := run(t, 300, 17, false, nil)
	r2, err := p2.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ReportedSum != r2.ReportedSum || r1.TxBytes != r2.TxBytes || r1.Alarms != r2.Alarms {
		t.Errorf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

// rootedAtBS walks the CH-parent chain to check connectivity to the BS.
func (p *Protocol) rootedAtBS(head topo.NodeID) bool {
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

// TestPropertyNoDistortionOnIdealChannel is the protocol's end-to-end
// integrity invariant: whatever the topology, on an error-free channel the
// base station's reported sum is EXACTLY the sum of readings of the nodes
// it counted — the share algebra, relaying, vector announces, and tree
// absorption introduce zero distortion.
func TestPropertyNoDistortionOnIdealChannel(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		env, p := run(t, 250, seed, true, nil)
		res, err := p.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the exact participant set from protocol state and
		// compare sums.
		var want int64
		var cnt int64
		for i := 1; i < env.Net.Size(); i++ {
			st := &p.nodes[i]
			if !viableCluster(st) || st.head < 0 {
				continue
			}
			_, _, effMask, ok := p.solveCluster(&p.nodes[st.head])
			if !ok || effMask&(uint64(1)<<uint(st.myIdx)) == 0 {
				continue
			}
			if !p.rootedAtBS(st.head) {
				continue
			}
			want += env.Readings[i]
			cnt++
		}
		if res.ReportedSum != want || res.ReportedCnt != cnt {
			t.Fatalf("seed %d: reported %d/%d, reconstructed %d/%d",
				seed, res.ReportedSum, res.ReportedCnt, want, cnt)
		}
		if !res.Accepted || res.Alarms != 0 {
			t.Fatalf("seed %d: clean round rejected", seed)
		}
	}
}

// TestBigClusterRoundRegression pins the uint64 mask widening: a cluster
// with more than 16 members (beyond the old uint16 mask) must exchange,
// assemble, solve, and witness exactly like a small one. Seed 3 at Pc=0.05
// deterministically yields a 31-member cluster on a connected deployment.
func TestBigClusterRoundRegression(t *testing.T) {
	env, p := run(t, 600, 3, true, func(c *Config) { c.Pc = 0.05 })
	if !env.Net.Connected() {
		t.Fatal("expected connected deployment at this seed")
	}
	r, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	var bigHead topo.NodeID = -1
	maxM := 0
	for _, h := range p.Heads() {
		if m := len(p.nodes[h].roster.Entries); m > maxM {
			maxM, bigHead = m, h
		}
	}
	if maxM <= 16 {
		t.Fatalf("largest cluster has %d members; the regression needs >16", maxM)
	}
	if !r.Accepted || r.Alarms != 0 {
		t.Errorf("big-cluster round: accepted=%v alarms=%d", r.Accepted, r.Alarms)
	}
	if part := r.ParticipationRate(); part < 0.95 {
		t.Errorf("participation %.3f; big clusters should not lose members", part)
	}
	if st := &p.nodes[bigHead]; st.effMask != message.FullMask(maxM) {
		t.Errorf("big cluster solved mask %#x, want full %#x", st.effMask, message.FullMask(maxM))
	}
}

// TestDegradedRecoveryEndToEnd drives the full degraded path through a real
// lossy round: 30% loss on assembled broadcasts (ARQ does not protect
// broadcasts) forces heads into repoll and subset recovery. Degraded clusters
// must appear, the round must stay accepted with zero alarms, and the same
// deployment with recovery disabled must lose more participants.
func TestDegradedRecoveryEndToEnd(t *testing.T) {
	const seed = 21
	build := func(noDegrade bool) (*wsn.Env, *Protocol) {
		t.Helper()
		wcfg := wsn.DefaultConfig(400, seed)
		wcfg.Radio.LossByKind = map[string]float64{"assembled": 0.3}
		env, err := wsn.NewEnv(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NoDegrade = noDegrade
		p, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return env, p
	}
	env, p := build(false)
	if !env.Net.Connected() {
		t.Fatal("expected connected deployment at this seed")
	}
	r, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.DegradedClusters == 0 {
		t.Error("30% assembled loss produced no degraded clusters")
	}
	if !r.Accepted || r.Alarms != 0 {
		t.Errorf("honest degraded round: accepted=%v alarms=%d", r.Accepted, r.Alarms)
	}
	_, p2 := build(true)
	r2, err := p2.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Accepted {
		t.Errorf("honest no-degrade round rejected with %d alarms", r2.Alarms)
	}
	if r.ParticipationRate() <= r2.ParticipationRate() {
		t.Errorf("degraded recovery did not help: %.3f (on) <= %.3f (off)",
			r.ParticipationRate(), r2.ParticipationRate())
	}
}

// TestSharedAlgebraPerSize pins the canonical-seed invariant the batch
// solver depends on: after a round, every viable cluster of size m holds
// the SAME *shares.Algebra pointer, and its roster seeds are {1..m}.
func TestSharedAlgebraPerSize(t *testing.T) {
	_, p := run(t, 400, 6, true, nil)
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	seen := map[int]any{}
	for _, h := range p.Heads() {
		st := &p.nodes[h]
		if st.algebra == nil {
			continue
		}
		m := len(st.roster.Entries)
		for i, e := range st.roster.Entries {
			if e.Seed != field.New(uint64(i+1)) {
				t.Fatalf("head %d entry %d seed %v, want canonical %v", h, i, e.Seed, field.New(uint64(i+1)))
			}
		}
		if prev, ok := seen[m]; ok {
			if prev != st.algebra {
				t.Errorf("two size-%d clusters hold distinct algebras", m)
			}
		} else {
			seen[m] = st.algebra
		}
	}
	if len(seen) == 0 {
		t.Fatal("no viable clusters formed")
	}
}
