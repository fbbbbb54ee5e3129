package attack

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/shares"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// smallCluster draws one concrete m=3 sharing round with canonical seeds:
// random readings, random masking coefficients, and the implied wire values
// (per-link shares y_ij, assembled column sums F_j, and the cluster sum).
type smallCluster struct {
	alg      *shares.Algebra
	readings []field.Element
	y        [][]field.Element // y[i][j] = member i's share for member j
	f        []field.Element   // F_j = Σ_i y[i][j]
	sum      field.Element
}

func drawSmallCluster(t *testing.T, rng *rand.Rand, m int) *smallCluster {
	t.Helper()
	seeds := make([]field.Element, m)
	for i := range seeds {
		seeds[i] = shares.SeedFor(i)
	}
	alg, err := shares.NewAlgebra(seeds)
	if err != nil {
		t.Fatal(err)
	}
	c := &smallCluster{alg: alg, f: make([]field.Element, m)}
	for i := 0; i < m; i++ {
		v := field.New(rng.Uint64())
		c.readings = append(c.readings, v)
		sh := alg.Generate(rng, v)
		c.y = append(c.y, sh.ForMember)
		c.sum = c.sum.Add(v)
		for j := 0; j < m; j++ {
			c.f[j] = c.f[j].Add(sh.ForMember[j])
		}
	}
	return c
}

// TestSystemMatchesKnowledgeExhaustive is the simulation-vs-analytic parity
// gate behind the Collusion policy: for every one of the 2^6 subsets of
// transmitted links in an m=3 cluster, the valued solver (shares.System, fed
// the concrete wire values the campaign captures) must reach exactly the
// same determined/undetermined verdict as the rank-only analyzer
// (shares.Knowledge, which DiscloseTrial uses) — and when a reading is
// determined, the solved value must equal the ground truth.
func TestSystemMatchesKnowledgeExhaustive(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewSource(41))
	type link struct{ i, j int }
	var links []link
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				links = append(links, link{i, j})
			}
		}
	}
	for trial := 0; trial < 8; trial++ {
		c := drawSmallCluster(t, rng, m)
		for mask := 0; mask < 1<<len(links); mask++ {
			kn := shares.NewKnowledge(c.alg)
			sys := shares.NewSystem(c.alg)
			for j := 0; j < m; j++ {
				if err := kn.AddAssembled(j); err != nil {
					t.Fatal(err)
				}
				if err := sys.AddAssembled(j, c.f[j]); err != nil {
					t.Fatal(err)
				}
			}
			kn.AddClusterSum()
			sys.AddClusterSum(c.sum)
			for b, l := range links {
				if mask&(1<<b) == 0 {
					continue
				}
				if err := kn.AddShare(l.i, l.j); err != nil {
					t.Fatal(err)
				}
				if err := sys.AddShare(l.i, l.j, c.y[l.i][l.j]); err != nil {
					t.Fatal(err)
				}
			}
			for victim := 0; victim < m; victim++ {
				want, err := kn.Determined(victim)
				if err != nil {
					t.Fatal(err)
				}
				got, ok, err := sys.Solve(victim)
				if err != nil {
					t.Fatal(err)
				}
				if ok != want {
					t.Fatalf("trial %d mask %#x victim %d: system determined=%v, knowledge says %v",
						trial, mask, victim, ok, want)
				}
				if ok && got != c.readings[victim] {
					t.Fatalf("trial %d mask %#x victim %d: solved %d, truth %d",
						trial, mask, victim, got.Int(), c.readings[victim].Int())
				}
			}
		}
	}
}

// TestSystemMatchesKnowledgeWithColluder repeats the exhaustive sweep with
// member 1 compromised, encoded the way each side actually encodes it: the
// analytic model calls AddColluder (reading + own coefficients + received
// shares), the campaign feeds the valued system the colluder's reading and
// every on-air link the colluder is an endpoint of. The two encodings span
// the same row space, so verdicts must still agree subset-by-subset.
func TestSystemMatchesKnowledgeWithColluder(t *testing.T) {
	const m, colluder = 3, 1
	rng := rand.New(rand.NewSource(43))
	type link struct{ i, j int }
	var free []link // links not already implied by the colluder's knowledge
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && i != colluder && j != colluder {
				free = append(free, link{i, j})
			}
		}
	}
	for trial := 0; trial < 8; trial++ {
		c := drawSmallCluster(t, rng, m)
		for mask := 0; mask < 1<<len(free); mask++ {
			kn := shares.NewKnowledge(c.alg)
			sys := shares.NewSystem(c.alg)
			for j := 0; j < m; j++ {
				if err := kn.AddAssembled(j); err != nil {
					t.Fatal(err)
				}
				if err := sys.AddAssembled(j, c.f[j]); err != nil {
					t.Fatal(err)
				}
			}
			kn.AddClusterSum()
			sys.AddClusterSum(c.sum)
			if err := kn.AddColluder(colluder); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddReading(colluder, c.readings[colluder]); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					if i == j || (i != colluder && j != colluder) {
						continue
					}
					if err := sys.AddShare(i, j, c.y[i][j]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for b, l := range free {
				if mask&(1<<b) == 0 {
					continue
				}
				if err := kn.AddShare(l.i, l.j); err != nil {
					t.Fatal(err)
				}
				if err := sys.AddShare(l.i, l.j, c.y[l.i][l.j]); err != nil {
					t.Fatal(err)
				}
			}
			for victim := 0; victim < m; victim++ {
				want, err := kn.Determined(victim)
				if err != nil {
					t.Fatal(err)
				}
				got, ok, err := sys.Solve(victim)
				if err != nil {
					t.Fatal(err)
				}
				if ok != want {
					t.Fatalf("trial %d mask %#x victim %d: system determined=%v, knowledge says %v",
						trial, mask, victim, ok, want)
				}
				if ok && got != c.readings[victim] {
					t.Fatalf("trial %d mask %#x victim %d: solved %d, truth %d",
						trial, mask, victim, got.Int(), c.readings[victim].Int())
				}
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	pols, err := ParseSpec("collude:3:0.7,tamper,echo,replay,sybil:4,takeover")
	if err != nil {
		t.Fatal(err)
	}
	if len(pols) != 6 {
		t.Fatalf("got %d policies, want 6", len(pols))
	}
	col, ok := pols[0].(*Collusion)
	if !ok || col.Colluders != 3 || col.Px != 0.7 {
		t.Fatalf("collude atom parsed as %#v", pols[0])
	}
	syb, ok := pols[4].(*Sybil)
	if !ok || syb.Count != 4 {
		t.Fatalf("sybil atom parsed as %#v", pols[4])
	}
	for _, bad := range []string{"", "collude:x", "collude:2:1.5", "warp", "tamper,,echo", "sybil:0"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := NewCampaign(1, 0, &ShareTamper{}); err == nil {
		t.Error("zero rounds: expected error")
	}
	if _, err := NewCampaign(1, 3); err == nil {
		t.Error("no policies: expected error")
	}
}

// TestDriveSurfacesNoTarget checks that a scout with nothing to attack is a
// *ScoutError, which seed-sweeping harnesses skip, and that Drive puts back
// the trace sink it detached for the scout.
func TestDriveSurfacesNoTarget(t *testing.T) {
	env, err := wsn.NewEnv(wsn.DefaultConfig(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.New(16)
	env.SetSink(sink)
	camp, err := NewCampaign(3, 2, &Collusion{Colluders: 50, Px: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = camp.Drive(env, core.DefaultConfig())
	var se *ScoutError
	if !errors.As(err, &se) || se.Policy != "collude" {
		t.Fatalf("Drive error = %v, want a collude *ScoutError", err)
	}
	if env.Sink != trace.Sink(sink) {
		t.Errorf("sink after Drive = %v, want the one attached before", env.Sink)
	}
}
