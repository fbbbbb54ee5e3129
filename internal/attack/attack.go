// Package attack models the adversaries of the evaluation: a passive
// eavesdropper that breaks the security of any given link with probability
// px (the lineage papers' threat parameter), optionally assisted by
// colluding cluster members, and the active data-pollution attacker (which
// lives inside the protocol configs; this package quantifies the passive
// side).
//
// Disclosure is decided exactly: everything the adversary learned in a
// cluster round becomes a linear system over GF(p) (package shares) and a
// reading counts as disclosed only when that system uniquely determines it.
package attack

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/field"
	"repro/internal/shares"
)

// ClusterScenario describes one cluster round under attack.
type ClusterScenario struct {
	M         int     // cluster size (>= shares.MinClusterSize)
	Px        float64 // per-link compromise probability
	Colluders int     // cluster members cooperating with the adversary
	// RelayFraction is the fraction of ordered member pairs whose share
	// travels via the head (two radio hops out of mutual range).
	RelayFraction float64
	// TwoHopPx, when positive, is the compromise probability applied to
	// relayed pairs instead of Px. A relayed share stays sealed under the
	// end-to-end pair key, so algebraically one broken key still exposes
	// it — but the frame is on the air twice, and an eavesdropper keying
	// on traffic capture gets two interception chances. Zero keeps the
	// legacy per-pair-key behaviour (relaying changes nothing), which the
	// overhead experiments and the simulated campaigns then agree on.
	TwoHopPx float64
}

// Validate checks scenario sanity.
func (s ClusterScenario) Validate() error {
	if s.M < shares.MinClusterSize {
		return fmt.Errorf("attack: cluster size %d below minimum %d", s.M, shares.MinClusterSize)
	}
	if s.Px < 0 || s.Px > 1 {
		return fmt.Errorf("attack: px %g out of [0, 1]", s.Px)
	}
	if s.Colluders < 0 || s.Colluders >= s.M {
		return fmt.Errorf("attack: %d colluders out of range [0, %d)", s.Colluders, s.M)
	}
	if s.RelayFraction < 0 || s.RelayFraction > 1 {
		return fmt.Errorf("attack: relay fraction %g out of [0, 1]", s.RelayFraction)
	}
	if s.TwoHopPx < 0 || s.TwoHopPx > 1 {
		return fmt.Errorf("attack: two-hop px %g out of [0, 1]", s.TwoHopPx)
	}
	if s.TwoHopPx > 0 && s.RelayFraction == 0 {
		return fmt.Errorf("attack: two-hop px %g set with no relayed pairs", s.TwoHopPx)
	}
	return nil
}

// DiscloseTrial simulates one cluster round and reports whether the reading
// of the first honest member (member index s.Colluders) is disclosed.
//
// The adversary always knows: the cleartext assembled values F_j (they are
// echoed in the head's announce) and the cluster sum. With probability Px
// per ordered member pair it additionally decrypts that pair's share link.
// Colluders contribute their complete internal state.
func DiscloseTrial(rng *rand.Rand, s ClusterScenario) (bool, error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	seeds := make([]field.Element, s.M)
	for i := range seeds {
		seeds[i] = shares.SeedFor(i)
	}
	algebra, err := shares.NewAlgebra(seeds)
	if err != nil {
		return false, err
	}
	k := shares.NewKnowledge(algebra)
	for j := 0; j < s.M; j++ {
		if err := k.AddAssembled(j); err != nil {
			return false, err
		}
	}
	k.AddClusterSum()
	for c := 0; c < s.Colluders; c++ {
		if err := k.AddColluder(c); err != nil {
			return false, err
		}
	}
	// Eavesdropped share links: every transmitted share (i != j) is
	// exposed when the (i, j) pair key is broken. Under the two-hop model
	// a relayed pair (drawn with probability RelayFraction) is exposed
	// with TwoHopPx instead; with TwoHopPx unset the legacy single draw
	// per pair is preserved exactly.
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.M; j++ {
			if i == j {
				continue
			}
			px := s.Px
			if s.TwoHopPx > 0 && rng.Float64() < s.RelayFraction {
				px = s.TwoHopPx
			}
			if rng.Float64() < px {
				if err := k.AddShare(i, j); err != nil {
					return false, err
				}
			}
		}
	}
	victim := s.Colluders // first honest member
	return k.Determined(victim)
}

// DisclosureProbability Monte-Carlo estimates P(disclose) for the scenario.
func DisclosureProbability(rng *rand.Rand, s ClusterScenario, trials int) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("attack: trials must be positive, got %d", trials)
	}
	disclosed := 0
	for t := 0; t < trials; t++ {
		d, err := DiscloseTrial(rng, s)
		if err != nil {
			return 0, err
		}
		if d {
			disclosed++
		}
	}
	return float64(disclosed) / float64(trials), nil
}

// IPDADisclosure is the iPDA paper's closed-form privacy capacity for a
// node slicing into l pieces with expected incoming link count nl:
//
//	P = 1 - (1 - px^l)(1 - px^(l-1+nl))
//
// used as the comparator curve in the privacy figure.
func IPDADisclosure(px float64, l int, nl float64) float64 {
	return 1 - (1-math.Pow(px, float64(l)))*(1-math.Pow(px, float64(l-1)+nl))
}

// ClusterDisclosureClosedForm gives the reconstruction's analytical
// approximation for the cluster scheme: the victim's reading falls iff the
// adversary decrypts all of the victim's m-1 outgoing share links and all
// of its m-1 incoming share links (the assembled values are public, so the
// kept share is then derivable):
//
//	P ≈ px^(2(m-1))
//
// The Monte-Carlo curve from DisclosureProbability should track this.
func ClusterDisclosureClosedForm(px float64, m int) float64 {
	return math.Pow(px, float64(2*(m-1)))
}
