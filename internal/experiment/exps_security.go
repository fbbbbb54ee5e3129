package experiment

import (
	"math"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
)

// F4: privacy capacity — disclosure probability vs px.
var _ = register(Experiment{
	ID:          "F4-privacy",
	Title:       "P(disclose) vs link-compromise probability px",
	Description: "Monte-Carlo over the exact rank checker; closed forms for reference.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 4000, 400)
		res := &Result{
			ID:    "F4-privacy",
			Title: "Privacy capacity",
			Columns: []string{
				"px", "icpda_m3_mc", "icpda_m3_cf", "icpda_m5_mc", "icpda_m5_cf",
				"ipda_l2_cf", "ipda_l3_cf",
			},
			Notes: "cf = closed form; ipda curves use nl = 2l-1 (d-regular approximation).",
		}
		pxs := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}
		if cfg.Quick {
			pxs = []float64{0.1, 0.5}
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 99))
		for _, px := range pxs {
			m3, err := attack.DisclosureProbability(rng, attack.ClusterScenario{M: 3, Px: px}, trials)
			if err != nil {
				return nil, err
			}
			m5, err := attack.DisclosureProbability(rng, attack.ClusterScenario{M: 5, Px: px}, trials)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				fmtG(px),
				fmtG(m3), fmtG(attack.ClusterDisclosureClosedForm(px, 3)),
				fmtG(m5), fmtG(attack.ClusterDisclosureClosedForm(px, 5)),
				fmtG(attack.IPDADisclosure(px, 2, 3)),
				fmtG(attack.IPDADisclosure(px, 3, 5)),
			})
		}
		return res, nil
	},
})

// F8: collusion resistance — disclosure vs number of colluding members.
var _ = register(Experiment{
	ID:          "F8-collusion",
	Title:       "P(disclose) vs colluding cluster members",
	Description: "The m-1 threshold, with and without eavesdropping assistance.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 2000, 200)
		res := &Result{
			ID:      "F8-collusion",
			Title:   "Collusion resistance (m=5)",
			Columns: []string{"colluders", "px=0", "px=0.2", "px=0.5"},
			Notes:   "Disclosure stays ~px-driven until c = m-1 = 4, where it jumps to 1.",
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		const m = 5
		for c := 0; c < m; c++ {
			row := []string{d(c)}
			for _, px := range []float64{0, 0.2, 0.5} {
				if c == m-1 {
					// m-1 colluders plus the public sum always disclose.
					row = append(row, "1")
					continue
				}
				p, err := attack.DisclosureProbability(rng,
					attack.ClusterScenario{M: m, Px: px, Colluders: c}, trials)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtG(p))
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	},
})

// F5: integrity — pollution detection rate vs attack magnitude.
var _ = register(Experiment{
	ID:          "F5-integrity",
	Title:       "Pollution detection rate vs attack magnitude (N=400)",
	Description: "Own-sum and child-echo attacks across deltas; lossy channel.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 15, 3)
		res := &Result{
			ID:      "F5-integrity",
			Title:   "Detection rate vs pollution delta",
			Columns: []string{"delta", "own_sum_detect", "child_echo_detect"},
			Notes:   "Any non-zero tamper of witnessed components should be detected; residual misses come from witness-side losses.",
		}
		deltas := []int64{1, 10, 100, 1000, 10000}
		if cfg.Quick {
			deltas = []int64{1, 1000}
		}
		const n = 400
		for _, delta := range deltas {
			delta := delta
			type sample struct {
				ownDet, ownApp, childDet, childApp bool
			}
			samples, err := collectTrials(trials, func(t int) (sample, error) {
				seed := trialSeed(cfg.Seed, n, t)
				var s sample
				var err error
				s.ownDet, s.ownApp, err = pollutionTrial(n, seed, delta, core.PolluteOwnSum)
				if err != nil {
					return s, err
				}
				s.childDet, s.childApp, err = pollutionTrial(n, seed+1, delta, core.PolluteChild)
				return s, err
			})
			if err != nil {
				return nil, err
			}
			var own, child float64
			ownRuns, childRuns := 0, 0
			for _, s := range samples {
				if s.ownApp {
					ownRuns++
					if s.ownDet {
						own++
					}
				}
				if s.childApp {
					childRuns++
					if s.childDet {
						child++
					}
				}
			}
			res.Rows = append(res.Rows, []string{
				fmtG(float64(delta)),
				f3(own / math.Max(float64(ownRuns), 1)),
				f3(child / math.Max(float64(childRuns), 1)),
			})
		}
		return res, nil
	},
})

// pollutionTrial picks a suitable attacker from a dry run, then replays the
// same deployment with the attack enabled — env.Reset to the same seed
// reproduces the dry run bit-for-bit without re-deploying the topology.
// applicable=false when the topology offered no suitable attacker (skipped
// trial).
func pollutionTrial(n int, seed int64, delta int64, target core.PollutionTarget) (detected, applicable bool, err error) {
	env, err := trialEnv(n, seed, false)
	if err != nil {
		return false, false, err
	}
	_, dry, err := runOnce(env, core.New, core.DefaultConfig())
	if err != nil {
		return false, false, err
	}
	polluter := dry.PickAttacker(target == core.PolluteChild)
	if polluter < 0 {
		return false, false, nil
	}
	if err := env.Reset(seed); err != nil {
		return false, false, err
	}
	cfg := core.DefaultConfig()
	cfg.Polluter = polluter
	cfg.PollutionDelta = delta
	cfg.Target = target
	r, _, err := runOnce(env, core.New, cfg)
	if err != nil {
		return false, false, err
	}
	return !r.Accepted, true, nil
}

// F7: localization — rounds to isolate a persistent polluter.
var _ = register(Experiment{
	ID:          "F7-localization",
	Title:       "Rounds to localize a persistent polluter vs network size",
	Description: "Bisection over cluster heads; expect 1 + ceil(log2 #heads).",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 8, 2)
		res := &Result{
			ID:      "F7-localization",
			Title:   "Localization cost",
			Columns: []string{"nodes", "heads", "rounds", "log2_bound", "hit_rate"},
			Notes:   "hit_rate = fraction of trials where the bisection isolated the true attacker.",
		}
		for _, n := range sizes(cfg.Quick) {
			n := n
			type sample struct {
				ok     bool
				heads  float64
				rounds float64
				hit    bool
			}
			samples, err := collectTrials(trials, func(t int) (sample, error) {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, false)
				if err != nil {
					return sample{}, err
				}
				_, dry, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				polluter := dry.PickAttacker(false)
				if polluter < 0 {
					return sample{}, nil
				}
				if env, err = trialEnv(n, seed, false); err != nil {
					return sample{}, err
				}
				ccfg := core.DefaultConfig()
				ccfg.Polluter = polluter
				ccfg.PollutionDelta = 12345
				ccfg.Target = core.PolluteOwnSum
				p, err := core.New(env, ccfg)
				if err != nil {
					return sample{}, err
				}
				loc, err := p.Localize()
				if err != nil {
					return sample{}, err
				}
				return sample{
					ok:     true,
					heads:  float64(len(p.Heads())),
					rounds: float64(loc.Rounds),
					hit:    loc.Suspect == polluter,
				}, nil
			})
			if err != nil {
				return nil, err
			}
			var headsSum, roundsSum, hits, runs float64
			for _, s := range samples {
				if !s.ok {
					continue
				}
				runs++
				headsSum += s.heads
				roundsSum += s.rounds
				if s.hit {
					hits++
				}
			}
			if runs == 0 {
				continue
			}
			bound := 1 + math.Ceil(math.Log2(math.Max(headsSum/runs, 2)))
			res.Rows = append(res.Rows, []string{
				d(n), f1(headsSum / runs), f1(roundsSum / runs), f1(bound), f3(hits / runs),
			})
		}
		return res, nil
	},
})

func fmtG(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001:
		return "~" + f3(v*1000) + "e-3"
	default:
		return f3(v)
	}
}
