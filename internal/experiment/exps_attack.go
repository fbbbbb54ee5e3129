package experiment

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
)

// campaignTrial runs a campaign over the given policies against the
// cluster protocol on a fresh deployment (attack.Campaign.Drive).
// applicable=false when the topology offered no target for some policy
// (skipped trial, not an error).
func campaignTrial(n int, seed int64, rounds int, policies ...attack.Policy) (attack.Report, bool, error) {
	env, err := trialEnv(n, seed, false)
	if err != nil {
		return attack.Report{}, false, err
	}
	camp, err := attack.NewCampaign(seed, rounds, policies...)
	if err != nil {
		return attack.Report{}, false, err
	}
	_, rep, err := camp.Drive(env, core.DefaultConfig())
	var noTarget *attack.ScoutError
	if errors.As(err, &noTarget) {
		return attack.Report{}, false, nil // no viable target on this topology
	}
	if err != nil {
		return attack.Report{}, false, err
	}
	return rep, true, nil
}

// F20: simulated privacy capacity — the campaign engine's Sen–Maitra
// reconstruction over real radio traffic vs the analytic rank model on the
// same cluster geometry.
var _ = register(Experiment{
	ID:    "F20-privacy-capacity",
	Title: "Simulated collusion reconstruction vs analytic rank model",
	Description: "Collusion campaigns over real traffic (N=120, c=2); the analytic " +
		"DiscloseTrial rate is evaluated at each trial's scouted cluster size.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 12, 3)
		res := &Result{
			ID:    "F20-privacy-capacity",
			Title: "Privacy capacity under simulated campaigns",
			Columns: []string{
				"px", "sim_disclose", "analytic_disclose", "attempts", "mean_m",
			},
			Notes: "sim = campaign breach rate over reconstruction attempts; analytic = " +
				"rank-model Monte-Carlo matched to each trial's cluster size. The two " +
				"columns must agree within Monte-Carlo noise (acceptance gate).",
		}
		pxs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
		if cfg.Quick {
			pxs = []float64{0.5, 1.0}
		}
		const n, colluders = 120, 2
		inner := trialsOr(cfg, 400, 100)
		for _, px := range pxs {
			px := px
			type sample struct {
				ok                 bool
				attempts, breaches float64
				m                  float64
				analytic           float64
			}
			samples, err := collectTrials(trials, func(t int) (sample, error) {
				seed := trialSeed(cfg.Seed, n, t)
				pol := &attack.Collusion{Colluders: colluders, Px: px}
				rep, ok, err := campaignTrial(n, seed, 1, pol)
				if err != nil || !ok {
					return sample{}, err
				}
				var s sample
				for _, a := range rep.Actions {
					s.attempts++
					if a.Breach {
						s.breaches++
					}
				}
				if s.attempts == 0 {
					return sample{}, nil // degraded cluster: no full-roster announce
				}
				s.ok = true
				s.m = float64(mClusterOf(seed, n, pol))
				rng := rand.New(rand.NewSource(seed + 31))
				s.analytic, err = attack.DisclosureProbability(rng,
					attack.ClusterScenario{M: int(s.m), Px: px, Colluders: colluders}, inner)
				return s, err
			})
			if err != nil {
				return nil, err
			}
			var att, br, mSum, an, runs float64
			for _, s := range samples {
				if !s.ok {
					continue
				}
				runs++
				att += s.attempts
				br += s.breaches
				mSum += s.m
				an += s.analytic
			}
			if runs == 0 {
				continue
			}
			res.Rows = append(res.Rows, []string{
				fmtG(px), f3(br / att), f3(an / runs), d(int(att)), f1(mSum / runs),
			})
		}
		return res, nil
	},
})

// mClusterOf re-derives the collusion policy's scouted cluster size. The
// policy locked its head during the trial; its Target survives, and the
// roster it implies is a round-1 structural property, so a fresh dry run at
// the same seed reproduces it exactly.
func mClusterOf(seed int64, n int, pol *attack.Collusion) int {
	env, err := trialEnv(n, seed, false)
	if err != nil {
		return 0
	}
	_, dry, err := runOnce(env, core.New, core.DefaultConfig())
	if err != nil {
		return 0
	}
	return dry.ClusterSize(pol.Target())
}

// F21: detection-rate curves — per-policy campaign outcomes across seeds.
var _ = register(Experiment{
	ID:    "F21-detection",
	Title: "Campaign detection-rate curves per attacker policy",
	Description: "Multi-policy campaigns (N=120, 3 rounds per seed): actions, witness " +
		"detections, silent breaches, and false alarms per policy.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F21-detection",
			Title:   "Detection rates under composed campaigns",
			Columns: []string{"policy", "actions", "effective", "detected", "breaches", "detect_rate"},
			Notes: "detect_rate = detections / effective actions. Active forgeries " +
				"(tamper, echo, replay, takeover) detect whenever a witness overhears the " +
				"forged transmission — at 1.0 in isolation; composed campaigns add radio " +
				"contention, so a collision can occasionally cost an overhear. Sybil " +
				"infiltration is contained (phantoms shed without count inflation), and " +
				"passive collusion is undetectable by construction — its row reports " +
				"breaches only.",
		}
		const n, rounds = 120, 3
		type tally struct{ actions, effective, detected, breaches int }
		tallies := map[string]*tally{}
		order := []string{"tamper", "echo", "replay", "takeover", "sybil", "collude"}
		for _, name := range order {
			tallies[name] = &tally{}
		}
		falseAlarms := 0
		for t := 0; t < trials; t++ {
			seed := trialSeed(cfg.Seed, n, t)
			rep, ok, err := campaignTrial(n, seed, rounds,
				&attack.ShareTamper{},
				&attack.EchoForge{},
				&attack.Replay{},
				&attack.TakeoverForge{},
				&attack.Sybil{Count: 2},
				&attack.Collusion{Colluders: 2, Px: 0.8},
			)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			falseAlarms += rep.FalseAlarms
			for _, a := range rep.Actions {
				tl := tallies[a.Policy]
				if tl == nil {
					continue
				}
				tl.actions++
				if !a.Moot {
					tl.effective++
				}
				if a.Detected {
					tl.detected++
				}
				if a.Breach {
					tl.breaches++
				}
			}
		}
		for _, name := range order {
			tl := tallies[name]
			rate := 1.0
			if tl.effective > 0 {
				rate = float64(tl.detected) / float64(tl.effective)
			}
			if name == "collude" || name == "sybil" {
				rate = math.NaN() // not a detection-gated policy
			}
			rateS := "n/a"
			if !math.IsNaN(rate) {
				rateS = f3(rate)
			}
			res.Rows = append(res.Rows, []string{
				name, d(tl.actions), d(tl.effective), d(tl.detected), d(tl.breaches), rateS,
			})
		}
		res.Notes += " False alarms across all campaigns: " + d(falseAlarms) + "."
		return res, nil
	},
})
