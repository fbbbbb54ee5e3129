package experiment

import (
	"repro/internal/core"
	"repro/internal/wsn"
)

// F17: resilience under injected frame loss — the degraded-recovery
// ablation. ARQ shields unicasts, so the injected loss lands mostly on the
// unacknowledged broadcasts (assembled reports, rosters) — exactly the
// failure degraded subset recovery exists to absorb.
var _ = register(Experiment{
	ID:          "F17-resilience",
	Title:       "Participation and accuracy vs injected loss rate (N=400)",
	Description: "Degraded subset recovery vs fail-whole-cluster under iid frame loss.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:    "F17-resilience",
			Title: "Loss resilience",
			Columns: []string{
				"loss_rate", "variant", "participation", "accuracy",
				"degraded_clusters", "failed_clusters", "false_alarm_rate",
			},
			Notes: "Degrade-on recovers a maximal common subset per cluster; degrade-off drops any cluster with an incomplete share matrix.",
		}
		rates := []float64{0, 0.02, 0.05, 0.1}
		if cfg.Quick {
			rates = []float64{0, 0.05}
		}
		const n = 400
		for _, rate := range rates {
			for _, noDegrade := range []bool{false, true} {
				var part, acc, degraded, failed float64
				rejected := 0
				ccfg := core.DefaultConfig()
				ccfg.NoDegrade = noDegrade
				for t := 0; t < trials; t++ {
					seed := trialSeed(cfg.Seed, n, t)
					ecfg := envConfig(n, seed, false)
					ecfg.Radio.LossRate = rate
					env, err := wsn.NewEnv(ecfg)
					if err != nil {
						return nil, err
					}
					r, _, err := runOnce(env, core.New, ccfg)
					if err != nil {
						return nil, err
					}
					part += r.ParticipationRate()
					acc += r.Accuracy()
					degraded += float64(r.DegradedClusters)
					failed += float64(r.FailedClusters)
					if !r.Accepted {
						rejected++
					}
				}
				name := "degrade-on"
				if noDegrade {
					name = "degrade-off"
				}
				ft := float64(trials)
				res.Rows = append(res.Rows, []string{
					f3(rate), name, f3(part / ft), f3(acc / ft),
					f1(degraded / ft), f1(failed / ft), f3(float64(rejected) / ft),
				})
			}
		}
		return res, nil
	},
})
