package experiment

import (
	"math"

	"repro/internal/core"
	"repro/internal/ipda"
	"repro/internal/tag"
	"repro/internal/wsn"
)

// F2: bandwidth consumption vs network size across protocols.
var _ = register(Experiment{
	ID:          "F2-overhead",
	Title:       "Bytes on air vs network size: TAG vs cluster protocol vs iPDA",
	Description: "Total transmitted bytes (including MAC ACKs) per aggregation round.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F2-overhead",
			Title:   "Communication overhead vs N",
			Columns: []string{"nodes", "tag_B", "icpda_B", "ipda_l1_B", "ipda_l2_B", "icpda/tag", "ipda_l2/tag"},
			Notes:   "iPDA paper predicts ipda_l2/tag ~ (2l+1)/2 = 2.5 in app messages; bytes track it loosely.",
		}
		ipdaL1, ipdaL2 := ipda.DefaultConfig(), ipda.DefaultConfig()
		ipdaL1.L, ipdaL2.L = 1, 2
		for _, n := range sizes(cfg.Quick) {
			n := n
			type sample struct{ tag, core, ipda1, ipda2 float64 }
			samples, err := collectTrials(trials, func(t int) (sample, error) {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, false)
				if err != nil {
					return sample{}, err
				}
				r, _, err := runOnce(env, tag.New, tag.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, false); err != nil {
					return sample{}, err
				}
				rc, _, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, false); err != nil {
					return sample{}, err
				}
				r1, _, err := runOnce(env, ipda.New, ipdaL1)
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, false); err != nil {
					return sample{}, err
				}
				r2, _, err := runOnce(env, ipda.New, ipdaL2)
				if err != nil {
					return sample{}, err
				}
				return sample{
					tag: float64(r.TxBytes), core: float64(rc.TxBytes),
					ipda1: float64(r1.TxBytes), ipda2: float64(r2.TxBytes),
				}, nil
			})
			if err != nil {
				return nil, err
			}
			var tagB, coreB, ipda1B, ipda2B float64
			for _, s := range samples {
				tagB += s.tag
				coreB += s.core
				ipda1B += s.ipda1
				ipda2B += s.ipda2
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				d(n),
				f1(tagB / ft), f1(coreB / ft), f1(ipda1B / ft), f1(ipda2B / ft),
				f3(coreB / tagB), f3(ipda2B / tagB),
			})
		}
		return res, nil
	},
})

// F3: aggregation accuracy vs network size (COUNT query, lossy channel).
var _ = register(Experiment{
	ID:          "F3-accuracy",
	Title:       "COUNT accuracy vs network size: TAG vs cluster protocol vs iPDA",
	Description: "Reported / true aggregate on the lossy channel.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 15, 2)
		res := &Result{
			ID:      "F3-accuracy",
			Title:   "Accuracy vs N",
			Columns: []string{"nodes", "tag_acc", "icpda_acc", "ipda_acc"},
			Notes:   "Paper shape: TAG highest; privacy protocols poor below N=300, approaching TAG at N>=400.",
		}
		for _, n := range sizes(cfg.Quick) {
			n := n
			type sample struct{ ta, ca, ia float64 }
			samples, err := collectTrials(trials, func(t int) (sample, error) {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, true)
				if err != nil {
					return sample{}, err
				}
				r, _, err := runOnce(env, tag.New, tag.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, true); err != nil {
					return sample{}, err
				}
				rc, _, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, true); err != nil {
					return sample{}, err
				}
				ri, _, err := runOnce(env, ipda.New, ipda.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				return sample{ta: r.Accuracy(), ca: rc.Accuracy(), ia: ri.Accuracy()}, nil
			})
			if err != nil {
				return nil, err
			}
			var ta, ca, ia float64
			for _, s := range samples {
				ta += s.ta
				ca += s.ca
				ia += s.ia
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{d(n), f3(ta / ft), f3(ca / ft), f3(ia / ft)})
		}
		return res, nil
	},
})

// F6: iPDA red/blue tree agreement without attacks (Th calibration —
// the paper's Fig 6) plus the cluster protocol's false-alarm rate.
var _ = register(Experiment{
	ID:          "F6-agreement",
	Title:       "Loss-induced disagreement without attacks (Th calibration)",
	Description: "iPDA |S_red - S_blue| statistics and cluster-protocol false alarms, COUNT query.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 20, 3)
		res := &Result{
			ID:      "F6-agreement",
			Title:   "Tree disagreement / false alarms vs N (no attack)",
			Columns: []string{"nodes", "ipda_mean_diff", "ipda_max_diff", "icpda_false_alarm_rate"},
			Notes:   "Paper sets Th=5 for COUNT; diffs should sit near/below that. False alarms should be 0.",
		}
		for _, n := range sizes(cfg.Quick) {
			var meanDiff, maxDiff float64
			falseAlarms := 0
			for t := 0; t < trials; t++ {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, true)
				if err != nil {
					return nil, err
				}
				_, p, err := runOnce(env, ipda.New, ipda.DefaultConfig())
				if err != nil {
					return nil, err
				}
				red, blue := p.TreeSums()
				diff := math.Abs(float64(red - blue))
				meanDiff += diff
				if diff > maxDiff {
					maxDiff = diff
				}
				if env, err = trialEnv(n, seed, true); err != nil {
					return nil, err
				}
				rc, _, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				if rc.Alarms > 0 {
					falseAlarms++
				}
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				d(n), f1(meanDiff / ft), f1(maxDiff), f3(float64(falseAlarms) / ft),
			})
		}
		return res, nil
	},
})

// F9 (ablation): key scheme effect on overhead and completion.
var _ = register(Experiment{
	ID:          "F9-keyscheme",
	Title:       "Ablation: pairwise keys vs EG random predistribution (N=400)",
	Description: "Participation and accuracy when the key graph is incomplete.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F9-keyscheme",
			Title:   "Key scheme ablation",
			Columns: []string{"scheme", "icpda_part", "icpda_acc"},
			Notes:   "EG (pool 1000, ring 60) leaves some member pairs keyless: clusters fail more often.",
		}
		schemes := []struct {
			name       string
			pool, ring int // EG key pool and ring size; 0 = pairwise keys
		}{{"pairwise", 0, 0}, {"eg-1000-60", 1000, 60}, {"eg-1000-30", 1000, 30}}
		const n = 400
		for _, s := range schemes {
			var part, acc float64
			for t := 0; t < trials; t++ {
				ecfg := envConfig(n, trialSeed(cfg.Seed, n, t), false)
				if s.pool > 0 {
					ecfg.KeyScheme = wsn.KeyEG
					ecfg.EGPoolSize, ecfg.EGRingSize = s.pool, s.ring
				}
				env, err := wsn.NewEnv(ecfg)
				if err != nil {
					return nil, err
				}
				r, _, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				part += r.ParticipationRate()
				acc += r.Accuracy()
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{s.name, f3(part / ft), f3(acc / ft)})
		}
		return res, nil
	},
})
