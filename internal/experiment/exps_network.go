package experiment

import (
	"repro/internal/core"
	"repro/internal/ipda"
	"repro/internal/shares"
	"repro/internal/tag"
)

// T1: network size vs average node degree (the lineage papers' Table I).
var _ = register(Experiment{
	ID:          "T1-density",
	Title:       "Network size vs average node degree (400m x 400m, r=50m)",
	Description: "Calibration table: deployment density per network size.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 20, 3)
		res := &Result{
			ID:      "T1-density",
			Title:   "Network size vs network density",
			Columns: []string{"nodes", "avg_degree"},
			Notes:   "Paper reports 8.8 / 13.7 / 18.6 / 23.5 / 28.4 for 200..600.",
		}
		for _, n := range sizes(cfg.Quick) {
			mean, err := meanOf(trials, func(t int) (float64, error) {
				env, err := trialEnv(n, trialSeed(cfg.Seed, n, t), false)
				if err != nil {
					return 0, err
				}
				return env.Net.AverageDegree(), nil
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{d(n), f1(mean)})
		}
		return res, nil
	},
})

// T2: cluster-shape statistics as a function of the head probability pc.
var _ = register(Experiment{
	ID:          "T2-clusters",
	Title:       "Cluster statistics vs head probability pc (N=400)",
	Description: "Heads elected, mean cluster size, viable fraction, coverage.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "T2-clusters",
			Title:   "Cluster shape vs pc",
			Columns: []string{"pc", "heads", "mean_size", "viable_frac", "coverage"},
			Notes:   "Viable = clusters with >= 3 members; coverage = nodes in viable clusters.",
		}
		pcs := []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.4}
		if cfg.Quick {
			pcs = []float64{0.15, 0.25}
		}
		const n = 400
		for _, pc := range pcs {
			var heads, size, viable, coverage float64
			ccfg := core.DefaultConfig()
			ccfg.Pc = pc
			for t := 0; t < trials; t++ {
				env, err := trialEnv(n, trialSeed(cfg.Seed, n, t), false)
				if err != nil {
					return nil, err
				}
				_, p, err := runOnce(env, core.New, ccfg)
				if err != nil {
					return nil, err
				}
				hs := p.Heads()
				heads += float64(len(hs))
				var members, viableClusters, coveredNodes int
				for _, h := range hs {
					m := p.ClusterSize(h)
					members += m
					if m >= shares.MinClusterSize {
						viableClusters++
						coveredNodes += m
					}
				}
				if len(hs) > 0 {
					size += float64(members) / float64(len(hs))
					viable += float64(viableClusters) / float64(len(hs))
				}
				coverage += float64(coveredNodes) / float64(n-1)
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				f3(pc), f1(heads / ft), f1(size / ft), f3(viable / ft), f3(coverage / ft),
			})
		}
		return res, nil
	},
})

// F1: coverage and participation vs network size for the cluster protocol
// and iPDA.
var _ = register(Experiment{
	ID:          "F1-coverage",
	Title:       "Coverage and participation vs network size",
	Description: "Fraction of nodes structurally covered and actually contributing.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F1-coverage",
			Title:   "Coverage / participation vs N",
			Columns: []string{"nodes", "icpda_cover", "icpda_part", "ipda_cover", "ipda_part", "tag_cover"},
			Notes:   "Paper shape: poor below N=300 (avg degree < 14), near 1.0 at N>=400.",
		}
		for _, n := range sizes(cfg.Quick) {
			n := n
			type sample struct{ cc, cp, ic, ip, tc float64 }
			samples, err := collectTrials(trials, func(t int) (sample, error) {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, false)
				if err != nil {
					return sample{}, err
				}
				r1, _, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, false); err != nil {
					return sample{}, err
				}
				r2, _, err := runOnce(env, ipda.New, ipda.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				if env, err = trialEnv(n, seed, false); err != nil {
					return sample{}, err
				}
				r3, _, err := runOnce(env, tag.New, tag.DefaultConfig())
				if err != nil {
					return sample{}, err
				}
				return sample{
					cc: r1.CoverageRate(), cp: r1.ParticipationRate(),
					ic: r2.CoverageRate(), ip: r2.ParticipationRate(),
					tc: r3.CoverageRate(),
				}, nil
			})
			if err != nil {
				return nil, err
			}
			var cc, cp, ic, ip, tc float64
			for _, s := range samples {
				cc += s.cc
				cp += s.cp
				ic += s.ic
				ip += s.ip
				tc += s.tc
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				d(n), f3(cc / ft), f3(cp / ft), f3(ic / ft), f3(ip / ft), f3(tc / ft),
			})
		}
		return res, nil
	},
})
