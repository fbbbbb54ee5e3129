package experiment

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/radio"
	"repro/internal/tag"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// F10: integrity under collusion — the paper's future-work attack model.
var _ = register(Experiment{
	ID:          "F10-collusive",
	Title:       "Detection rate vs colluding in-cluster witnesses (N=400)",
	Description: "Attacker's own cluster members progressively join the attack.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 12, 3)
		res := &Result{
			ID:      "F10-collusive",
			Title:   "Collusive integrity attack",
			Columns: []string{"colluding_frac", "detect_rate", "trials"},
			Notes:   "Detection survives until every honest witness in the attacker's cluster is gone.",
		}
		fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
		if cfg.Quick {
			fracs = []float64{0, 1.0}
		}
		const n = 400
		for _, frac := range fracs {
			detected, runs := 0, 0
			for t := 0; t < trials; t++ {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, false)
				if err != nil {
					return nil, err
				}
				_, dry, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				polluter := dry.PickAttacker(false)
				if polluter < 0 {
					continue
				}
				var members []topo.NodeID
				for i := 1; i < n; i++ {
					id := topo.NodeID(i)
					if dry.HeadOf(id) == polluter && id != polluter {
						members = append(members, id)
					}
				}
				colluders := make(map[topo.NodeID]bool)
				for i := 0; i < int(frac*float64(len(members))+0.5); i++ {
					colluders[members[i]] = true
				}
				// Replay the identical deployment with the colluders armed.
				if err := env.Reset(seed); err != nil {
					return nil, err
				}
				ccfg := core.DefaultConfig()
				ccfg.Polluter = polluter
				ccfg.PollutionDelta = 9999
				ccfg.Target = core.PolluteOwnSum
				ccfg.Colluders = colluders
				r, _, err := runOnce(env, core.New, ccfg)
				if err != nil {
					return nil, err
				}
				runs++
				if !r.Accepted {
					detected++
				}
			}
			rate := 0.0
			if runs > 0 {
				rate = float64(detected) / float64(runs)
			}
			res.Rows = append(res.Rows, []string{f3(frac), f3(rate), d(runs)})
		}
		return res, nil
	},
})

// F11: energy per round and hotspot lifetime.
var _ = register(Experiment{
	ID:          "F11-energy",
	Title:       "Energy per round vs network size",
	Description: "First-order radio energy; hotspot node bounds network lifetime.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 8, 2)
		res := &Result{
			ID:    "F11-energy",
			Title: "Energy per round",
			Columns: []string{
				"nodes", "tag_total_mJ", "icpda_total_mJ", "icpda_mean_uJ",
				"icpda_hotspot_uJ", "hotspot_lifetime_rounds",
			},
			Notes: "Lifetime assumes a 2 J battery budget at the hotspot node.",
		}
		model := energy.DefaultModel()
		for _, n := range sizes(cfg.Quick) {
			var tagTotal, coreTotal, coreMean, coreMax, lifetime float64
			for t := 0; t < trials; t++ {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, false)
				if err != nil {
					return nil, err
				}
				if _, _, err := runOnce(env, tag.New, tag.DefaultConfig()); err != nil {
					return nil, err
				}
				repT, err := model.Audit(env.Rec, n)
				if err != nil {
					return nil, err
				}
				tagTotal += repT.TotalMicroJ / 1000

				// Same deployment, same randomness: Reset replays the trial
				// seed for the cluster protocol's turn.
				if err := env.Reset(seed); err != nil {
					return nil, err
				}
				if _, _, err := runOnce(env, core.New, core.DefaultConfig()); err != nil {
					return nil, err
				}
				repC, err := model.Audit(env.Rec, n)
				if err != nil {
					return nil, err
				}
				coreTotal += repC.TotalMicroJ / 1000
				coreMean += repC.MeanMicroJ
				coreMax += repC.MaxMicroJ
				lifetime += repC.LifetimeRounds(2)
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				d(n), f1(tagTotal / ft), f1(coreTotal / ft), f1(coreMean / ft),
				f1(coreMax / ft), f1(lifetime / ft),
			})
		}
		return res, nil
	},
})

// F12: robustness under fail-stop crashes.
var _ = register(Experiment{
	ID:          "F12-crash",
	Title:       "Participation and false alarms vs crash rate (N=400)",
	Description: "Fail-stop node crashes at random instants mid-round.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F12-crash",
			Title:   "Crash robustness",
			Columns: []string{"crash_rate", "participation", "accuracy", "false_alarm_rate"},
			Notes:   "Crashes must read as data loss (round still accepted), never as attacks.",
		}
		rates := []float64{0, 0.02, 0.05, 0.1, 0.2}
		if cfg.Quick {
			rates = []float64{0, 0.1}
		}
		const n = 400
		for _, rate := range rates {
			var part, acc float64
			rejected := 0
			ccfg := core.DefaultConfig()
			ccfg.CrashRate = rate
			for t := 0; t < trials; t++ {
				env, err := trialEnv(n, trialSeed(cfg.Seed, n, t), false)
				if err != nil {
					return nil, err
				}
				r, _, err := runOnce(env, core.New, ccfg)
				if err != nil {
					return nil, err
				}
				part += r.ParticipationRate()
				acc += r.Accuracy()
				if !r.Accepted {
					rejected++
				}
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				f3(rate), f3(part / ft), f3(acc / ft), f3(float64(rejected) / ft),
			})
		}
		return res, nil
	},
})

// F13: where the cluster protocol's bytes go.
var _ = register(Experiment{
	ID:          "F13-breakdown",
	Title:       "Byte breakdown by message kind (N=400, one round)",
	Description: "Explains the overhead ratio of F2: shares + relays dominate.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 8, 2)
		const n = 400
		totals := map[string]float64{}
		var grand float64
		for t := 0; t < trials; t++ {
			env, err := trialEnv(n, trialSeed(cfg.Seed, n, t), false)
			if err != nil {
				return nil, err
			}
			if _, _, err := runOnce(env, core.New, core.DefaultConfig()); err != nil {
				return nil, err
			}
			for kind, b := range env.Rec.BytesByKind() {
				totals[kind] += float64(b)
				grand += float64(b)
			}
		}
		res := &Result{
			ID:      "F13-breakdown",
			Title:   "Cluster-protocol byte breakdown",
			Columns: []string{"kind", "bytes_per_round", "share"},
			Notes:   "Averaged over trials; 'relay' carries out-of-range shares via the head.",
		}
		kinds := make([]string, 0, len(totals))
		for k := range totals {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(a, b int) bool { return totals[kinds[a]] > totals[kinds[b]] })
		ft := float64(trials)
		for _, k := range kinds {
			res.Rows = append(res.Rows, []string{
				k, f1(totals[k] / ft), fmt.Sprintf("%.1f%%", 100*totals[k]/grand),
			})
		}
		return res, nil
	},
})

// F14: deterministic vs statistical integrity — the cluster protocol's
// witnesses against SDAP-class commit-and-attest sampling.
var _ = register(Experiment{
	ID:          "F14-statistical",
	Title:       "Detection and cost: witnesses vs SDAP-class sampling (N=300)",
	Description: "Same attack, same substrate; sampling buys detection with traffic.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 20, 4)
		res := &Result{
			ID:      "F14-statistical",
			Title:   "Witness vs sampling integrity",
			Columns: []string{"scheme", "detect_rate", "extra_bytes_vs_tag"},
			Notes:   "SDAP detection tracks its sample fraction; the cluster witnesses detect deterministically.",
		}
		const n = 300
		type row struct {
			name string
			f    float64 // sample fraction; <0 = cluster protocol
		}
		rows := []row{{"sdap-f0.1", 0.1}, {"sdap-f0.3", 0.3}, {"sdap-f0.6", 0.6}, {"icpda", -1}}
		if cfg.Quick {
			rows = []row{{"sdap-f0.3", 0.3}, {"icpda", -1}}
		}
		for _, r := range rows {
			var detected, runs int
			var extra float64
			for t := 0; t < trials; t++ {
				seed := trialSeed(cfg.Seed, n, t)
				env, err := trialEnv(n, seed, false)
				if err != nil {
					return nil, err
				}
				tagRes, _, err := runOnce(env, tag.New, tag.DefaultConfig())
				if err != nil {
					return nil, err
				}
				if r.f < 0 {
					det, applicable, err := pollutionTrial(n, seed, 5000, core.PolluteOwnSum)
					if err != nil {
						return nil, err
					}
					if !applicable {
						continue
					}
					runs++
					if det {
						detected++
					}
					if env, err = trialEnv(n, seed, false); err != nil {
						return nil, err
					}
					rc, _, err := runOnce(env, core.New, core.DefaultConfig())
					if err != nil {
						return nil, err
					}
					extra += float64(rc.TxBytes - tagRes.TxBytes)
					continue
				}
				det, applicable, bytes, err := sdapPollutionTrial(n, seed, 5000, r.f)
				if err != nil {
					return nil, err
				}
				if !applicable {
					continue
				}
				runs++
				if det {
					detected++
				}
				extra += float64(bytes - tagRes.TxBytes)
			}
			if runs == 0 {
				continue
			}
			res.Rows = append(res.Rows, []string{
				r.name, f3(float64(detected) / float64(runs)), f1(extra / float64(runs)),
			})
		}
		return res, nil
	},
})

// F15: channel-model sensitivity — disc vs gray-zone fading.
var _ = register(Experiment{
	ID:          "F15-fading",
	Title:       "Accuracy under gray-zone fading vs the disc channel (N=400)",
	Description: "25% edge loss, cubic falloff; tests the protocols' loss tolerance.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F15-fading",
			Title:   "Channel-model sensitivity",
			Columns: []string{"channel", "tag_acc", "icpda_acc", "icpda_false_alarms"},
			Notes:   "ARQ hides most gray-zone loss from unicasts; broadcasts (rosters, hellos) feel it.",
		}
		const n = 400
		for _, fading := range []bool{false, true} {
			var tagAcc, coreAcc float64
			falseAlarms := 0
			for t := 0; t < trials; t++ {
				seed := trialSeed(cfg.Seed, n, t)
				ecfg := envConfig(n, seed, false)
				if fading {
					ecfg.Radio = radio.FadingConfig()
				}
				env, err := wsn.NewEnv(ecfg)
				if err != nil {
					return nil, err
				}
				rt, _, err := runOnce(env, tag.New, tag.DefaultConfig())
				if err != nil {
					return nil, err
				}
				tagAcc += rt.Accuracy()
				if err := env.Reset(seed); err != nil {
					return nil, err
				}
				rc, _, err := runOnce(env, core.New, core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				coreAcc += rc.Accuracy()
				if !rc.Accepted {
					falseAlarms++
				}
			}
			name := "disc"
			if fading {
				name = "fading-25%"
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{
				name, f3(tagAcc / ft), f3(coreAcc / ft), d(falseAlarms),
			})
		}
		return res, nil
	},
})

// F16: what integrity enforcement costs on top of privacy (ablation).
var _ = register(Experiment{
	ID:          "F16-integritycost",
	Title:       "Marginal cost of integrity enforcement (N=400)",
	Description: "NoWitness ablation: same privacy aggregation, no F-vector echo or witnessing.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		res := &Result{
			ID:      "F16-integritycost",
			Title:   "Integrity's marginal cost",
			Columns: []string{"variant", "bytes", "accuracy", "detects_pollution"},
			Notes:   "The F-vector echo inside announces is the integrity mechanism's entire byte cost.",
		}
		const n = 400
		for _, noWitness := range []bool{false, true} {
			var bytes, acc float64
			ccfg := core.DefaultConfig()
			ccfg.NoWitness = noWitness
			for t := 0; t < trials; t++ {
				env, err := trialEnv(n, trialSeed(cfg.Seed, n, t), false)
				if err != nil {
					return nil, err
				}
				r, _, err := runOnce(env, core.New, ccfg)
				if err != nil {
					return nil, err
				}
				bytes += float64(r.TxBytes)
				acc += r.Accuracy()
			}
			name, detects := "with-witnesses", "yes"
			if noWitness {
				name, detects = "privacy-only", "no"
			}
			ft := float64(trials)
			res.Rows = append(res.Rows, []string{name, f1(bytes / ft), f3(acc / ft), detects})
		}
		return res, nil
	},
})
