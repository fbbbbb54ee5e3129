package experiment

import (
	"repro/internal/core"
)

// F18: head-failover under targeted head crashes — the deputy ablation.
// Heads fail-stop mid-round with probability crash_rate; with failover on,
// the deputy's watchdog takes over the announce in-round and the next
// round's repair window promotes deputies and re-adopts orphans, so
// participation recovers. With failover off, every crashed head silently
// removes its whole cluster, and the damage compounds across rounds.
var _ = register(Experiment{
	ID:          "F18-failover",
	Title:       "Participation vs head-crash rate over 4 rounds (N=400)",
	Description: "Deputy failover + churn repair vs no-failover under targeted head fail-stops.",
	Run: func(cfg RunConfig) (*Result, error) {
		trials := trialsOr(cfg, 10, 2)
		const rounds = 4
		res := &Result{
			ID:    "F18-failover",
			Title: "Head failover",
			Columns: []string{
				"crash_rate", "variant", "participation", "final_participation",
				"takeovers", "promotions", "orphans_rejoined",
				"accept_rate", "false_alarm_rate",
			},
			Notes: "Means over 4 rounds x trials; final_participation is the last round only. Crash-only rounds must accept with zero alarms.",
		}
		rates := []float64{0, 0.05, 0.1, 0.2}
		if cfg.Quick {
			rates = []float64{0, 0.1}
		}
		const n = 400
		for _, rate := range rates {
			for _, noFailover := range []bool{false, true} {
				var part, finalPart, takeovers, promotions, orphans float64
				accepted, alarmed := 0, 0
				for t := 0; t < trials; t++ {
					env, err := trialEnv(n, trialSeed(cfg.Seed, n, t), false)
					if err != nil {
						return nil, err
					}
					p, err := core.New(env, coreFailoverConfig(rate, noFailover))
					if err != nil {
						return nil, err
					}
					for round := uint16(1); round <= rounds; round++ {
						r, err := p.Epoch(round)
						if err != nil {
							return nil, err
						}
						part += r.ParticipationRate()
						takeovers += float64(r.Takeovers)
						promotions += float64(r.Promotions)
						orphans += float64(r.OrphansRejoined)
						if r.Accepted {
							accepted++
						}
						if r.Alarms > 0 {
							alarmed++
						}
						if round == rounds {
							finalPart += r.ParticipationRate()
						}
					}
				}
				name := "failover-on"
				if noFailover {
					name = "failover-off"
				}
				ft := float64(trials)
				frt := float64(trials * rounds)
				res.Rows = append(res.Rows, []string{
					f3(rate), name, f3(part / frt), f3(finalPart / ft),
					f1(takeovers / ft), f1(promotions / ft), f1(orphans / ft),
					f3(float64(accepted) / frt), f3(float64(alarmed) / frt),
				})
			}
		}
		return res, nil
	},
})

// coreFailoverConfig is the cluster config for an F18 variant: targeted
// head crashes at the given rate, failover optionally ablated. Crashed
// heads stay down (no CrashRecover), so cross-round repair — not reboots —
// is what restores participation.
func coreFailoverConfig(rate float64, noFailover bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.HeadCrashRate = rate
	cfg.NoFailover = noFailover
	return cfg
}
