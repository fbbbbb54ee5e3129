package experiment

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/tag"
	"repro/internal/wsn"
)

// trialSeed derives a deterministic per-trial seed.
func trialSeed(base int64, n, trial int) int64 {
	return base + int64(n)*1_000_003 + int64(trial)*7919
}

// envConfig builds the standard deployment; count=true sets unit readings
// (COUNT query).
func envConfig(n int, seed int64, count bool) wsn.Config {
	cfg := wsn.DefaultConfig(n, seed)
	if count {
		cfg.ReadingMin, cfg.ReadingMax = 1, 1
	}
	return cfg
}

// trialEnv deploys the standard network for one trial.
func trialEnv(n int, seed int64, count bool) (*wsn.Env, error) {
	return wsn.NewEnv(envConfig(n, seed, count))
}

// runOnce builds one protocol on env with cfg and runs its first round. It
// returns the typed protocol too, for the experiments that inspect its
// state afterwards (cluster heads, tree sums, the scouted attacker).
func runOnce[P metrics.Protocol, C any](env *wsn.Env, newP func(*wsn.Env, C) (P, error), cfg C) (metrics.RoundResult, P, error) {
	p, err := newP(env, cfg)
	if err != nil {
		return metrics.RoundResult{}, p, err
	}
	res, err := p.Run(1)
	return res, p, err
}

// meanOf runs fn over trials and averages the selected metric.
func meanOf(trials int, fn func(trial int) (float64, error)) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("experiment: trials must be positive")
	}
	var sum float64
	for t := 0; t < trials; t++ {
		v, err := fn(t)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(trials), nil
}

// sdapPollutionTrial runs the SDAP-class comparator (TAG with sampled
// attestation) against a pollution attack, returning detection,
// applicability, and the round's byte cost. A dry run without attestation
// picks the polluter; Reset to the same seed then replays that deployment
// with the attack on.
func sdapPollutionTrial(n int, seed int64, delta int64, sampleFrac float64) (detected, applicable bool, txBytes int, err error) {
	env, err := trialEnv(n, seed, false)
	if err != nil {
		return false, false, 0, err
	}
	_, dry, err := runOnce(env, tag.New, tag.DefaultConfig())
	if err != nil {
		return false, false, 0, err
	}
	polluter := dry.PickAggregator()
	if polluter < 0 {
		return false, false, 0, nil
	}
	if err := env.Reset(seed); err != nil {
		return false, false, 0, err
	}
	cfg := tag.DefaultConfig()
	cfg.SampleFraction = sampleFrac
	cfg.Polluter = polluter
	cfg.PollutionDelta = delta
	r, _, err := runOnce(env, tag.New, cfg)
	if err != nil {
		return false, false, 0, err
	}
	return !r.Accepted, true, r.TxBytes, nil
}
